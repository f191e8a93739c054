package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSpecDecode drives arbitrary submission bodies through the handler's
// admission path — decodeSpec, then compile — and checks that it never
// panics, that every rejection is a decode error or a typed *SpecError
// (which the handler maps to 400 bad_spec), and that an accepted spec
// never fans out past the server's cell limit.
func FuzzSpecDecode(f *testing.F) {
	const maxCells = 16
	seeds := []Spec{
		testSpec(),
		{Scheme: "gshare", Param: "history", Values: []int{4}, Instructions: 1000},
		{Scheme: "gshare", Param: "size", Values: []int{40}, Instructions: 1000},
		{Scheme: "2bcg", Param: "history", Values: []int{4, 8}, Benchmarks: []string{"gcc", "li"},
			Instructions: 1000, Mode: "ev8", Ensemble: "on", Stats: true},
	}
	for _, sp := range seeds {
		body, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{not json`,
		`{"scheme":"gshare","param":"history","values":[4],"unknown_field":1,"instructions":1000}`,
		`{"scheme":"nonesuch","param":"history","values":[4],"instructions":1000}`,
		`{"scheme":"gshare","param":"size","values":[40],"instructions":1000}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		cs, err := sp.compile(1, maxCells)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("spec %s rejected with %v (%T), not a *SpecError", body, err, err)
			}
			return
		}
		if cs.cells < 1 || cs.cells > maxCells || cs.cells != len(cs.xs)*len(cs.profs) {
			t.Fatalf("spec %s accepted with %d cells (%d values × %d profiles), limit %d",
				body, cs.cells, len(cs.xs), len(cs.profs), maxCells)
		}
	})
}

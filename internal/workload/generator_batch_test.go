package workload

import (
	"io"
	"testing"
	"unsafe"

	"ev8pred/internal/trace"
)

// TestGeneratorNextBatchMatchesNext: the batched leg must emit the exact
// record sequence of the per-record leg, across batch boundaries and at
// the budget edge, ending in a clean io.EOF.
func TestGeneratorNextBatchMatchesNext(t *testing.T) {
	prof, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50_000
	want := trace.Collect(MustNew(prof, budget), 0)
	if len(want) == 0 {
		t.Fatal("reference stream is empty")
	}

	g := MustNew(prof, budget)
	buf := make([]trace.Branch, 257) // odd size: batch edges never align with anything
	var got []trace.Branch
	for {
		n, err := g.NextBatch(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("batched stream has %d records, per-record has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: batched %+v != per-record %+v", i, got[i], want[i])
		}
	}
	// Exhausted generator keeps reporting clean EOF.
	if n, err := g.NextBatch(buf); n != 0 || err != io.EOF {
		t.Errorf("post-EOF NextBatch = (%d, %v), want (0, io.EOF)", n, err)
	}

	// Interleaving Next and NextBatch advances one shared cursor.
	g2 := MustNew(prof, budget)
	b, ok := g2.Next()
	if !ok || b != want[0] {
		t.Fatal("Next did not yield record 0")
	}
	n, err := g2.NextBatch(buf[:4])
	if err != nil || n != 4 || buf[0] != want[1] {
		t.Fatalf("NextBatch after Next = (%d, %v), buf[0] = %+v", n, err, buf[0])
	}
}

// TestHotNodeLayout pins the interpreter's hot structures to their
// cache-line budget: a statement (with its packed outcome model inline)
// fits in 64 bytes, and a stack frame stays small. Growing either puts a
// second cache line on every if-site the generator steps through.
func TestHotNodeLayout(t *testing.T) {
	if n := unsafe.Sizeof(stmt{}); n > 64 {
		t.Errorf("stmt is %d bytes, budget 64", n)
	}
	if n := unsafe.Sizeof(siteModel{}); n > 16 {
		t.Errorf("siteModel is %d bytes, budget 16", n)
	}
	if n := unsafe.Sizeof(frame{}); n > 40 {
		t.Errorf("frame is %d bytes, budget 40", n)
	}
}

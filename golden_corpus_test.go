package ev8pred_test

// The golden corpus pins every facade constructor's results across
// versions, not just across schedules: the differential suites compare
// two paths inside one build, so a change that moves every path together
// (the generator, the tracker, a shared counter helper) passes all of
// them and fails here. Each entry is checked twice — as a standalone
// RunBenchmark and as one member of a RunEnsembleBenchmark over the same
// (benchmark, mode, delay) — so both stream schedules stay pinned.
//
// A plain `go test` only reads the corpus. `make golden` rewrites it
// (go test -run TestGoldenCorpus -golden.update); review the diff before
// committing it.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ev8pred"
	"ev8pred/internal/stats"
)

var goldenUpdate = flag.Bool("golden.update", false, "rewrite testdata/golden/runs.json from this build")

const (
	goldenPath         = "testdata/golden/runs.json"
	goldenInstructions = 20_000
)

// goldenRun is one corpus entry.
type goldenRun struct {
	Predictor    string `json:"predictor"`
	Benchmark    string `json:"benchmark"`
	Mode         string `json:"mode"`
	Delay        int    `json:"delay"`
	Branches     int64  `json:"branches"`
	Mispredicts  int64  `json:"mispredicts"`
	Instructions int64  `json:"instructions"`
	// Stats is the FNV-1a hash of the name-sorted attribution counters
	// under Options.Collect; empty for predictors without attribution.
	Stats string `json:"stats,omitempty"`
}

func (g goldenRun) key() string {
	return fmt.Sprintf("%s/%s/%s/delay%d", g.Predictor, g.Benchmark, g.Mode, g.Delay)
}

// statsHash hashes each counter's name, a NUL, and its value (8 bytes,
// little-endian), in name order.
func statsHash(cs *stats.Counters) string {
	if cs == nil {
		return ""
	}
	h := fnv.New64a()
	var v [8]byte
	for _, c := range cs.Sorted() {
		h.Write([]byte(c.Name))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(v[:], uint64(c.Value))
		h.Write(v[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenCorpus(t *testing.T) {
	ctors := facadeConstructors()
	names := make([]string, 0, len(ctors))
	for name := range ctors {
		names = append(names, name)
	}
	sort.Strings(names)
	factories := make([]ev8pred.Factory, len(names))
	for i, name := range names {
		factories[i] = ctors[name]
	}
	modes := []struct {
		name string
		mode ev8pred.Mode
	}{{"ghist", ev8pred.ModeGhist()}, {"lghist", ev8pred.ModeLghist()}, {"ev8", ev8pred.ModeEV8()}}

	entry := func(name, bench, mode string, delay int, r ev8pred.Result) goldenRun {
		return goldenRun{Predictor: name, Benchmark: bench, Mode: mode, Delay: delay,
			Branches: r.Branches, Mispredicts: r.Mispredicts, Instructions: r.Instructions,
			Stats: statsHash(r.Stats)}
	}
	var solo, grouped []goldenRun
	for _, prof := range ev8pred.Benchmarks() {
		for _, m := range modes {
			for _, delay := range []int{0, 8} {
				opts := ev8pred.Options{Mode: m.mode, UpdateDelay: delay, Collect: true}
				rs, err := ev8pred.RunEnsembleBenchmark(factories, prof, goldenInstructions, opts)
				if err != nil {
					t.Fatalf("%s/%s/delay%d ensemble: %v", prof.Name, m.name, delay, err)
				}
				for i, name := range names {
					p, err := factories[i]()
					if err != nil {
						t.Fatal(err)
					}
					r, err := ev8pred.RunBenchmark(p, prof, goldenInstructions, opts)
					if err != nil {
						t.Fatalf("%s/%s/%s/delay%d: %v", name, prof.Name, m.name, delay, err)
					}
					solo = append(solo, entry(name, prof.Name, m.name, delay, r))
					grouped = append(grouped, entry(name, prof.Name, m.name, delay, rs[i]))
				}
			}
		}
	}
	sort.Slice(solo, func(i, j int) bool { return solo[i].key() < solo[j].key() })
	sort.Slice(grouped, func(i, j int) bool { return grouped[i].key() < grouped[j].key() })

	if *goldenUpdate {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, g := range solo {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString("  ")
			buf.Write(line)
			if i < len(solo)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(solo), goldenPath)
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading corpus (regenerate with make golden): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if len(want) != len(solo) {
		t.Fatalf("corpus holds %d entries, this build computes %d", len(want), len(solo))
	}
	failures := 0
	for i := range want {
		for _, got := range []struct {
			schedule string
			run      goldenRun
		}{{"RunBenchmark", solo[i]}, {"RunEnsembleBenchmark", grouped[i]}} {
			if got.run != want[i] {
				failures++
				if failures <= 20 {
					t.Errorf("%s moved under %s:\n got  %+v\n want %+v", want[i].key(), got.schedule, got.run, want[i])
				}
			}
		}
	}
	if failures > 20 {
		t.Errorf("... %d mismatches in all", failures)
	}
}

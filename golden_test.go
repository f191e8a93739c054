package ev8pred_test

// Golden determinism tests: the library promises bit-identical
// regeneration from fixed seeds. These tests pin exact branch,
// misprediction and instruction counts for a few configurations; any
// change to the workload generator, history machinery, index functions or
// update policy that alters results MUST show up here (and, if intended,
// the goldens updated consciously — they are behavior checksums, not
// correctness claims). The per-record generator stream is pinned
// separately by TestGeneratorStreamFingerprints in internal/workload.

import (
	"testing"

	"ev8pred"
)

func TestGoldenRunsAreDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		mode  ev8pred.Mode
		build func() (ev8pred.Predictor, error)
		bench string
		// Pinned at 300k instructions: branches, mispredicts, instructions.
		branches, mispredicts, instructions int64
	}{
		{"ev8-li", ev8pred.ModeEV8(),
			func() (ev8pred.Predictor, error) { return ev8pred.NewEV8(), nil }, "li",
			42079, 3239, 300006},
		{"2bcg512-gcc", ev8pred.ModeGhist(),
			func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config512K()) }, "gcc",
			38841, 4345, 300001},
		{"gshare-perl", ev8pred.ModeGhist(),
			func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(64*1024, 16) }, "perl",
			22086, 1524, 300023},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prof, err := ev8pred.BenchmarkByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			run := func() ev8pred.Result {
				p, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				r, err := ev8pred.RunBenchmark(p, prof, 300_000, ev8pred.Options{Mode: c.mode})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			a, b := run(), run()
			if a.Mispredicts != b.Mispredicts || a.Branches != b.Branches || a.Instructions != b.Instructions {
				t.Fatalf("non-deterministic: %+v vs %+v", a, b)
			}
			if a.Branches != c.branches || a.Mispredicts != c.mispredicts || a.Instructions != c.instructions {
				t.Fatalf("golden moved: branches/mispredicts/instructions = %d/%d/%d, pinned %d/%d/%d",
					a.Branches, a.Mispredicts, a.Instructions, c.branches, c.mispredicts, c.instructions)
			}
		})
	}
}

func TestGoldenAccuracyBands(t *testing.T) {
	// Looser than exact counts, tighter than "works": per-benchmark
	// misp/KI bands for the EV8 predictor under its own vector. These
	// encode the calibrated difficulty ordering; a workload regression
	// that flattens or reorders the benchmarks fails here.
	bands := map[string][2]float64{
		"compress": {1.0, 6.0},
		"gcc":      {5.0, 16.0},
		"go":       {7.0, 18.0},
		"ijpeg":    {0.5, 4.5},
		"li":       {2.0, 11.0},
		"m88ksim":  {0.3, 4.0},
		"perl":     {0.5, 4.5},
		"vortex":   {1.0, 7.0},
	}
	results := map[string]float64{}
	for name, band := range bands {
		prof, err := ev8pred.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ev8pred.RunBenchmark(ev8pred.NewEV8(), prof, 2_000_000,
			ev8pred.Options{Mode: ev8pred.ModeEV8()})
		if err != nil {
			t.Fatal(err)
		}
		results[name] = r.MispKI()
		if r.MispKI() < band[0] || r.MispKI() > band[1] {
			t.Errorf("%s: %.2f misp/KI outside calibrated band [%.1f, %.1f]",
				name, r.MispKI(), band[0], band[1])
		}
	}
	// go must be the hardest benchmark — the invariant every figure of
	// the paper shows.
	for name, v := range results {
		if name != "go" && v > results["go"] {
			t.Errorf("%s (%.2f) harder than go (%.2f)", name, v, results["go"])
		}
	}
}

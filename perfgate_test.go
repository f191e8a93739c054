package ev8pred_test

// In-process performance ratio gates for the two design decisions whose
// value is a speed ratio: the batch kernel against the scalar fused path,
// and the single-pass ensemble against per-cell scheduling. Both sides of
// a ratio run in this process on the same inputs, alternated, and each
// side keeps its fastest of perfRounds samples, so load from neighbours
// on a shared runner slows both sides alike and a slow outlier is
// discarded rather than averaged in. Absolute nanoseconds are never
// gated. `make perf-gate` runs these tests.

import (
	"context"
	"testing"
	"time"

	"ev8pred/internal/frontend"
	"ev8pred/internal/hotbench"
	"ev8pred/internal/predictor"
	"ev8pred/internal/predictor/gshare"
	"ev8pred/internal/sim"
	"ev8pred/internal/workload"
)

// perfRounds is the number of alternated samples per side.
const perfRounds = 9

// skipPerfRatio skips timing gates where timings mean nothing (the race
// detector) or where a quick run was asked for (-short).
func skipPerfRatio(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timings are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
}

// minOfAlternating runs a and b once each to warm them, then times them
// alternately perfRounds times and returns each side's fastest sample.
func minOfAlternating(a, b func()) (ta, tb time.Duration) {
	a()
	b()
	timeOf := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	for i := 0; i < perfRounds; i++ {
		if d := timeOf(a); i == 0 || d < ta {
			ta = d
		}
		if d := timeOf(b); i == 0 || d < tb {
			tb = d
		}
	}
	return ta, tb
}

// TestPerfRatioBatchKernel gates the batch kernel: for every Batch-marked
// roster entry, replaying prerecorded gcc events through
// LookupBatch/UpdateBatch must be no slower than the scalar fused
// Lookup/UpdateWith replay, and for the EV8 — where staging the bank
// sequencer is what the kernel buys — well under it (on a 2-vCPU x86-64
// VM: ev8 0.23–0.30, the others 0.42–0.93).
func TestPerfRatioBatchKernel(t *testing.T) {
	skipPerfRatio(t)
	// A sample replays the event window until the scalar side takes about
	// this long, so a cheap predictor is timed over as long a stretch as
	// an expensive one and timer resolution never decides a sample.
	const sample = 25 * time.Millisecond
	for _, c := range hotbench.Cases() {
		if !c.Batch {
			continue
		}
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name, func(t *testing.T) {
			// One instance serves both sides, so both walk the same tables
			// and the ratio does not depend on where two sets of tables
			// landed in memory.
			p, err := c.New()
			if err != nil {
				t.Fatal(err)
			}
			fp, ok := p.(predictor.FusedPredictor)
			if !ok {
				t.Fatalf("%s does not implement FusedPredictor", c.Name)
			}
			bp, ok := p.(predictor.BatchPredictor)
			if !ok {
				t.Fatalf("%s does not implement BatchPredictor", c.Name)
			}
			run := hotbench.NewBatchRun(events, 0)
			start := time.Now()
			hotbench.ReplayFused(fp, events)
			windows := int(sample/max(time.Since(start), time.Microsecond)) + 1
			scalar, batch := minOfAlternating(
				func() {
					for i := 0; i < windows; i++ {
						hotbench.ReplayFused(fp, events)
					}
				},
				func() {
					for i := 0; i < windows; i++ {
						run.Replay(bp)
					}
				})
			bound := 1.0
			if c.Name == "ev8" {
				bound = 0.6
			}
			branches := float64(windows * len(events))
			ratio := float64(batch) / float64(scalar)
			t.Logf("scalar %.1f ns/branch, batch %.1f ns/branch, batch/scalar %.2f (bound %.2f)",
				float64(scalar.Nanoseconds())/branches, float64(batch.Nanoseconds())/branches, ratio, bound)
			if ratio > bound {
				t.Errorf("%s: batch/scalar time ratio %.2f above bound %.2f", c.Name, ratio, bound)
			}
		})
	}
}

// TestPerfRatioEnsemble gates the single-pass ensemble: an 8-configuration
// gshare history sweep over the benchmark suite, run through sim.RunCells
// with the same cells and one worker under both schedules, must take at
// most 0.6 of the per-cell time. gshare's predictor step is cheap, so the
// generator and front end the ensemble shares dominate a per-cell run
// (0.13–0.28 on a 2-vCPU x86-64 VM).
func TestPerfRatioEnsemble(t *testing.T) {
	skipPerfRatio(t)
	const (
		configs      = 8
		instructions = 100_000
		bound        = 0.6
	)
	opts := sim.Options{Mode: frontend.ModeGhist()}
	var cells []sim.Cell
	for i := 0; i < configs; i++ {
		h := 8 + 2*i
		f := func() (predictor.Predictor, error) { return gshare.New(1<<16, h) }
		for _, prof := range workload.Benchmarks() {
			cells = append(cells, sim.Cell{Factory: f, Profile: prof, Opts: opts})
		}
	}
	var branches int64
	sweep := func(mode sim.EnsembleMode) func() {
		return func() {
			rs, err := sim.RunCells(context.Background(), cells, instructions,
				sim.PoolOptions{Workers: 1, Ensemble: mode})
			if err != nil {
				t.Fatal(err)
			}
			branches = 0
			for _, r := range rs {
				branches += r.Branches
			}
		}
	}
	perCell, ensemble := minOfAlternating(sweep(sim.EnsembleOff), sweep(sim.EnsembleOn))
	ratio := float64(ensemble) / float64(perCell)
	t.Logf("per-cell %.1f ns/branch, ensemble %.1f ns/branch, ensemble/per-cell %.2f (bound %.2f)",
		float64(perCell.Nanoseconds())/float64(branches), float64(ensemble.Nanoseconds())/float64(branches), ratio, bound)
	if ratio > bound {
		t.Errorf("ensemble/per-cell time ratio %.2f above bound %.2f", ratio, bound)
	}
}

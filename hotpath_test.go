package ev8pred_test

// Hot-path performance gates: per-predictor predict+update microbenchmarks
// over prerecorded events (the workload generator and front end are out of
// the measured loop), and a hard zero-allocation gate for the paper's hot
// predictors. perfgate_test.go times the same roster scalar vs batch.

import (
	"testing"

	"ev8pred"
	"ev8pred/internal/hotbench"
	"ev8pred/internal/predictor"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

const hotEvents = 4096

// TestHotPathZeroAllocs asserts that a steady-state branch allocates
// nothing — on the fused Lookup/UpdateWith path and on the plain
// Predict/Update fallback — for every gated predictor (EV8 and the
// 2Bc-gskew presets). A single heap escape on this path costs more than
// the prediction itself; this is the acceptance gate that keeps it out.
func TestHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	for _, c := range hotbench.Cases() {
		if !c.Gated {
			continue
		}
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name, func(t *testing.T) {
			p, err := c.New()
			if err != nil {
				t.Fatal(err)
			}
			fp, ok := p.(predictor.FusedPredictor)
			if !ok {
				t.Fatalf("%s: gated predictor does not implement FusedPredictor", c.Name)
			}
			// Warm once so any lazy one-time work is done before counting.
			hotbench.ReplayFused(fp, events)
			if allocs := testing.AllocsPerRun(3, func() {
				hotbench.ReplayFused(fp, events)
			}); allocs != 0 {
				t.Errorf("%s fused path: %.1f allocs per %d branches, want 0",
					c.Name, allocs, len(events))
			}
			if allocs := testing.AllocsPerRun(3, func() {
				hotbench.ReplayUnfused(p, events)
			}); allocs != 0 {
				t.Errorf("%s unfused path: %.1f allocs per %d branches, want 0",
					c.Name, allocs, len(events))
			}
		})
	}
}

// TestDelayedUpdateZeroAllocsSteadyState gates the commit-delay queue:
// with UpdateDelay > 0 the pending updates must live in the fixed ring
// sim.Run allocates once, not in a slice that grows as queue[1:] pops
// retain the backing array. A full sim.Run carries constant setup cost
// (predictor tables, tracker, the ring itself), so the gate compares
// whole-run allocation counts at two stream lengths: equal totals mean
// the marginal branches allocated nothing.
func TestDelayedUpdateZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	prof, err := ev8pred.BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ev8pred.NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	branches := trace.Collect(g, 4096)
	if len(branches) < 4096 {
		t.Fatalf("collected only %d branches", len(branches))
	}

	runAllocs := func(recs []ev8pred.Branch) float64 {
		return testing.AllocsPerRun(5, func() {
			p := ev8pred.NewEV8()
			_, err := ev8pred.Run(p, trace.NewSlice(recs), ev8pred.Options{
				Mode:        ev8pred.ModeEV8(),
				UpdateDelay: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	short := runAllocs(branches[:1024])
	long := runAllocs(branches)
	if extra := long - short; extra > 0 {
		t.Errorf("delayed-update path: %.1f extra allocs for %d extra branches, want 0 (short=%.1f long=%.1f)",
			extra, len(branches)-1024, short, long)
	}
}

// TestBatchKernelZeroAllocs gates the kernels themselves: a staged-replay
// pass through LookupBatch/UpdateBatch must not allocate for any
// Batch-marked roster entry.
func TestBatchKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	for _, c := range hotbench.Cases() {
		if !c.Batch {
			continue
		}
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name, func(t *testing.T) {
			p, err := c.New()
			if err != nil {
				t.Fatal(err)
			}
			bp, ok := p.(predictor.BatchPredictor)
			if !ok {
				t.Fatalf("%s: Batch-marked predictor does not implement BatchPredictor", c.Name)
			}
			run := hotbench.NewBatchRun(events, 0)
			run.Replay(bp) // warm once before counting
			if allocs := testing.AllocsPerRun(3, func() {
				run.Replay(bp)
			}); allocs != 0 {
				t.Errorf("%s batch kernels: %.1f allocs per %d branches, want 0",
					c.Name, allocs, run.Len())
			}
		})
	}
}

// drainGenerator resets g and reads its whole stream through NextBatch,
// returning the record count.
func drainGenerator(g *workload.Generator, buf []trace.Branch) int {
	g.Reset()
	total := 0
	for {
		n, err := g.NextBatch(buf)
		total += n
		if err != nil {
			return total
		}
	}
}

// TestGeneratorNextBatchZeroAllocs gates the workload generator, the
// first layer of every batch run: once a warm pass has grown the
// interpreter's frame stack to its high-water mark, Reset plus a full
// drain through NextBatch must not allocate, for every built-in profile.
func TestGeneratorNextBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	buf := make([]trace.Branch, 1024)
	for _, prof := range workload.Benchmarks() {
		g := workload.MustNew(prof, 200_000)
		if drainGenerator(g, buf) == 0 {
			t.Fatalf("%s: empty stream", prof.Name)
		}
		if allocs := testing.AllocsPerRun(3, func() {
			drainGenerator(g, buf)
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per Reset and drain, want 0", prof.Name, allocs)
		}
	}
}

// BenchmarkGeneratorNextBatch measures the workload generator alone:
// Reset plus a full drain of every built-in profile through NextBatch in
// 1024-record chunks, as sim.Run pulls them. ns/op is per record.
func BenchmarkGeneratorNextBatch(b *testing.B) {
	var gens []*workload.Generator
	for _, prof := range workload.Benchmarks() {
		gens = append(gens, workload.MustNew(prof, 1_000_000))
	}
	buf := make([]trace.Branch, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		for _, g := range gens {
			done += drainGenerator(g, buf)
		}
	}
}

// BenchmarkPredictUpdate measures raw per-branch predictor cost: one
// sub-benchmark per roster entry, replaying prerecorded gcc events through
// the same code path sim.Run uses (fused when available). ns/op is per
// branch; docs/PERFORMANCE.md, "History", quotes earlier numbers.
func BenchmarkPredictUpdate(b *testing.B) {
	for _, c := range hotbench.Cases() {
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			p, err := c.New()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(events) {
				n := len(events)
				if rem := b.N - done; rem < n {
					n = rem
				}
				hotbench.Replay(p, events[:n])
			}
		})
	}
}

// BenchmarkPredictUpdateBatch is the batch-kernel twin: the same events
// pre-staged into SoA chunks, replayed through LookupBatch/UpdateBatch.
// ns/op is per branch; the ratio to BenchmarkPredictUpdate's matching
// entry is the kernel speedup TestPerfRatioBatchKernel gates.
func BenchmarkPredictUpdateBatch(b *testing.B) {
	for _, c := range hotbench.Cases() {
		if !c.Batch {
			continue
		}
		events, err := hotbench.Collect(c.Mode, "gcc", hotEvents)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			p, err := c.New()
			if err != nil {
				b.Fatal(err)
			}
			bp, ok := p.(predictor.BatchPredictor)
			if !ok {
				b.Fatalf("%s does not implement BatchPredictor", c.Name)
			}
			run := hotbench.NewBatchRun(events, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += run.Len() {
				run.Replay(bp)
			}
		})
	}
}

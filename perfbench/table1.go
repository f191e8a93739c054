package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/sim"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// table1-ev8: the single stream. One job is sim.Run of the shipped
// Table 1 EV8 predictor (ev8.DefaultConfig, frontend.ModeEV8, batch
// auto, immediate update) over one benchmark; a round runs the eight
// benchmarks in sequence on one goroutine, with no cache.

const (
	table1Instructions      = 1_000_000 // per program per job
	table1Variants          = 8         // programs per benchmark profile
	table1QuickInstructions = 20_000
	setupReps               = 5    // set-ups per run; setup_s is their median
	replayChunk             = 1024 // records per staged chunk, as in sim.Run
)

func table1Opts() sim.Options { return sim.Options{Mode: frontend.ModeEV8()} }

// table1Env is the set-up of table1-ev8: one generator and one EV8
// predictor per benchmark, reset (not rebuilt) before every job.
type table1Env struct {
	profs []workload.Profile
	gens  []*workload.Generator
	preds []*ev8.Predictor
}

// newTable1Env builds the programs and allocates the predictors, and
// reports how long the program builds alone took on the CPU clock.
func newTable1Env(profs []workload.Profile, budget int64) (*table1Env, time.Duration, error) {
	e := &table1Env{profs: profs}
	t0 := processCPU()
	for _, prof := range profs {
		g, err := workload.New(prof, budget)
		if err != nil {
			return nil, 0, err
		}
		e.gens = append(e.gens, g)
	}
	build := processCPU() - t0
	for range profs {
		p, err := ev8.New(ev8.DefaultConfig())
		if err != nil {
			return nil, 0, err
		}
		e.preds = append(e.preds, p)
	}
	return e, build, nil
}

// job runs benchmark i from the start of its stream through src (the
// generator itself, or a wrapper around it).
func (e *table1Env) job(i int, src trace.Source) (sim.Result, error) {
	e.gens[i].Reset()
	e.preds[i].Reset()
	r, err := sim.Run(e.preds[i], src, table1Opts())
	r.Workload = e.profs[i].Name
	if err != nil {
		return r, fmt.Errorf("%s: %w", e.profs[i].Name, err)
	}
	return r, nil
}

// round runs every benchmark once, timing each job on the CPU clock.
func (e *table1Env) round() (round, []sim.Result, error) {
	var r round
	out := make([]sim.Result, len(e.gens))
	sw := startWatch()
	for i := range e.gens {
		j0 := processCPU()
		res, err := e.job(i, e.gens[i])
		if err != nil {
			return r, nil, err
		}
		r.jobs = append(r.jobs, processCPU()-j0)
		out[i] = res
		r.branches += res.Branches
		r.instructions += res.Instructions
		r.mispredicts += res.Mispredicts
	}
	sw.stop(&r)
	return r, out, nil
}

// table1Reference computes the expected results on the scalar fused path
// (Batch: BatchOff) with fresh programs and predictors.
func table1Reference(profs []workload.Profile, budget int64) ([]sim.Result, error) {
	out := make([]sim.Result, len(profs))
	for i, prof := range profs {
		g, err := workload.New(prof, budget)
		if err != nil {
			return nil, err
		}
		opts := table1Opts()
		opts.Batch = sim.BatchOff
		r, err := sim.Run(ev8.MustNew(ev8.DefaultConfig()), g, opts)
		if err != nil {
			return nil, fmt.Errorf("%s (scalar reference): %w", prof.Name, err)
		}
		r.Workload = prof.Name
		out[i] = r
	}
	return out, nil
}

func runTable1(cfg runConfig) (summary, metrics, error) {
	budget := int64(table1Instructions)
	if cfg.quick {
		budget = table1QuickInstructions
	}
	profs := seededProfiles(cfg.seed, table1Variants)
	s := summary{}
	var env *table1Env
	var builds []float64
	for i := 0; i < setupReps; i++ {
		env = nil
		runtime.GC() // untimed: start every repetition from a collected heap
		t0 := processCPU()
		e, build, err := newTable1Env(profs, budget)
		if err != nil {
			return s, nil, err
		}
		s.setup = append(s.setup, processCPU()-t0)
		builds = append(builds, float64(build)/float64(time.Millisecond))
		env = e
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2 // the other half is the traced run
	}
	var got [][]sim.Result
	rounds, err := timeRounds(window, 3, func() (round, error) {
		r, res, err := env.round()
		got = append(got, res)
		return r, err
	})
	if err != nil {
		return s, nil, err
	}
	s.rounds, s.peakRSSMB = rounds, peakRSSMB()

	ref, err := table1Reference(profs, budget)
	if err != nil {
		return s, nil, err
	}
	for _, res := range got {
		s.check(res, ref)
	}
	if !cfg.trace {
		return s, nil, nil
	}

	tr := newTracer()
	layers, tracedRun, err := env.traced(cfg.seconds-window, tr, ref, &s)
	if err != nil {
		return s, nil, err
	}
	layers.set("workload.build_ms", "ms", median(builds))
	layers.set("sim.ns_per_cell_branch", "ns", 1e9*median(cpusOf(s.rounds))/float64(s.rounds[0].branches))
	// The traced run is timed by wall-clock spans; so is its baseline.
	layers.set("trace.overhead_frac", "ratio", tracedRun/median(wallsOf(s.rounds))-1)
	allocs, err := env.allocsPerBranch()
	if err != nil {
		return s, nil, err
	}
	layers.set("sim.allocs_per_branch", "allocs", allocs)
	return s, layers, tr.write(spanPath(cfg, "table1-ev8"))
}

// check counts one round's jobs against the reference.
func (s *summary) check(got, ref []sim.Result) {
	for i := range ref {
		s.attempted++
		if got[i] != ref[i] {
			s.failed++
		}
	}
}

// allocsPerBranch runs one untimed, untraced round and returns the heap
// allocations it made per conditional branch.
func (e *table1Env) allocsPerBranch() (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, _, err := e.round()
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, err
	}
	return float64(after.Mallocs-before.Mallocs) / float64(r.branches), nil
}

// timedSource hands the generator to sim.Run in situ and takes a span
// around every NextBatch call. Each chunk the generator fills is also
// handed to a replayer while it is still in cache, so the tracker, index
// and resolve passes are timed over exactly the records sim.Run is about
// to consume; the replay spans are children of the sim.Run span, so its
// self time excludes them. (sim.Run reads a batch source through
// NextBatch only; Next is there to satisfy trace.Source.)
type timedSource struct {
	gen    *workload.Generator
	tr     *tracer
	rp     *replayer
	parent int
	req    int
	lt     *layerTimes
}

func (s *timedSource) Next() (trace.Branch, bool) { return s.gen.Next() }

func (s *timedSource) NextBatch(dst []trace.Branch) (int, error) {
	t0 := time.Now()
	n, err := s.gen.NextBatch(dst)
	t1 := time.Now()
	s.tr.add("workload.NextBatch", s.parent, s.req, t0, t1)
	s.lt.gen += t1.Sub(t0)
	s.lt.records += int64(n)
	s.rp.chunk(dst[:n], s.tr, s.parent, s.req, s.lt)
	return n, err
}

// layerTimes accumulates one traced round.
type layerTimes struct {
	run, gen, track, index, resolve  time.Duration
	records, branches, blocks, conds int64
}

// traced makes traced rounds for about window, each job in situ through
// a timedSource. It checks the in-situ results against ref and the
// replayed mispredictions against the in-situ ones. Besides the layer
// metrics it returns the median in-situ sim.Run time of a round, replays
// excluded, in seconds, for the tracing overhead.
func (e *table1Env) traced(window time.Duration, tr *tracer, ref []sim.Result, s *summary) (metrics, float64, error) {
	var rounds []layerTimes
	var spent time.Duration
	req := 0
	for len(rounds) < 1 || spent < window {
		var lt layerTimes
		t0 := time.Now()
		root := tr.add("round", -1, -1, t0, t0)
		for i := range e.gens {
			req++
			rp, err := newReplayer()
			if err != nil {
				return nil, 0, err
			}
			ts := &timedSource{gen: e.gens[i], tr: tr, rp: rp, req: req, lt: &lt}
			j0 := time.Now()
			ts.parent = tr.add("sim.Run", root, req, j0, j0)
			res, err := e.job(i, ts)
			tr.setEnd(ts.parent, time.Now())
			if err != nil {
				return nil, 0, err
			}
			// The run's own time: its span less the replays under it.
			lt.run += tr.selfTime(ts.parent) + tr.childTime(ts.parent, "workload.NextBatch")
			lt.branches += res.Branches
			lt.blocks += rp.tk.Blocks()
			lt.conds += rp.tk.CondBranches()
			s.attempted += 2
			if res != ref[i] {
				s.failed++
			}
			if rp.misp != res.Mispredicts {
				s.failed++
			}
		}
		tr.setEnd(root, time.Now())
		spent += time.Since(t0)
		rounds = append(rounds, lt)
	}
	per := func(f func(lt layerTimes) float64) float64 {
		var xs []float64
		for _, lt := range rounds {
			xs = append(xs, f(lt))
		}
		return median(xs)
	}
	ns := func(d time.Duration, n int64) float64 { return float64(d) / float64(n) }
	m := metrics{}
	m.set("workload.gen_ns_per_record", "ns", per(func(lt layerTimes) float64 { return ns(lt.gen, lt.records) }))
	m.set("workload.records", "count", float64(rounds[0].records))
	m.set("frontend.track_ns_per_record", "ns", per(func(lt layerTimes) float64 { return ns(lt.track, lt.records) }))
	m.set("frontend.blocks", "count", float64(rounds[0].blocks))
	m.set("frontend.cond_branches", "count", float64(rounds[0].conds))
	m.set("ev8.index_ns_per_branch", "ns", per(func(lt layerTimes) float64 { return ns(lt.index, lt.branches) }))
	m.set("ev8.resolve_ns_per_branch", "ns", per(func(lt layerTimes) float64 { return ns(lt.resolve, lt.branches) }))
	m.set("sim.run_ns_per_branch", "ns", per(func(lt layerTimes) float64 { return ns(lt.run, lt.branches) }))
	m.set("sim.engine_self_ns_per_branch", "ns", per(func(lt layerTimes) float64 {
		return ns(lt.run-lt.gen-lt.track-lt.index-lt.resolve, lt.branches)
	}))
	m.set("sim.cells", "count", float64(len(e.gens)))
	m.set("sim.cell_branches", "count", float64(rounds[0].branches))
	m.set("sim.cell_branches_per_record", "ratio", float64(rounds[0].branches)/float64(rounds[0].records))
	return m, per(func(lt layerTimes) float64 { return lt.run.Seconds() }), nil
}

// replayer re-runs each chunk of the stream through its own ModeEV8
// tracker and EV8 predictor in the chunked schedule sim.Run's batch path
// uses, timing three stages: the front-end walk, the index pass
// (LookupBankedBatch) and the resolve pass (UpdateBatch). Its
// mispredictions must equal the in-situ run's.
//
// The walk is Tracker.Process per record with the tracker's block
// callback wired to the predictor's §6.2 sequencer (ObserveBlock) and
// the per-branch StageBank read taken right after the branch's record,
// exactly as sim.Run's walk interleaves them. Those two EV8 calls are
// too short to clock one by one, and moving them out of the walk
// changes the cost of what is measured, so the walk's time — reported
// as frontend.track_ns_per_record — includes them.
type replayer struct {
	p      *ev8.Predictor
	tk     *frontend.Tracker
	infos  []history.Info
	banks  []uint8
	snaps  []predictor.Snapshot
	taken  []uint64
	finals []uint64
	misp   int64
}

func newReplayer() (*replayer, error) {
	p, err := ev8.New(ev8.DefaultConfig())
	if err != nil {
		return nil, err
	}
	r := &replayer{
		p:      p,
		tk:     frontend.NewTracker(frontend.ModeEV8()),
		infos:  make([]history.Info, replayChunk),
		banks:  make([]uint8, replayChunk),
		snaps:  make([]predictor.Snapshot, replayChunk),
		taken:  make([]uint64, predictor.BatchWords(replayChunk)),
		finals: make([]uint64, predictor.BatchWords(replayChunk)),
	}
	r.tk.OnBlock(p.ObserveBlock)
	return r, nil
}

// chunk replays up to replayChunk records.
func (r *replayer) chunk(recs []trace.Branch, tr *tracer, parent, req int, lt *layerTimes) {
	t0 := time.Now()
	m := 0
	for _, b := range recs {
		info, isCond := r.tk.Process(b)
		if !isCond {
			continue
		}
		if m&63 == 0 {
			r.taken[m>>6] = 0
		}
		if b.Taken {
			r.taken[m>>6] |= 1 << uint(m&63)
		}
		r.banks[m] = r.p.StageBank(info.BlockPC)
		r.infos[m] = info
		m++
	}
	t1 := time.Now()
	if m > 0 {
		r.p.LookupBankedBatch(r.infos[:m], r.banks[:m], r.snaps[:m])
	}
	t2 := time.Now()
	if m > 0 {
		r.p.UpdateBatch(r.snaps[:m], r.taken, r.finals)
	}
	t3 := time.Now()
	for w := 0; w < predictor.BatchWords(m); w++ {
		r.misp += int64(bits.OnesCount64(r.finals[w] ^ r.taken[w]))
	}
	tr.add("frontend.Tracker.Process", parent, req, t0, t1)
	tr.add("ev8.LookupBankedBatch", parent, req, t1, t2)
	tr.add("ev8.UpdateBatch", parent, req, t2, t3)
	lt.track += t1.Sub(t0)
	lt.index += t2.Sub(t1)
	lt.resolve += t3.Sub(t2)
}

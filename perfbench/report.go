package main

import (
	"fmt"
	"io"
	"time"

	"ev8pred/internal/experiments"
	"ev8pred/internal/sim"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// paper-report: the experiments layer. One job is one generator of
// experiments.All() run with its Config; a round runs all of them in
// paper order, as `make report` does, with two pool workers and no cache.
// Jobs run one at a time, so a job's CPU time is the CPU time of both
// pool workers on it (sim.parallelism reports how much of it
// overlapped).

const (
	reportInstructions      = 100_000 // per program, for every generator
	reportVariants          = 4       // programs per benchmark profile
	reportQuickInstructions = 10_000
	reportWorkers           = 2
	// reportSetupReps is higher than setupReps because the set-up takes
	// microseconds; a median of many repetitions keeps it steady.
	reportSetupReps = 99
)

// cellCounts totals the pool cells one experiment call completed.
type cellCounts struct {
	cells                              int
	branches, instructions, mispredict int64
}

func (c *cellCounts) observe(e sim.CellDone) {
	c.cells++
	c.branches += e.Branches
	c.instructions += e.Instructions
	c.mispredict += e.Mispredicts
}

// reportRound runs every generator once with cfg. It returns the round,
// each generator's rendered table and its pool cell counts. When tr is
// non-nil each call gets a (wall-clock) span under a round span.
func reportRound(cfg experiments.Config, tr *tracer) (round, []string, []cellCounts, error) {
	var r round
	all := experiments.All()
	tables := make([]string, len(all))
	counts := make([]cellCounts, len(all))
	sw := startWatch()
	root := -1
	if tr != nil {
		root = tr.add("round", -1, -1, sw.wall, sw.wall)
	}
	for i, e := range all {
		c := &counts[i]
		cfg.Progress = c.observe
		j0, c0 := time.Now(), processCPU()
		tbl, err := e.Run(cfg)
		j1, c1 := time.Now(), processCPU()
		if err != nil {
			return r, nil, nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		if tr != nil {
			tr.add("experiments."+e.ID, root, i, j0, j1)
		}
		r.jobs = append(r.jobs, c1-c0)
		tables[i] = tbl.String()
		r.branches += c.branches
		r.instructions += c.instructions
		r.mispredicts += c.mispredict
	}
	sw.stop(&r)
	if tr != nil {
		tr.setEnd(root, sw.wall.Add(r.wall))
	}
	return r, tables, counts, nil
}

func runPaperReport(cfg runConfig) (summary, metrics, error) {
	budget := int64(reportInstructions)
	if cfg.quick {
		budget = reportQuickInstructions
	}
	s := summary{}
	var profs []workload.Profile
	var ecfg experiments.Config
	for i := 0; i < reportSetupReps; i++ {
		t0 := processCPU()
		profs = seededProfiles(cfg.seed, reportVariants)
		ecfg = experiments.Config{Instructions: budget, Benchmarks: profs, Workers: reportWorkers}
		s.setup = append(s.setup, processCPU()-t0)
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	var got [][]string
	rounds, err := timeRounds(window, 3, func() (round, error) {
		r, tables, _, err := reportRound(ecfg, nil)
		got = append(got, tables)
		return r, err
	})
	if err != nil {
		return s, nil, err
	}
	s.rounds, s.peakRSSMB = rounds, peakRSSMB()

	// The reference renders every table on the per-cell schedule.
	refCfg := ecfg
	refCfg.Ensemble = sim.EnsembleOff
	_, ref, _, err := reportRound(refCfg, nil)
	if err != nil {
		return s, nil, fmt.Errorf("per-cell reference: %w", err)
	}
	for _, tables := range got {
		s.checkTables(tables, ref)
	}
	if !cfg.trace {
		return s, nil, nil
	}

	tr := newTracer()
	var traced []round
	var counts []cellCounts
	var spent time.Duration
	for len(traced) < 1 || spent < cfg.seconds-window {
		r, tables, cs, err := reportRound(ecfg, tr)
		if err != nil {
			return s, nil, err
		}
		s.checkTables(tables, ref)
		traced = append(traced, r)
		counts = cs
		spent += r.wall
	}
	m := metrics{}
	var cellTime []float64 // CPU time of the generators that ran pool cells
	for _, r := range traced {
		var d time.Duration
		for i, j := range r.jobs {
			if counts[i].cells > 0 {
				d += j
			}
		}
		cellTime = append(cellTime, float64(d))
	}
	for i, id := range experimentIDs {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.jobs[i].Seconds())
		}
		m.set("experiments."+id+"_s", "s", median(xs))
	}
	var cells int
	for _, c := range counts {
		cells += c.cells
	}
	m.set("sim.cells", "count", float64(cells))
	m.set("sim.cell_branches", "count", float64(traced[0].branches))
	m.set("sim.ns_per_cell_branch", "ns", median(cellTime)/float64(traced[0].branches))
	m.set("trace.overhead_frac", "ratio", median(cpusOf(traced))/median(cpusOf(s.rounds))-1)
	if err := probeGenerators(profs, budget, m); err != nil {
		return s, nil, err
	}
	m.set("sim.cell_branches_per_record", "ratio", float64(traced[0].branches)/m["workload.records"].Value)
	return s, m, tr.write(spanPath(cfg, "paper-report"))
}

// checkTables counts one round's tables against the reference.
func (s *summary) checkTables(tables, ref []string) {
	for i := range ref {
		s.attempted++
		if tables[i] != ref[i] {
			s.failed++
		}
	}
}

// wallsOf returns the rounds' wall times in seconds.
func wallsOf(rs []round) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall.Seconds()
	}
	return out
}

// cpusOf returns the rounds' CPU times in seconds.
func cpusOf(rs []round) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.cpu.Seconds()
	}
	return out
}

// probeGenerators measures the generator layer on a workload whose
// streams are generated inside the engine, out of the benchmark's
// reach: it builds and drains each distinct stream once, through the
// same NextBatch calls the engine makes, and records the build time, the
// time per record (both on the CPU clock: the probe is serial) and the
// records in one pass over the distinct streams.
func probeGenerators(profs []workload.Profile, budget int64, m metrics) error {
	buf := make([]trace.Branch, replayChunk)
	var build, gen time.Duration
	var records int64
	for _, prof := range profs {
		t0 := processCPU()
		g, err := workload.New(prof, budget)
		if err != nil {
			return err
		}
		t1 := processCPU()
		build += t1 - t0
		for {
			n, err := g.NextBatch(buf)
			records += int64(n)
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("%s: %w", prof.Name, err)
			}
		}
		gen += processCPU() - t1
	}
	m.set("workload.build_ms", "ms", float64(build)/float64(time.Millisecond))
	m.set("workload.gen_ns_per_record", "ns", float64(gen)/float64(records))
	m.set("workload.records", "count", float64(records))
	return nil
}

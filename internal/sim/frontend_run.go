package sim

import (
	"fmt"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// FrontEndConfig sizes the non-conditional PC-generation structures for a
// full front-end run.
type FrontEndConfig struct {
	// JumpEntries sizes the jump predictor (default 4096).
	JumpEntries int
	// RASDepth sizes the return-address stack (default 32).
	RASDepth int
	// LineEntries sizes the line predictor (default 8192).
	LineEntries int
}

// withDefaults fills zero fields.
func (c FrontEndConfig) withDefaults() FrontEndConfig {
	if c.JumpEntries == 0 {
		c.JumpEntries = 4096
	}
	if c.RASDepth == 0 {
		c.RASDepth = 32
	}
	if c.LineEntries == 0 {
		c.LineEntries = 8192
	}
	return c
}

// FrontEndResult extends Result with whole-front-end statistics.
type FrontEndResult struct {
	Result
	// PCGen holds per-kind redirect counts.
	PCGen frontend.PCGenStats
	// Blocks is the number of fetch blocks formed.
	Blocks int64
	// LineMisses counts next-block-address mispredictions by the line
	// predictor.
	LineMisses int64
	// RASAccuracy and JumpAccuracy are the auxiliary predictors' hit
	// rates; LineAccuracy is the line predictor's.
	RASAccuracy  float64
	JumpAccuracy float64
	LineAccuracy float64
}

// RunFrontEnd simulates the whole §2 PC-address generator: the
// conditional predictor p (nil = oracle, for upper-bound studies), the
// jump predictor, the return-address stack, and the line predictor, over
// a single-threaded source. It honours opts.Mode, MaxBranches and
// LenientFlow, and refuses the options it has no path for (Warmup,
// UpdateDelay, Collect, BatchOn) and a record from a second thread with
// an error instead of ignoring them. Like Run, it returns an error when
// the source fails mid-stream rather than reporting a short-but-successful
// result, and checks the Result with Validate.
func RunFrontEnd(p predictor.Predictor, src trace.Source, opts Options, fecfg FrontEndConfig) (FrontEndResult, error) {
	fecfg = fecfg.withDefaults()
	var res FrontEndResult
	if p != nil {
		res.Predictor = p.Name()
		res.SizeBits = p.SizeBits()
	} else {
		res.Predictor = "oracle"
	}
	switch {
	case opts.Warmup != 0:
		return res, fmt.Errorf("sim: RunFrontEnd does not support Options.Warmup (%d)", opts.Warmup)
	case opts.UpdateDelay != 0:
		return res, fmt.Errorf("sim: RunFrontEnd does not support Options.UpdateDelay (%d)", opts.UpdateDelay)
	case opts.Collect:
		return res, fmt.Errorf("sim: RunFrontEnd does not support Options.Collect")
	case opts.Batch == BatchOn:
		return res, fmt.Errorf("%w: RunFrontEnd has no batch path", ErrBatchIneligible)
	}
	tr := frontend.NewTracker(opts.Mode)
	tr.SetLenient(opts.LenientFlow)
	pg := frontend.MustNewPCGen(fecfg.JumpEntries, fecfg.RASDepth)
	lp := frontend.MustNewLinePredictor(fecfg.LineEntries)
	if obs, ok := p.(BlockObserver); ok {
		tr.OnBlock(func(b frontend.Block) {
			obs.ObserveBlock(b)
			lp.Observe(b)
		})
	} else {
		tr.OnBlock(lp.Observe)
	}

	// info is hoisted out of the loop so its address, passed through
	// interface calls, does not escape once per branch (as in Run).
	var info history.Info
	var records int64
	thread := 0
	for ; ; records++ {
		if opts.MaxBranches > 0 && res.Branches >= opts.MaxBranches {
			break
		}
		b, ok := src.Next()
		if !ok {
			break
		}
		if records == 0 {
			thread = b.Thread
			tr.SetThread(thread)
		} else if b.Thread != thread {
			return res, fmt.Errorf("sim: RunFrontEnd is single-threaded: record %d is on thread %d, the stream began on thread %d",
				records, b.Thread, thread)
		}
		isCond := tr.ProcessInto(&b, &info)
		res.Instructions += int64(b.Gap) + 1
		if isCond {
			pred := b.Taken // oracle
			if p != nil {
				pred = p.Predict(&info)
			}
			if pred != b.Taken {
				res.Mispredicts++
			}
			res.Branches++
			pg.Process(b, pred)
			if p != nil {
				p.Update(&info, b.Taken)
			}
		} else {
			pg.Process(b, false)
		}
	}
	res.PCGen = pg.Stats()
	res.Blocks = tr.Blocks()
	res.RASAccuracy = pg.RASAccuracy()
	res.JumpAccuracy = pg.JumpAccuracy()
	res.LineAccuracy = lp.Accuracy()
	res.LineMisses = lp.Misses()
	if err := trace.SourceErr(src); err != nil {
		return res, fmt.Errorf("sim: source failed after %d branches: %w", res.Branches, err)
	}
	return res, res.Validate()
}

// RunFrontEndBenchmark is RunFrontEnd over a named synthetic benchmark.
func RunFrontEndBenchmark(p predictor.Predictor, prof workload.Profile, instrBudget int64, opts Options, fecfg FrontEndConfig) (FrontEndResult, error) {
	g, err := workload.New(prof, instrBudget)
	if err != nil {
		return FrontEndResult{}, err
	}
	r, err := RunFrontEnd(p, g, opts, fecfg)
	r.Workload = prof.Name
	return r, err
}

package sim

import (
	"errors"
	"strings"
	"testing"

	"ev8pred/internal/ev8"
	"ev8pred/internal/frontend"
	"ev8pred/internal/predictor/bimodal"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

func TestRunFrontEndOracle(t *testing.T) {
	prof, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunFrontEndBenchmark(nil, prof, 300_000,
		Options{Mode: frontend.ModeEV8()}, FrontEndConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Predictor != "oracle" {
		t.Errorf("predictor name = %q", r.Predictor)
	}
	if r.Mispredicts != 0 || r.PCGen.CondMispredicts != 0 {
		t.Errorf("oracle mispredicted: %d / %d", r.Mispredicts, r.PCGen.CondMispredicts)
	}
	if r.Blocks == 0 || r.Branches == 0 {
		t.Fatal("no activity recorded")
	}
	if r.RASAccuracy < 0.99 {
		t.Errorf("RAS accuracy %.3f", r.RASAccuracy)
	}
	if r.JumpAccuracy <= 0.4 || r.JumpAccuracy >= 1 {
		t.Errorf("jump accuracy %.3f outside the indirect-dispatch band", r.JumpAccuracy)
	}
	if r.LineAccuracy <= 0.5 {
		t.Errorf("line accuracy %.3f implausibly low", r.LineAccuracy)
	}
	if r.LineMisses == 0 {
		t.Error("line predictor reported zero misses (suspicious)")
	}
}

func TestRunFrontEndRealPredictorConsistency(t *testing.T) {
	// The front-end run's conditional mispredict count must match a
	// plain Run of the same predictor configuration over the same
	// workload and mode.
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Mode: frontend.ModeEV8()}
	fe, err := RunFrontEndBenchmark(bimodal.MustNew(8192), prof, 200_000, opts, FrontEndConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunBenchmark(bimodal.MustNew(8192), prof, 200_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Mispredicts != plain.Mispredicts || fe.Branches != plain.Branches {
		t.Errorf("front-end run (%d/%d) disagrees with plain run (%d/%d)",
			fe.Mispredicts, fe.Branches, plain.Mispredicts, plain.Branches)
	}
	if fe.PCGen.CondMispredicts != fe.Mispredicts {
		t.Errorf("PCGen cond mispredicts %d != result %d", fe.PCGen.CondMispredicts, fe.Mispredicts)
	}
}

func TestRunFrontEndWiresEV8BlockObserver(t *testing.T) {
	prof, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p := ev8.MustNew(ev8.DefaultConfig())
	r, err := RunFrontEndBenchmark(p, prof, 100_000, Options{Mode: frontend.ModeEV8()}, FrontEndConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p.BlocksObserved() != r.Blocks {
		t.Errorf("EV8 observed %d blocks, tracker formed %d", p.BlocksObserved(), r.Blocks)
	}
	if p.BankConflicts() != 0 {
		t.Errorf("%d bank conflicts", p.BankConflicts())
	}
}

// TestRunFrontEndOptions pins which Options RunFrontEnd honours and which
// it refuses by name, and that a second thread is an error rather than a
// panic inside the tracker.
func TestRunFrontEndOptions(t *testing.T) {
	steps := make([]recStep, 200)
	for i := range steps {
		steps[i] = recStep{gap: 3, kind: trace.Cond, taken: i%3 == 0}
	}
	recs := mkRecords(steps)
	// Two copies back to back: the second restarts at the first's PC, a
	// flow discontinuity only LenientFlow absorbs.
	discontinuous := append(append([]trace.Branch{}, recs...), recs...)
	secondThread := append([]trace.Branch{}, recs...)
	secondThread[len(secondThread)-1].Thread = 1
	for _, tc := range []struct {
		name    string
		recs    []trace.Branch
		opts    Options
		want    string // substring of the error; "" = success
		wantErr error
	}{
		{name: "plain", recs: recs},
		{name: "lenient", recs: discontinuous, opts: Options{LenientFlow: true}},
		{name: "warmup", recs: recs, opts: Options{Warmup: 10}, want: "Options.Warmup"},
		{name: "update delay", recs: recs, opts: Options{UpdateDelay: 4}, want: "Options.UpdateDelay"},
		{name: "collect", recs: recs, opts: Options{Collect: true}, want: "Options.Collect"},
		{name: "batch on", recs: recs, opts: Options{Batch: BatchOn}, wantErr: ErrBatchIneligible},
		{name: "second thread", recs: secondThread, want: "single-threaded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := RunFrontEnd(bimodal.MustNew(1024), trace.NewSlice(tc.recs), tc.opts, FrontEndConfig{})
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Errorf("err = %v, want %v", err, tc.wantErr)
				}
			case tc.want != "":
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("err = %v, want one naming %q", err, tc.want)
				}
			case err != nil:
				t.Errorf("unexpected error: %v", err)
			case r.Branches != int64(len(tc.recs)):
				t.Errorf("simulated %d branches, want %d", r.Branches, len(tc.recs))
			}
		})
	}
}

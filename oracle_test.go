package ev8pred_test

// Analytic oracles: streams of a single static branch whose misprediction
// rate follows from the predictor's definition alone, so the simulator's
// answer is checked against arithmetic rather than against itself.

import (
	"math"
	"testing"

	"ev8pred"
	"ev8pred/internal/rng"
	"ev8pred/internal/trace"
)

// singleBranchStream lays out outcomes as one static conditional branch
// closing a four-instruction loop: taken returns to the loop head; not
// taken falls through to an unconditional jump back to it. The jump keeps
// the flow consistent and, being unconditional, never enters the global
// history, so the predictor sees exactly the outcome sequence.
func singleBranchStream(outcomes []bool) *trace.Slice {
	const head, branch = 0x1000, 0x100c
	recs := make([]trace.Branch, 0, 2*len(outcomes))
	for _, taken := range outcomes {
		recs = append(recs, trace.Branch{PC: branch, Target: head, Taken: taken, Gap: (branch - head) / trace.InstrBytes})
		if !taken {
			recs = append(recs, trace.Branch{PC: branch + trace.InstrBytes, Target: head, Taken: true, Kind: trace.Jump})
		}
	}
	return trace.NewSlice(recs)
}

// TestOracleBimodalBernoulli feeds a bimodal predictor a branch taken
// i.i.d. with probability q. Its 2-bit counter is a birth-death chain
// (up on taken, down on not taken, saturating), whose stationary
// distribution is π_k ∝ (q/(1−q))^k over states 0..3. States 0 and 1
// predict not taken and miss when the branch is taken; states 2 and 3
// the reverse, so the long-run misprediction rate is
// q·(π0+π1) + (1−q)·(π2+π3).
func TestOracleBimodalBernoulli(t *testing.T) {
	const branches = 200_000
	for i, q := range []float64{0.1, 0.3, 0.5} {
		r := q / (1 - q)
		var pi [4]float64
		sum := 0.0
		for k := range pi {
			pi[k] = math.Pow(r, float64(k))
			sum += pi[k]
		}
		want := (q*(pi[0]+pi[1]) + (1-q)*(pi[2]+pi[3])) / sum

		g := rng.New(20020525, uint64(i))
		outcomes := make([]bool, branches)
		for j := range outcomes {
			outcomes[j] = g.Bool(q)
		}
		p, err := ev8pred.NewBimodal(1024)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev8pred.Run(p, singleBranchStream(outcomes), ev8pred.Options{Mode: ev8pred.ModeGhist()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Branches != branches {
			t.Fatalf("q=%.1f: %d branches, want %d", q, res.Branches, branches)
		}
		got := float64(res.Mispredicts) / float64(res.Branches)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("q=%.1f: misprediction rate %.4f, stationary-chain oracle %.4f", q, got, want)
		}
	}
}

// TestOraclePeriodicGshare feeds gshare a branch repeating a primitive
// pattern of period P. With history length h ≥ P, the last h outcomes
// name the position within the period uniquely (a primitive pattern's P
// rotations are distinct), and with at least h index bits the XOR of PC
// and history is injective in the history, so each position owns one
// counter that only ever sees one outcome. After a warmup every counter
// is saturated toward its outcome: zero mispredictions.
func TestOraclePeriodicGshare(t *testing.T) {
	patterns := []string{"10", "110", "1100", "11010", "111000", "1110100", "11001010"}
	for _, pat := range patterns {
		period := len(pat)
		for _, hist := range []int{period, 8} {
			const periods = 1000
			warmup := 64 * period
			outcomes := make([]bool, warmup+periods*period)
			for j := range outcomes {
				outcomes[j] = pat[j%period] == '1'
			}
			p, err := ev8pred.NewGshare(1<<12, hist)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ev8pred.Run(p, singleBranchStream(outcomes),
				ev8pred.Options{Mode: ev8pred.ModeGhist(), Warmup: int64(warmup)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Branches != int64(periods*period) || res.Mispredicts != 0 {
				t.Errorf("pattern %s, history %d: %d mispredictions in %d measured branches, want 0 in %d",
					pat, hist, res.Mispredicts, res.Branches, periods*period)
			}
		}
	}
}

// Batch kernel: a member whose predictor implements
// predictor.BatchPredictor consumes each staged chunk in two calls — a
// staged index pass and an in-order resolve pass — instead of one
// Lookup/UpdateWith interface round trip per branch, with mispredictions
// counted by popcount over packed prediction/outcome bitsets. See
// docs/PERFORMANCE.md, "Batch kernel".
//
// Eligibility is decided per member (batchReason), and strictly, because
// the contract is byte-identical results:
//
//   - UpdateDelay must be 0. Under commit delay lookups and delayed
//     updates interleave branch by branch through the member's ring; a
//     chunked resolve cannot reproduce that, so delayed members are
//     consumed branch by branch.
//   - A predictor that observes fetch blocks (BlockObserver — the EV8
//     §6.2 sequencer advances on every block, between branches) must
//     also implement predictor.BlockBatchObserver, the batched block
//     contract: the engine's walk captures the sequencer-dependent bank
//     per branch (StageBank) at the exact scalar interleaving point, and
//     the index pass runs from the captured values (LookupBankedBatch).
//     A block observer consumed branch by branch reads the live
//     sequencer instead, so the engine walks chunks of one record.
//   - Options.Batch selects the schedule: BatchAuto (the default) uses
//     the kernel wherever a member is eligible, precisely because results
//     are identical; BatchOff consumes every member branch by branch
//     (differential testing); BatchOn demands the kernel and makes
//     ineligibility a typed error (ErrBatchIneligible) instead of a
//     silent fallback, so benchmarks measure what they claim to.
package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"ev8pred/internal/predictor"
)

// BatchMode selects whether sim.Run and RunEnsemble may route eligible
// runs through the batch kernel. Like Workers and Ensemble it chooses a
// schedule, never a result: all modes are byte-identical (the batch
// differential suite pins that), so it is excluded from cache keys.
type BatchMode int

const (
	// BatchAuto (the zero value) uses the batch path whenever the run is
	// eligible.
	BatchAuto BatchMode = iota
	// BatchOff forces the scalar fused path.
	BatchOff
	// BatchOn requires the batch path: an ineligible run fails with
	// ErrBatchIneligible instead of silently falling back to scalar.
	BatchOn
)

// String renders the mode for flags and logs.
func (m BatchMode) String() string {
	switch m {
	case BatchAuto:
		return "auto"
	case BatchOff:
		return "off"
	case BatchOn:
		return "on"
	default:
		return "invalid"
	}
}

// ParseBatchMode parses the CLI spelling of a BatchMode.
func ParseBatchMode(s string) (BatchMode, error) {
	switch s {
	case "auto":
		return BatchAuto, nil
	case "on":
		return BatchOn, nil
	case "off":
		return BatchOff, nil
	default:
		return BatchAuto, fmt.Errorf("sim: unknown batch mode %q (want auto|on|off)", s)
	}
}

// ErrBatchIneligible reports a run that requested BatchOn but cannot take
// the batch kernel; the wrapping error names the disqualifying condition.
var ErrBatchIneligible = errors.New("sim: batch kernel required (BatchOn) but run is ineligible")

// batchReason names why p must be consumed branch by branch under opts,
// or returns "" when it takes the batch kernel.
func batchReason(p predictor.Predictor, opts Options) string {
	if opts.Batch == BatchOff {
		return "batch kernel disabled (BatchOff)"
	}
	if opts.UpdateDelay != 0 {
		return fmt.Sprintf("update delay %d requires the scalar path", opts.UpdateDelay)
	}
	if _, observes := p.(BlockObserver); observes {
		if _, ok := p.(predictor.BlockBatchObserver); !ok {
			return fmt.Sprintf("predictor %s observes fetch blocks without the batched block contract (predictor.BlockBatchObserver)", p.Name())
		}
	}
	if _, ok := p.(predictor.BatchPredictor); !ok {
		return fmt.Sprintf("predictor %s does not implement predictor.BatchPredictor", p.Name())
	}
	return ""
}

// batchChunk is the number of trace records staged per chunk. 1024
// records keep the chunk (records, infos, snapshots, bitsets) around
// 150 KB — resident in L2 next to the predictor's prediction arrays —
// while amortizing the per-chunk overheads to noise.
const batchChunk = 1024

// countMispredicts popcounts prediction/outcome disagreements over the
// packed words, restricted to lanes [start, m) — the chunk's measured
// window after warmup gating.
func countMispredicts(finals, taken []uint64, start, m int) int64 {
	var misp int64
	for w := start >> 6; w < (m+63)>>6; w++ {
		d := finals[w] ^ taken[w]
		lo := w << 6
		if lo < start {
			d &= ^uint64(0) << uint(start-lo)
		}
		if hi := lo + 64; hi > m {
			d &= ^uint64(0) >> uint(hi-m)
		}
		misp += int64(bits.OnesCount64(d))
	}
	return misp
}

// warmupStart returns the first measured lane of a chunk of m branches
// that starts at global branch index branches.
func warmupStart(branches, warmup int64, m int) int {
	if branches >= warmup {
		return 0
	}
	skip := warmup - branches
	if skip > int64(m) {
		skip = int64(m)
	}
	return int(skip)
}

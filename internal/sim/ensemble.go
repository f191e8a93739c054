// The stream engine: every simulation in this package — Run,
// RunCheckpoint and ResumeFrom as ensembles of one member, RunEnsemble and
// RunEnsembleFrom as ensembles of N — is one traversal of a branch stream
// in two stages per chunk.
//
//   - Walk. The workload generation and the predictor-independent front
//     end — fetch-block formation and the three-blocks-old lghist/path
//     state (§2, §5 of the paper) — run exactly once per record. The walk
//     fills a chunk: each conditional branch's information vector, its
//     packed outcome, the §6.2 bank number of every member that stages
//     one, and the warmup-gated instruction count.
//   - Consume. Each member then consumes the chunk: through its batch
//     kernel (LookupBatch or LookupBankedBatch, UpdateBatch, popcount;
//     see batch.go), or branch by branch (Lookup/UpdateWith or
//     Predict/Update) through its own commit-delay ring.
//
// A K-configuration sweep thus pays the dominant non-predictor cost once
// instead of K times; every figure of the paper evaluates many
// configurations over the same eight streams. Reordering the (branch,
// member) loop nest is safe because member state is private and the
// shared front end is walked in stream order. The one exception is the
// §6.2 bank sequencer, which advances on every fetch block between
// branches: a member that observes blocks but is consumed branch by
// branch must read the live sequencer at each lookup, so when one is
// present the engine walks chunks of one record — the scalar interleaving
// exactly. Otherwise it walks chunks of batchChunk records.
//
// Correctness contract: the member results are byte-identical to N
// independent Run calls over equal sources — same Branches, Mispredicts,
// Instructions, and (under Options.Collect) the same attribution
// counters — and the engine consumes exactly the records a single Run
// does. The golden corpus and the ensemble differential suite pin this
// for every predictor family, benchmark, mode and update delay.
package sim

import (
	"context"
	"fmt"
	"io"

	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/stats"
	"ev8pred/internal/trace"
	"ev8pred/internal/workload"
)

// pendingUpdate is a deferred training event for the commit-delay mode.
// For fused predictors it carries the prediction-time snapshot instead of
// the information vector: the index set computed at fetch survives the
// queue, as on the hardware, and is never re-derived.
type pendingUpdate struct {
	info  history.Info
	snap  predictor.Snapshot
	taken bool
}

// member is one predictor's slot in a stream: how it consumes each chunk,
// its private commit-delay ring, its mispredict counter and its
// attribution hook. Everything shared (stream position, trackers, the
// staged chunk, warmup gating) lives in the engine.
type member struct {
	p  predictor.Predictor
	fp predictor.FusedPredictor // nil: the Predict/Update pair
	// bp is non-nil when the member consumes chunks through the batch
	// kernel; bbo additionally when it indexes from the banks the walk
	// stages for it.
	bp    predictor.BatchPredictor
	bbo   predictor.BlockBatchObserver
	banks []uint8
	// reason names why the member is consumed branch by branch ("" when
	// it takes the kernel); live marks a block observer among those,
	// which must read the sequencer at each lookup.
	reason      string
	live        bool
	inst        stats.Instrumented
	ring        []pendingUpdate // commit-delay FIFO of UpdateDelay slots
	head, count int
	mispredicts int64
}

// push queues one update; a full ring first applies its oldest entry.
func (m *member) push(info *history.Info, snap predictor.Snapshot, taken bool) {
	if m.count == len(m.ring) {
		m.apply()
	}
	i := m.head + m.count
	if i >= len(m.ring) {
		i -= len(m.ring)
	}
	m.ring[i] = pendingUpdate{info: *info, snap: snap, taken: taken}
	m.count++
}

// apply retires the oldest pending update into the predictor.
func (m *member) apply() {
	u := &m.ring[m.head]
	if m.fp != nil {
		m.fp.UpdateWith(u.snap, u.taken)
	} else {
		m.p.Update(&u.info, u.taken)
	}
	if m.head++; m.head == len(m.ring) {
		m.head = 0
	}
	m.count--
}

// drain retires every pending update at end of stream, oldest first.
func (m *member) drain() {
	for m.count > 0 {
		m.apply()
	}
}

// consume resolves the n staged branches of chunk c; lanes before start
// lie inside the warmup window and train without being counted.
func (m *member) consume(c *chunk, n, start int) {
	if m.bp != nil {
		if m.bbo != nil {
			m.bbo.LookupBankedBatch(c.infos[:n], m.banks[:n], c.snaps[:n])
		} else {
			m.bp.LookupBatch(c.infos[:n], c.snaps[:n])
		}
		m.bp.UpdateBatch(c.snaps[:n], c.taken, c.finals)
		m.mispredicts += countMispredicts(c.finals, c.taken, start, n)
		return
	}
	for j := 0; j < n; j++ {
		info := &c.infos[j]
		taken := c.taken[j>>6]>>(uint(j)&63)&1 == 1
		var pred bool
		var snap predictor.Snapshot
		if m.fp != nil {
			snap = m.fp.Lookup(info)
			pred = snap.Final
		} else {
			pred = m.p.Predict(info)
		}
		if j >= start && pred != taken {
			m.mispredicts++
		}
		switch {
		case m.ring != nil:
			m.push(info, snap, taken)
		case m.fp != nil:
			m.fp.UpdateWith(snap, taken)
		default:
			m.p.Update(info, taken)
		}
	}
}

// chunk is the engine's staging area, allocated once per stream so the
// steady state allocates nothing.
type chunk struct {
	buf    []trace.Branch
	infos  []history.Info
	snaps  []predictor.Snapshot
	taken  []uint64
	finals []uint64
}

// engine is one stream in flight: its members, the shared front end and
// the stream counters.
type engine struct {
	opts     Options
	members  []member
	staged   []*member // members whose §6.2 banks the walk captures
	trackers trackerTable
	onBlock  func(frontend.Block)
	// chunkLen is the records per fill: batchChunk, or 1 when a live
	// member must see the sequencer at each lookup.
	chunkLen int
	records  int64
	// branches counts conditional branches before the warmup clamp;
	// instructions covers the measured window.
	branches, instructions int64
}

// newEngine builds the stream over ps, seeded from ck when non-nil.
// Attribution is enabled after the restore: enabling an already-
// collecting predictor is a no-op, so a checkpointed collection window
// survives the hand-off.
func newEngine(ps []predictor.Predictor, opts Options, ck *Checkpoint) (*engine, error) {
	e := &engine{opts: opts, members: make([]member, len(ps)), chunkLen: batchChunk}
	var observers []BlockObserver
	for i, p := range ps {
		m := &e.members[i]
		m.p = p
		m.fp, _ = p.(predictor.FusedPredictor)
		m.reason = batchReason(p, opts)
		obs, observes := p.(BlockObserver)
		if observes {
			observers = append(observers, obs)
		}
		if m.reason == "" {
			m.bp = p.(predictor.BatchPredictor)
			if observes {
				m.bbo = p.(predictor.BlockBatchObserver)
				e.staged = append(e.staged, m)
			}
		} else if observes {
			m.live = true
			e.chunkLen = 1
		}
		if opts.UpdateDelay > 0 {
			m.ring = make([]pendingUpdate, opts.UpdateDelay)
		}
	}
	for _, m := range e.staged {
		m.banks = make([]uint8, e.chunkLen)
	}
	// The tracker callback feeds the shared block stream to every
	// observing member, in member order.
	switch len(observers) {
	case 0:
	case 1:
		e.onBlock = observers[0].ObserveBlock
	default:
		e.onBlock = func(b frontend.Block) {
			for _, obs := range observers {
				obs.ObserveBlock(b)
			}
		}
	}
	if ck != nil {
		if err := e.seed(ck); err != nil {
			return nil, err
		}
	}
	if opts.Collect {
		for i := range e.members {
			m := &e.members[i]
			if m.inst, _ = m.p.(stats.Instrumented); m.inst != nil {
				m.inst.EnableStats(true)
			}
		}
	}
	return e, nil
}

// stream runs src to the stop point — opts.MaxBranches or the source dry
// — and assembles one Result per member, optionally capturing a
// checkpoint of the single member first.
func (e *engine) stream(src trace.Source, doCapture bool) ([]Result, *Checkpoint, error) {
	results := make([]Result, len(e.members))
	for i := range e.members {
		p := e.members[i].p
		results[i] = Result{Predictor: p.Name(), SizeBits: p.SizeBits()}
	}
	srcErr, err := e.walk(src)
	if err != nil {
		return results, nil, err
	}
	// Capture BEFORE the rings drain and before the warmup clamp: the
	// pending updates belong to the continuation (a resumed run retires
	// them through its own stream), and the resumed warmup gate needs the
	// raw branch count. A source failure voids the capture.
	var ck *Checkpoint
	if doCapture && srcErr == nil {
		if ck, err = e.capture(); err != nil {
			return results, nil, err
		}
	}
	branches := e.branches
	if e.opts.Warmup > 0 {
		// Report only measured branches; the clamp matters when the
		// stream ends at or before the warmup boundary.
		branches -= min(branches, e.opts.Warmup)
	}
	for i := range e.members {
		m := &e.members[i]
		m.drain()
		results[i].Branches = branches
		results[i].Mispredicts = m.mispredicts
		results[i].Instructions = e.instructions
		if m.inst != nil {
			cs := m.inst.Stats()
			results[i].Stats = &cs
		}
	}
	if srcErr != nil {
		return results, nil, fmt.Errorf("sim: source failed after %d branches: %w", branches, srcErr)
	}
	for i := range results {
		if err := results[i].Validate(); err != nil {
			return results, nil, err
		}
	}
	return results, ck, nil
}

// walk pulls src chunk by chunk and hands each staged chunk to every
// member. It returns the source's terminal failure (srcErr) separately
// from an immediate abort (err, a bad thread id).
//
// No fill reads past the stop point: each asks for at most the remaining
// branch budget, and a record holds at most one conditional branch, so
// the stream position where the walk stops — Checkpoint.Records, and the
// warm-ensemble continuation — is the record of the last branch.
func (e *engine) walk(src trace.Source) (srcErr, err error) {
	maxBranches := e.opts.MaxBranches
	c := &chunk{
		buf:    make([]trace.Branch, e.chunkLen),
		infos:  make([]history.Info, e.chunkLen),
		snaps:  make([]predictor.Snapshot, e.chunkLen),
		taken:  make([]uint64, predictor.BatchWords(e.chunkLen)),
		finals: make([]uint64, predictor.BatchWords(e.chunkLen)),
	}
	for {
		want := e.chunkLen
		if maxBranches > 0 {
			rem := maxBranches - e.branches
			if rem <= 0 {
				return nil, nil
			}
			want = int(min(rem, int64(want)))
		}
		n, ferr := trace.ReadBatch(src, c.buf[:want])
		e.records += int64(n)
		m, err := e.stage(c, n)
		if err != nil {
			return nil, err
		}
		if m > 0 {
			start := warmupStart(e.branches, e.opts.Warmup, m)
			for k := range e.members {
				e.members[k].consume(c, m, start)
			}
			e.branches += int64(m)
		}
		if ferr != nil {
			if ferr == io.EOF {
				return nil, nil
			}
			return ferr, nil
		}
		if n == 0 {
			// A source that makes no progress and reports no error would
			// spin; treat it as end of stream.
			return nil, nil
		}
	}
}

// stage is the front-end walk over the n records of c: one tracker step
// per record, in stream order. It stages each conditional branch's
// information vector, outcome bit and banks, and returns their count. A
// record is measured iff at least Warmup conditional branches retired
// before it (for a conditional record, iff it is branch #Warmup+1 or
// later); the same boundary gates the mispredict lanes.
func (e *engine) stage(c *chunk, n int) (int, error) {
	m := 0
	branches, instructions, warmup := e.branches, e.instructions, e.opts.Warmup
	for i := range c.buf[:n] {
		b := &c.buf[i]
		tr := e.trackers.lookup(b.Thread)
		if tr == nil {
			var err error
			if tr, err = e.trackers.create(b.Thread, e.opts, e.onBlock); err != nil {
				return 0, err
			}
		}
		isCond := tr.ProcessInto(b, &c.infos[m])
		if branches >= warmup {
			instructions += int64(b.Gap) + 1
		}
		if !isCond {
			continue
		}
		// The bank a staged member's Lookup would read now, right after
		// this record advanced the tracker and the sequencer.
		for _, sm := range e.staged {
			sm.banks[m] = sm.bbo.StageBank(c.infos[m].BlockPC)
		}
		lane := uint(m) & 63
		if lane == 0 {
			c.taken[m>>6] = 0
		}
		if b.Taken {
			c.taken[m>>6] |= 1 << lane
		}
		m++
		branches++
	}
	e.instructions = instructions
	return m, nil
}

// RunEnsemble simulates one cold predictor per factory over a single
// traversal of src: each record's front-end state (per-thread tracker,
// fetch-block formation, the mode's history variant) and information
// vector are computed exactly once and handed to every member, and
// members that observe fetch blocks (BlockObserver, the EV8 bank
// sequencer) all see the one shared block stream. Per member it keeps the
// exact semantics of Run — the fused Lookup/UpdateWith path when
// available, the batch kernel when eligible, a private commit-delay ring
// under opts.UpdateDelay, and private attribution counters under
// opts.Collect — so the returned Results (factory order) are
// byte-identical to len(factories) independent Run calls over equal
// sources, and src is left at the same record.
//
// All members share opts; in particular they see the same information
// vector (opts.Mode) — schemes needing different modes belong in
// different ensembles. The stream allocates nothing in steady state.
//
// Under BatchOn, members without the kernel are consumed branch by
// branch; the ensemble fails with ErrBatchIneligible only when it cannot
// be walked in chunks at all (an update delay, or a block observer
// without the batched block contract).
//
// Errors: a factory failure aborts before any simulation; a mid-stream
// source failure returns the partial Results with the same error shape as
// Run. An empty factory list returns an empty, non-nil slice without
// touching src.
func RunEnsemble(factories []Factory, src trace.Source, opts Options) ([]Result, error) {
	return runEnsemble(factories, src, opts, nil)
}

// RunEnsembleFrom is the warm-state fan-out: every factory's member is
// restored from the SAME checkpoint — one warmup simulation, K copies of
// the warm state — and the ensemble continues over src, which must be
// positioned exactly ck.Records records into the checkpointed stream.
// Each member's Result covers the whole run (warm prefix plus
// continuation) and is bit-identical to an independent straight-through
// Run of that member; every member must implement predictor.Snapshotter
// and carry the checkpointed predictor's name and configuration.
// RunWarmEnsembleBenchmark packages the warm-once/fan-out-K sequence.
func RunEnsembleFrom(factories []Factory, src trace.Source, opts Options, ck *Checkpoint) ([]Result, error) {
	if ck == nil {
		return nil, fmt.Errorf("sim: nil checkpoint for warm ensemble")
	}
	return runEnsemble(factories, src, opts, ck)
}

// runEnsemble is RunEnsemble and RunEnsembleFrom; a nil ck runs cold
// from the stream start.
func runEnsemble(factories []Factory, src trace.Source, opts Options, ck *Checkpoint) ([]Result, error) {
	if len(factories) == 0 {
		return []Result{}, nil
	}
	ps := make([]predictor.Predictor, len(factories))
	for i, mk := range factories {
		p, err := mk()
		if err != nil {
			return nil, fmt.Errorf("sim: building ensemble member %d: %w", i, err)
		}
		ps[i] = p
	}
	e, err := newEngine(ps, opts, ck)
	if err != nil {
		return nil, err
	}
	if opts.Batch == BatchOn {
		for i := range e.members {
			if m := &e.members[i]; m.live || opts.UpdateDelay != 0 {
				return nil, fmt.Errorf("%w: %s", ErrBatchIneligible, m.reason)
			}
		}
	}
	rs, _, err := e.stream(src, false)
	return rs, err
}

// RunEnsembleBenchmark builds the named synthetic benchmark once and runs
// one predictor per factory over its single stream.
func RunEnsembleBenchmark(factories []Factory, prof workload.Profile, instrBudget int64, opts Options) ([]Result, error) {
	return runEnsembleBenchmarkCtx(context.Background(), factories, prof, instrBudget, opts)
}

// RunWarmEnsembleBenchmark amortizes warmup across an ensemble: ONE
// predictor from factory simulates the benchmark's first warmBranches
// conditional branches, its state is checkpointed, and k members resume
// from copies of that warm state over the continuation of the same stream
// — the warmup is simulated once instead of k times, extending the
// ensemble engine's work sharing to state sharing. The k Results are
// bit-identical to k independent straight-through RunBenchmark calls
// (which, for a deterministic factory, makes them k identical rows — the
// amortization matters when the caller perturbs each member's downstream
// handling, or simply wants the warm checkpoint validated cheaply).
// warmBranches must be positive and, when opts.MaxBranches is set, below
// it; the warm prefix runs with the same options.
func RunWarmEnsembleBenchmark(factory Factory, k int, prof workload.Profile, instrBudget, warmBranches int64, opts Options) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sim: warm ensemble needs k > 0, got %d", k)
	}
	if warmBranches <= 0 {
		return nil, fmt.Errorf("sim: warm ensemble needs warmBranches > 0, got %d", warmBranches)
	}
	if opts.MaxBranches > 0 && warmBranches >= opts.MaxBranches {
		return nil, fmt.Errorf("sim: warm prefix %d not below MaxBranches %d", warmBranches, opts.MaxBranches)
	}
	g, err := workload.New(prof, instrBudget)
	if err != nil {
		return nil, err
	}
	warm, err := factory()
	if err != nil {
		return nil, fmt.Errorf("sim: building warmup predictor: %w", err)
	}
	wopts := opts
	wopts.MaxBranches = warmBranches
	// The warm run stops at the record of its last branch (no fill reads
	// past it; see engine.walk), so the SAME generator continues
	// seamlessly into the ensemble, no reposition step.
	_, ck, err := RunCheckpoint(warm, g, wopts)
	if err != nil {
		return nil, fmt.Errorf("sim: warmup for %s: %w", prof.Name, err)
	}
	factories := make([]Factory, k)
	for i := range factories {
		factories[i] = factory
	}
	rs, err := RunEnsembleFrom(factories, g, opts, ck)
	for i := range rs {
		rs[i].Workload = prof.Name
	}
	return rs, err
}

package workload

import (
	"ev8pred/internal/rng"
	"ev8pred/internal/trace"
)

// stmtKind enumerates the statement forms of the synthetic program.
type stmtKind uint8

const (
	stmtIf     stmtKind = iota // conditional branch that skips its body when taken
	stmtLoop                   // body followed by a backward conditional branch
	stmtSwitch                 // indirect jump dispatching to one of several cases
)

// span is a body: the half-open range [lo, hi) of program.stmts. Every
// body is contiguous, because genBody appends a body's statements in one
// go after laying out the bodies nested in it.
type span struct{ lo, hi int32 }

// stmt is one statement of a function body. Straight-line code is implicit
// in the address layout: gaps between control points are real address
// distances, so the generator never needs explicit "basic block" records.
//
// stmt is the interpreter's hot node. At 48 bytes it never spans more
// than two cache lines and most statements sit inside one: everything an
// if-site needs (addresses, packed outcome model, nested body range, site
// ID) is inline, while the loop-trip and switch fields, read once per
// loop activation or dispatch, live in side tables. Bodies are ranges of
// one program-wide slice, so a function's statements are contiguous and
// gcc's whole program is about 0.6 MB of statements.
type stmt struct {
	branchPC uint64    // address of the branch/jump instruction
	target   uint64    // taken target (if: skip address; loop: body start)
	model    siteModel // stmtIf
	body     span      // stmtIf: then-body; stmtLoop: loop body
	// aux is the if-site's ID (its pattern cursor in Generator.patPos),
	// the loop's index in program.trips or the switch's index in
	// program.switches.
	aux  int32
	kind stmtKind
}

// switchSite is the side-table entry of a stmtSwitch: caseAddrs are the
// case-body entry points, caseJumpPCs the per-case trailing jumps, join
// the common continuation, and caseBias the probability of the hot case
// (case 0).
type switchSite struct {
	caseAddrs   []uint64
	caseJumpPCs []uint64
	join        uint64
	caseBias    float64
}

// function is one synthetic function: entry point, body, and the return
// instruction that ends it.
type function struct {
	entry uint64
	retPC uint64
	body  span
}

// call is one slot of the driver loop's repeating call sequence: the call
// instruction and the function it calls.
type call struct {
	pc uint64
	fn int32
}

// program is the immutable static structure shared by generator resets.
type program struct {
	stmts    []stmt // every body of every function, flattened
	trips    []tripModel
	switches []switchSite
	funcs    []function

	// Driver loop layout: calls is the repeating call sequence laid out
	// from driverStart; after the last slot an unconditional jump at
	// jumpPC returns to driverStart.
	driverStart uint64
	calls       []call
	jumpPC      uint64

	numSites int
}

const (
	streamBuild = 101 // rng stream for program construction
	streamExec  = 202 // rng stream for execution draws
)

// builder carries construction state. Switch structure is drawn from a
// separate rng stream so that enabling switches does not reshuffle the
// site/model/trip draws of the calibrated profiles.
type builder struct {
	prof   Profile
	r      *rng.PCG32
	rs     *rng.PCG32 // switch-structure stream
	cursor uint64
	sites  int // sites allocated so far (site IDs)
	prog   *program
}

// streamSwitch is the rng stream for switch-dispatch structure.
const streamSwitch = 303

// buildProgram constructs the synthetic program for a profile.
func buildProgram(prof Profile) *program {
	b := &builder{
		prof:   prof,
		r:      rng.New(prof.Seed, streamBuild),
		rs:     rng.New(prof.Seed, streamSwitch),
		cursor: 0x10000,
	}
	p := &program{driverStart: b.cursor}
	b.prog = p

	// Driver region: CallSeqLen call sites separated by straight code,
	// then a jump back to the start.
	p.calls = make([]call, prof.CallSeqLen)
	for i := range p.calls {
		b.straight()
		p.calls[i].pc = b.emitInstr()
	}
	b.straight()
	p.jumpPC = b.emitInstr()

	// Assign sites to functions: every function gets at least one site;
	// the remainder is spread with random weights so some functions are
	// much larger than others (realistic footprint skew).
	nf := prof.Functions
	if nf > prof.StaticCond {
		nf = prof.StaticCond
	}
	alloc := make([]int, nf)
	for i := range alloc {
		alloc[i] = 1
	}
	for extra := prof.StaticCond - nf; extra > 0; extra-- {
		alloc[b.r.Intn(nf)]++
	}

	p.funcs = make([]function, nf)
	for i := range p.funcs {
		b.gapAddr(16) // inter-function padding
		entry := b.cursor
		body := b.genBody(alloc[i], 0)
		b.straight()
		retPC := b.emitInstr()
		p.funcs[i] = function{entry: entry, body: body, retPC: retPC}
	}

	// The repeating call sequence: Zipf-like weights make a few
	// functions hot while the tail is cold, which is what creates the
	// warm/cold predictor-footprint mix of real programs.
	for i := range p.calls {
		p.calls[i].fn = int32(b.zipf(nf))
	}

	p.numSites = b.sites
	return p
}

// zipf draws a function index with probability roughly proportional to
// 1/(index+1).
func (b *builder) zipf(n int) int {
	// Rejection-free approximation: map a uniform draw through x^3 to
	// concentrate mass near 0, then spread with a uniform second draw.
	u := b.r.Float64()
	idx := int(u * u * u * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// straight advances the cursor over a run of straight-line instructions
// drawn from the profile's gap distribution.
func (b *builder) straight() {
	n := b.r.Geometric(b.prof.AvgGap)
	b.cursor += uint64(n) * trace.InstrBytes
}

// gapAddr advances the cursor by exactly n instructions.
func (b *builder) gapAddr(n int) {
	b.cursor += uint64(n) * trace.InstrBytes
}

// emitInstr reserves one instruction slot and returns its address.
func (b *builder) emitInstr() uint64 {
	pc := b.cursor
	b.cursor += trace.InstrBytes
	return pc
}

// genBody lays out a function/region body containing exactly budget
// conditional-branch sites, appends it to the program's statements after
// the bodies nested in it, and returns its range.
func (b *builder) genBody(budget, depth int) span {
	var out []stmt
	switches := 0
	for budget > 0 {
		// Occasionally insert an indirect-jump dispatch (a switch
		// statement): these exercise the front end's jump predictor
		// without consuming conditional-site budget. All switch draws
		// come from the dedicated rs stream so the calibrated b.r draw
		// sequence is untouched.
		if switches < 2 && b.prof.SwitchFrac > 0 && b.rs.Bool(b.prof.SwitchFrac) {
			b.gapAddr(b.rs.Geometric(b.prof.AvgGap))
			out = append(out, b.genSwitch())
			switches++
		}
		b.straight()
		// Structural choice: loop region or if-site.
		if depth < 3 && budget >= 2 && b.r.Bool(b.prof.FracLoop) {
			// Loop: one site for the back edge plus a nested body.
			sub := 1
			if budget > 2 {
				sub += b.r.Intn(budget - 2)
			}
			bodyStart := b.cursor
			body := b.genBody(sub, depth+1)
			b.straight()
			pc := b.emitInstr()
			b.prog.trips = append(b.prog.trips, b.newTrip())
			b.newSite() // the back edge is a site (StaticSites) with no pattern cursor
			out = append(out, stmt{
				kind:     stmtLoop,
				branchPC: pc,
				target:   bodyStart,
				body:     body,
				aux:      int32(len(b.prog.trips) - 1),
			})
			budget -= sub + 1
			continue
		}
		// If-site: the branch skips its then-body when taken. The body
		// may contain nested sites.
		sub := 0
		if depth < 3 && budget > 1 && b.r.Bool(0.3) {
			sub = 1 + b.r.Intn((budget-1+1)/2)
		}
		pc := b.emitInstr()
		body := b.genBody(sub, depth+1)
		b.straight()
		out = append(out, stmt{
			kind:     stmtIf,
			branchPC: pc,
			target:   b.cursor, // skip to just past the then-body
			body:     body,
			model:    b.newModel(),
			aux:      int32(b.newSite()),
		})
		budget -= sub + 1
	}
	lo := len(b.prog.stmts)
	b.prog.stmts = append(b.prog.stmts, out...)
	return span{int32(lo), int32(len(b.prog.stmts))}
}

// genSwitch lays out an indirect-jump dispatch: a jump instruction
// followed by 2–6 straight-line case bodies, each ending in a direct jump
// to the common join point. The dispatch target distribution is skewed
// (one hot case), which is what makes a last-target jump predictor useful
// but imperfect — interpreter-style behavior.
func (b *builder) genSwitch() stmt {
	sw := switchSite{caseBias: 0.5 + b.rs.Float64()*0.45}
	s := stmt{kind: stmtSwitch, branchPC: b.emitInstr()}
	n := 2 + b.rs.Intn(5)
	jumpPCs := make([]uint64, 0, n)
	addrs := make([]uint64, 0, n)
	for c := 0; c < n; c++ {
		addrs = append(addrs, b.cursor)
		b.gapAddr(1 + b.rs.Intn(8))
		jumpPCs = append(jumpPCs, b.emitInstr())
	}
	sw.caseAddrs = addrs
	sw.caseJumpPCs = jumpPCs
	sw.join = b.cursor
	b.prog.switches = append(b.prog.switches, sw)
	s.aux = int32(len(b.prog.switches) - 1)
	return s
}

func (b *builder) newSite() int {
	id := b.sites
	b.sites++
	return id
}

// newTrip draws a loop trip model from the profile. Fixed-trip loops come
// in two populations mirroring real code: SHORT loops (trip 2–8) whose
// full iteration pattern fits in a global history window — these are the
// branches that reward longer predictor histories — and LONG loops (around
// TripMean) whose single exit misprediction is amortized over many
// predictable back edges.
func (b *builder) newTrip() tripModel {
	p := &b.prof
	if b.r.Bool(p.TripFixedFrac) {
		if b.r.Bool(0.6) {
			return tripModel{fixed: true, trip: 2 + b.r.Intn(7)}
		}
		t := 1 + b.r.Geometric(p.TripMean)
		if t > p.TripMax {
			t = p.TripMax
		}
		return tripModel{fixed: true, trip: t}
	}
	return tripModel{mean: p.TripMean, max: p.TripMax}
}

// newModel draws an if-site outcome model from the profile mix.
func (b *builder) newModel() siteModel {
	p := &b.prof
	u := b.r.Float64()
	switch {
	case u < p.FracCorr:
		// Two tap populations: 70% short-range (within ~10 branches,
		// learnable at modest history lengths) and 30% spread up to
		// CorrMaxDist (the branches that reward very long histories,
		// §5.3).
		lo := p.CorrMinDist
		hi := p.CorrMaxDist
		if shortHi := lo + 9; b.r.Bool(0.7) && shortHi < hi {
			hi = shortHi
		}
		shift := lo + b.r.Intn(hi-lo+1) - 1
		if shift > 64 {
			shift = 64
		}
		return siteModel{
			kind:   modelCorr,
			shift:  uint8(shift),
			invert: b.r.Bool(0.5),
			p:      p.NoiseCorr,
		}
	case u < p.FracCorr+p.FracLocal:
		patLen := 2 + b.r.Intn(7)
		pattern := b.r.Uint64() & ((1 << uint(patLen)) - 1)
		return siteModel{
			kind:    modelLocal,
			pattern: uint8(pattern),
			patLen:  uint8(patLen),
			p:       p.NoiseLocal,
		}
	case u < p.FracCorr+p.FracLocal+p.FracRandom:
		pr := p.RandomLo + b.r.Float64()*(p.RandomHi-p.RandomLo)
		return siteModel{kind: modelRandom, p: pr}
	default:
		// Most biased branches in real optimized code are fully one-way
		// (error checks, guards): 70% of biased sites are deterministic,
		// the rest flip with probability 1-BiasStrength.
		pr := p.BiasStrength
		if b.r.Bool(0.7) {
			pr = 1.0
		}
		if b.r.Bool(p.BiasNTFrac) {
			pr = 1 - pr
		}
		return siteModel{kind: modelBias, p: pr}
	}
}

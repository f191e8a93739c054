package workload

import (
	"fmt"
	"io"

	"ev8pred/internal/history"
	"ev8pred/internal/rng"
	"ev8pred/internal/trace"
)

// Generator interprets a synthetic program, emitting trace records until an
// instruction budget is exhausted. It implements trace.Source and
// trace.Resetter and is fully deterministic given the profile seed.
type Generator struct {
	prof   Profile
	prog   *program
	budget int64

	// execution state (reset by Reset). Switch-case selection draws from
	// its own stream so dispatch density does not perturb the calibrated
	// site-model draws.
	r          rng.PCG32
	rswitch    rng.PCG32
	ghist      history.Register
	stack      []frame
	seqPos     int
	patPos     []uint8 // per-site pattern cursor (local sites)
	instr      int64
	lastNextPC uint64
	done       bool
}

// frameKind distinguishes the interpreter's stack frames.
type frameKind uint8

const (
	frameFunc frameKind = iota
	frameLoop
	frameIfBody
	frameSwitchCase
)

// frame is one activation on the interpreter stack: a cursor over a body
// plus the record the frame emits when its body is exhausted.
type frame struct {
	// pc and target are the exit record's addresses: the function's
	// return instruction and its dynamic return target (frameFunc), the
	// loop's back edge and body start (frameLoop), or the case body's
	// trailing jump and the join (frameSwitchCase).
	pc, target uint64
	remain     int   // frameLoop: body executions remaining after this one
	pos, end   int32 // next statement and end of the body in program.stmts
	start      int32 // frameLoop: body start, where the next iteration restarts
	kind       frameKind
}

// New builds the program for prof and returns a generator that emits
// records until instrBudget instructions have been executed.
// instrBudget <= 0 means unbounded (callers must impose their own limit).
func New(prof Profile, instrBudget int64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		prof:   prof,
		prog:   buildProgram(prof),
		budget: instrBudget,
	}
	g.Reset()
	return g, nil
}

// MustNew is New but panics on error; for the fixed built-in profiles.
func MustNew(prof Profile, instrBudget int64) *Generator {
	g, err := New(prof, instrBudget)
	if err != nil {
		panic(err)
	}
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// StaticSites returns the number of conditional branch sites in the program.
func (g *Generator) StaticSites() int { return g.prog.numSites }

// Reset restarts execution from the beginning; the emitted stream is
// bit-identical to the previous run. It allocates nothing after the
// first run.
func (g *Generator) Reset() {
	g.r.Seed(g.prof.Seed, streamExec)
	g.rswitch.Seed(g.prof.Seed, streamExec+1)
	g.ghist.Reset()
	g.stack = g.stack[:0]
	g.seqPos = 0
	if g.patPos == nil {
		g.patPos = make([]uint8, g.prog.numSites)
	}
	clear(g.patPos)
	g.instr = 0
	g.lastNextPC = g.prog.driverStart
	g.done = false
}

// Next implements trace.Source.
func (g *Generator) Next() (trace.Branch, bool) {
	var b trace.Branch
	if g.done {
		return b, false
	}
	g.step(&b)
	return b, true
}

// NextBatch implements trace.BatchSource: it interprets records directly
// into the caller's buffer, so batch consumers (sim.RunEnsemble) pay one
// call per batch instead of one interface dispatch per record. A
// synthetic stream cannot fail, so the only terminal condition is the
// budget running out (io.EOF).
func (g *Generator) NextBatch(dst []trace.Branch) (int, error) {
	if g.done {
		return 0, io.EOF
	}
	for i := range dst {
		if g.done {
			return i, nil
		}
		g.step(&dst[i])
	}
	return len(dst), nil
}

// emit writes the record at pc into dst and charges its instructions to
// the budget: the gap is the real address distance from the previous
// control transfer's successor, which is what makes the front-end flow
// reconstruction exact.
func (g *Generator) emit(dst *trace.Branch, pc, target uint64, taken bool, kind trace.Kind) {
	if pc < g.lastNextPC {
		panic(fmt.Sprintf("workload: layout regression: pc %#x < flow %#x", pc, g.lastNextPC))
	}
	gap := int((pc - g.lastNextPC) / trace.InstrBytes)
	*dst = trace.Branch{PC: pc, Target: target, Taken: taken, Gap: gap, Kind: kind}
	if taken {
		g.lastNextPC = target
	} else {
		g.lastNextPC = pc + trace.InstrBytes
	}
	g.instr += int64(gap) + 1
	if g.budget > 0 && g.instr >= g.budget {
		g.done = true
	}
}

// step advances the interpreter until exactly one record is produced,
// writing it into dst.
func (g *Generator) step(dst *trace.Branch) {
	p := g.prog
	for {
		if len(g.stack) == 0 {
			// Driver loop.
			slot := g.seqPos
			g.seqPos++
			if slot == len(p.calls) {
				// Wrap: unconditional jump back to the driver start.
				g.seqPos = 0
				g.emit(dst, p.jumpPC, p.driverStart, true, trace.Jump)
				return
			}
			c := p.calls[slot]
			fn := &p.funcs[c.fn]
			g.stack = append(g.stack, frame{
				kind:   frameFunc,
				pos:    fn.body.lo,
				end:    fn.body.hi,
				pc:     fn.retPC,
				target: c.pc + trace.InstrBytes,
			})
			g.emit(dst, c.pc, fn.entry, true, trace.Call)
			return
		}

		f := &g.stack[len(g.stack)-1]
		if f.pos >= f.end {
			pc, target := f.pc, f.target
			switch f.kind {
			case frameLoop:
				if f.remain > 0 {
					f.remain--
					f.pos = f.start
					g.ghist.Shift(true)
					g.emit(dst, pc, target, true, trace.Cond)
					return
				}
				g.stack = g.stack[:len(g.stack)-1]
				g.ghist.Shift(false)
				g.emit(dst, pc, target, false, trace.Cond)
			case frameFunc:
				g.stack = g.stack[:len(g.stack)-1]
				g.emit(dst, pc, target, true, trace.Return)
			case frameSwitchCase:
				g.stack = g.stack[:len(g.stack)-1]
				g.emit(dst, pc, target, true, trace.Jump)
			default: // frameIfBody
				g.stack = g.stack[:len(g.stack)-1]
				continue
			}
			return
		}

		s := &p.stmts[f.pos]
		f.pos++
		switch s.kind {
		case stmtLoop:
			trip := p.trips[s.aux].draw(&g.r)
			g.stack = append(g.stack, frame{
				kind:   frameLoop,
				pos:    s.body.lo,
				start:  s.body.lo,
				end:    s.body.hi,
				remain: trip - 1,
				pc:     s.branchPC,
				target: s.target,
			})
			// No record yet; the body runs, then the back edge emits.
		case stmtIf:
			taken := s.model.eval(&g.r, g.ghist.Value(), &g.patPos[s.aux])
			g.ghist.Shift(taken)
			if !taken && s.body.lo < s.body.hi {
				g.stack = append(g.stack, frame{kind: frameIfBody, pos: s.body.lo, end: s.body.hi})
			}
			g.emit(dst, s.branchPC, s.target, taken, trace.Cond)
			return
		case stmtSwitch:
			// Skewed dispatch: a hot case plus a uniform tail.
			sw := &p.switches[s.aux]
			c := 0
			if !g.rswitch.Bool(sw.caseBias) && len(sw.caseAddrs) > 1 {
				c = 1 + g.rswitch.Intn(len(sw.caseAddrs)-1)
			}
			g.stack = append(g.stack, frame{
				kind:   frameSwitchCase,
				pc:     sw.caseJumpPCs[c],
				target: sw.join,
			})
			g.emit(dst, s.branchPC, sw.caseAddrs[c], true, trace.Jump)
			return
		}
	}
}

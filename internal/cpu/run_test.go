package cpu

import (
	"testing"

	"limitsim/internal/isa"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
)

// Registers R12..R15 hold the fuzz programs' memory bases: no
// generated instruction writes them, so every load and store stays
// aligned and inside the data block.
const (
	fuzzBaseReg    = 12
	fuzzRegionLen  = 64 // words per base register
	fuzzNumOpcodes = int(isa.OpHalt) + 1
)

// fuzzProgram decodes four bytes per instruction — opcode, registers,
// immediate, extra — into a program over every opcode. Opcodes past
// OpHalt are illegal; jump and branch targets reach up to two past the
// end; compute blocks run past the PMU's deferral step cap.
func fuzzProgram(code []byte) *isa.Program {
	n := len(code) / 4
	prog := &isa.Program{Instrs: make([]isa.Instr, n)}
	for i := range prog.Instrs {
		op, regs, imm, extra := code[4*i], code[4*i+1], code[4*i+2], code[4*i+3]
		in := isa.Instr{
			Op:   isa.Op(int(op) % (fuzzNumOpcodes + 2)),
			Dst:  isa.Reg(regs % fuzzBaseReg),
			Src1: isa.Reg(regs >> 4),
			Src2: isa.Reg(extra % isa.NumRegs),
			Imm:  int64(imm) | int64(extra)<<8,
		}
		switch in.Op {
		case isa.OpCompute:
			in.Imm = int64(imm) << (extra % 6)
		case isa.OpLoad, isa.OpStore:
			in.Src1 = fuzzBaseReg + isa.Reg(regs>>6)
			in.Imm = int64(imm%fuzzRegionLen) * 8
		case isa.OpCAS, isa.OpXAdd:
			in.Src1 = fuzzBaseReg + isa.Reg(regs>>6)
			in.Imm = int64(imm % isa.NumRegs)
		case isa.OpJmp, isa.OpBr, isa.OpBrRand:
			in.Imm = int64(int(imm) % (n + 3))
			in.Cond = isa.Cond(extra % 7) // 6 is no condition: never taken
			if in.Op == isa.OpBrRand {
				in.Cond = isa.Cond(extra)
			}
		case isa.OpRdPMC:
			in.Imm = int64(int(imm)%(pmu.DefaultFeatures().NumCounters+2)) - 1
			in.Cond = isa.Cond(extra & 1) // destructive
		}
		prog.Instrs[i] = in
	}
	return prog
}

// fuzzCore builds a core and context for prog. flags picks userspace
// counter access, destructive-read support, a signal frame, and the
// overflow bit (3–10) of counter 0, which counts retired instructions
// or cycles; counter 1 counts user cycles without interrupts and
// counter 2 counts branches with overflow bit 2. Flag 0x80 leaves
// pending bits untaken between rounds (see sameMachine).
func fuzzCore(prog *isa.Program, flags uint8) (*Core, *Context) {
	feats := pmu.DefaultFeatures()
	feats.DestructiveReads = flags&2 != 0
	c := NewCore(0, feats)
	retire := pmu.EvInstructions
	if flags&64 != 0 {
		retire = pmu.EvCycles
	}
	c.PMU.Configure(0, pmu.CounterConfig{Event: retire, CountUser: true, Enabled: true, OverflowBit: 3 + int(flags>>3&7)})
	c.PMU.Configure(1, pmu.CounterConfig{Event: pmu.EvCycles, CountUser: true, Enabled: true, OverflowBit: -1})
	c.PMU.Configure(2, pmu.CounterConfig{Event: pmu.EvBranches, CountUser: true, Enabled: true, OverflowBit: 2})
	space := mem.NewSpace()
	ctx := &Context{Prog: prog, Mem: space, AllowRdPMC: flags&1 != 0}
	if flags&4 != 0 {
		ctx.SigDepth = 1
	}
	base := space.AllocWords(4 * fuzzRegionLen)
	for r := 0; r < 4; r++ {
		ctx.Regs[fuzzBaseReg+r] = base + uint64(r*fuzzRegionLen*8)
	}
	for r := 0; r < fuzzBaseReg; r++ {
		ctx.Regs[r] = uint64(r) * 0x9e3779b97f4a7c15
	}
	ctx.SeedRNG(uint64(flags) + 1)
	return c, ctx
}

// sameMachine fails unless the two cores and contexts agree on every
// architectural and PMU observable: registers, PC, RNG, clock, the
// data block, counter values, ground truth and pending overflow bits.
// With take it takes the pending bits on both sides and compares the
// masks; without, it compares whether any is pending and leaves them
// for the next round's Run to start with.
func sameMachine(t *testing.T, round int, a, b *Core, ca, cb *Context, take bool) {
	t.Helper()
	if ca.Regs != cb.Regs || ca.PC != cb.PC || ca.rng != cb.rng {
		t.Fatalf("round %d: Run left PC %d regs %v rng %#x, Step PC %d regs %v rng %#x",
			round, ca.PC, ca.Regs, ca.rng, cb.PC, cb.Regs, cb.rng)
	}
	if a.Now != b.Now {
		t.Fatalf("round %d: Run left the clock at %d, Step at %d", round, a.Now, b.Now)
	}
	base := ca.Regs[fuzzBaseReg]
	ma, mb := ca.Mem.ReadWords(base, 4*fuzzRegionLen), cb.Mem.ReadWords(base, 4*fuzzRegionLen)
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("round %d: word %d: Run wrote %#x, Step %#x", round, i, ma[i], mb[i])
		}
	}
	for i := 0; i < a.PMU.NumCounters(); i++ {
		if va, vb := a.PMU.Read(i), b.PMU.Read(i); va != vb {
			t.Fatalf("round %d: counter %d: Run %d, Step %d", round, i, va, vb)
		}
	}
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		for _, ring := range []pmu.Ring{pmu.RingUser, pmu.RingKernel} {
			if ga, gb := a.PMU.GroundTruth(ev, ring), b.PMU.GroundTruth(ev, ring); ga != gb {
				t.Fatalf("round %d: ground truth of %v ring %d: Run %d, Step %d", round, ev, ring, ga, gb)
			}
		}
	}
	if !take {
		if pa, pb := a.PMU.HasPending(), b.PMU.HasPending(); pa != pb {
			t.Fatalf("round %d: overflow pending: Run %v, Step %v", round, pa, pb)
		}
	} else if pa, pb := a.PMU.TakePendingOverflows(), b.PMU.TakePendingOverflows(); pa != pb {
		t.Fatalf("round %d: pending overflows: Run %#b, Step %#b", round, pa, pb)
	}
}

// FuzzRun holds the interpreter loop to its one-instruction form: one
// Run must leave the same state and return the same results as Step
// called until the same exit — a trap, a pending overflow bit, the
// clock reaching stop, or budget instructions. Each input runs up to
// eight rounds with fresh stop and budget values, continuing past
// every trap except a fault.
func FuzzRun(f *testing.F) {
	mk := func(ins ...[4]byte) []byte {
		var b []byte
		for _, in := range ins {
			b = append(b, in[:]...)
		}
		return b
	}
	op := func(o isa.Op) byte { return byte(o) }
	// A loop of ALU work, memory traffic, atomics and branches.
	loop := mk(
		[4]byte{op(isa.OpMovImm), 0x01, 5, 0},
		[4]byte{op(isa.OpAddImm), 0x11, 1, 0},
		[4]byte{op(isa.OpStore), 0x40, 3, 1},
		[4]byte{op(isa.OpLoad), 0x42, 3, 0},
		[4]byte{op(isa.OpCAS), 0x83, 1, 2},
		[4]byte{op(isa.OpXAdd), 0xc4, 0, 1},
		[4]byte{op(isa.OpMul), 0x25, 0, 2},
		[4]byte{op(isa.OpBrRand), 0x00, 0, 128},
		[4]byte{op(isa.OpCompute), 0x00, 200, 5},
		[4]byte{op(isa.OpBr), 0x12, 1, 2},
		[4]byte{op(isa.OpJmp), 0x00, 1, 0},
	)
	// Reads of every kind: counters (destructive too), the clock, RNG.
	reads := mk(
		[4]byte{op(isa.OpRdPMC), 0x00, 1, 0},
		[4]byte{op(isa.OpRdPMC), 0x01, 1, 1},
		[4]byte{op(isa.OpRdCycle), 0x02, 0, 0},
		[4]byte{op(isa.OpRand), 0x03, 0, 0},
		[4]byte{op(isa.OpRdPMC), 0x04, 5, 0}, // nonexistent counter
		[4]byte{op(isa.OpJmp), 0x00, 0, 0},
	)
	// Traps: a syscall, a sigreturn, a halt, then an illegal opcode and
	// a jump past the end.
	traps := mk(
		[4]byte{op(isa.OpNop), 0, 0, 0},
		[4]byte{op(isa.OpSyscall), 0, 7, 0},
		[4]byte{op(isa.OpSigReturn), 0, 0, 0},
		[4]byte{op(isa.OpHalt), 0, 0, 0},
		[4]byte{op(isa.OpShl), 0x01, 3, 0},
		[4]byte{op(isa.OpBr), 0x00, 9, 0}, // R0 == R0: taken, to two past the end
		[4]byte{byte(fuzzNumOpcodes), 0, 0, 0},
	)
	for _, flags := range []uint8{0, 1 | 2 | 4, 0x3f, 0x40 | 1, 0x80 | 0x7} {
		f.Add(loop, flags, uint16(5000), uint8(0))
		f.Add(loop, flags, uint16(0), uint8(200))
		f.Add(reads, flags, uint16(300), uint8(7))
		f.Add(traps, flags, uint16(1000), uint8(3))
	}
	f.Add([]byte{}, uint8(0), uint16(0), uint8(0)) // empty program: the PC is out of range
	f.Fuzz(func(t *testing.T, code []byte, flags uint8, stopDelta uint16, budget uint8) {
		prog := fuzzProgram(code)
		a, ca := fuzzCore(prog, flags)
		b, cb := fuzzCore(prog, flags)
		for round := 0; round < 8; round++ {
			stop, limit := a.Now+uint64(stopDelta)*uint64(round+1), uint64(budget)+uint64(round)
			var res StepResult
			steps, instrs, trap := a.Run(ca, &res, stop, limit)

			var ref StepResult
			var refSteps, refInstrs uint64
			for {
				ref = b.Step(cb)
				refSteps++
				refInstrs += ref.Instrs
				if ref.Trap != TrapNone || b.PMU.HasPending() || b.Now >= stop || refSteps >= limit {
					break
				}
			}
			if steps != refSteps || instrs != refInstrs || trap != ref.Trap {
				t.Fatalf("round %d: Run(stop %d, budget %d) = (%d steps, %d instrs, %v), Step loop (%d, %d, %v)",
					round, stop, limit, steps, instrs, trap, refSteps, refInstrs, ref.Trap)
			}
			if (trap == TrapSyscall && res.SyscallNum != ref.SyscallNum) || (trap == TrapFault && res.Fault != ref.Fault) {
				t.Fatalf("round %d: trap operands: Run %+v, Step %+v", round, res, ref)
			}
			sameMachine(t, round, a, b, ca, cb, flags&0x80 == 0 || round%2 == 1)
			if trap == TrapFault {
				return
			}
		}
	})
}

package isa

import (
	"fmt"
	"sort"
)

// Builder assembles a Program. It supports forward label references,
// named symbols (PC ranges), and inlining of reusable snippets. The
// zero value is not usable; call NewBuilder.
//
// Builder methods append one instruction each and return the Builder so
// that straight-line sequences can be chained. Label operands are
// resolved at Build time; referencing an undefined label is an error.
type Builder struct {
	instrs  []Instr
	labels  map[string]int
	fixups  []fixup // pending label references
	symOpen []symOpen
	symbols []Symbol
	err     error
}

type fixup struct {
	pc    int // instruction whose Imm needs the label address
	label string
}

type symOpen struct {
	name  string
	start int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.instrs) }

func (b *Builder) emit(in Instr) *Builder {
	b.instrs = append(b.instrs, in)
	return b
}

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Label defines name at the current PC. Redefining a label is an error
// reported by Build.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.setErr(fmt.Errorf("isa: label %q defined twice", name))
		return b
	}
	b.labels[name] = b.PC()
	return b
}

// BeginSymbol opens a named PC range at the current PC. Ranges may nest.
func (b *Builder) BeginSymbol(name string) *Builder {
	b.symOpen = append(b.symOpen, symOpen{name: name, start: b.PC()})
	return b
}

// EndSymbol closes the most recently opened symbol. The symbol covers
// [start, current PC).
func (b *Builder) EndSymbol() *Builder {
	if len(b.symOpen) == 0 {
		b.setErr(fmt.Errorf("isa: EndSymbol without BeginSymbol"))
		return b
	}
	open := b.symOpen[len(b.symOpen)-1]
	b.symOpen = b.symOpen[:len(b.symOpen)-1]
	b.symbols = append(b.symbols, Symbol{Name: open.name, Start: open.start, End: b.PC()})
	return b
}

// Nop emits a one-cycle no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: OpNop}) }

// Compute emits a compressed block of n ALU instructions (n cycles,
// n retired instructions). n must be positive.
func (b *Builder) Compute(n int64) *Builder {
	if n <= 0 {
		b.setErr(fmt.Errorf("isa: Compute(%d): n must be positive", n))
		n = 1
	}
	return b.emit(Instr{Op: OpCompute, Imm: n})
}

// MovImm emits dst = imm.
func (b *Builder) MovImm(dst Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpMovImm, Dst: dst, Imm: imm})
}

// Mov emits dst = src.
func (b *Builder) Mov(dst, src Reg) *Builder {
	return b.emit(Instr{Op: OpMov, Dst: dst, Src1: src})
}

// Add emits dst = a + b.
func (b *Builder) Add(dst, a, bb Reg) *Builder {
	return b.emit(Instr{Op: OpAdd, Dst: dst, Src1: a, Src2: bb})
}

// AddImm emits dst = a + imm.
func (b *Builder) AddImm(dst, a Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpAddImm, Dst: dst, Src1: a, Imm: imm})
}

// Sub emits dst = a - b.
func (b *Builder) Sub(dst, a, bb Reg) *Builder {
	return b.emit(Instr{Op: OpSub, Dst: dst, Src1: a, Src2: bb})
}

// Mul emits dst = a * b.
func (b *Builder) Mul(dst, a, bb Reg) *Builder {
	return b.emit(Instr{Op: OpMul, Dst: dst, Src1: a, Src2: bb})
}

// And emits dst = a & b.
func (b *Builder) And(dst, a, bb Reg) *Builder {
	return b.emit(Instr{Op: OpAnd, Dst: dst, Src1: a, Src2: bb})
}

// Or emits dst = a | b.
func (b *Builder) Or(dst, a, bb Reg) *Builder {
	return b.emit(Instr{Op: OpOr, Dst: dst, Src1: a, Src2: bb})
}

// Xor emits dst = a ^ b.
func (b *Builder) Xor(dst, a, bb Reg) *Builder {
	return b.emit(Instr{Op: OpXor, Dst: dst, Src1: a, Src2: bb})
}

// Shl emits dst = a << k.
func (b *Builder) Shl(dst, a Reg, k int64) *Builder {
	return b.emit(Instr{Op: OpShl, Dst: dst, Src1: a, Imm: k})
}

// Shr emits dst = a >> k.
func (b *Builder) Shr(dst, a Reg, k int64) *Builder {
	return b.emit(Instr{Op: OpShr, Dst: dst, Src1: a, Imm: k})
}

// Load emits dst = mem64[base + off].
func (b *Builder) Load(dst, base Reg, off int64) *Builder {
	return b.emit(Instr{Op: OpLoad, Dst: dst, Src1: base, Imm: off})
}

// Store emits mem64[base + off] = src.
func (b *Builder) Store(base Reg, off int64, src Reg) *Builder {
	return b.emit(Instr{Op: OpStore, Src1: base, Src2: src, Imm: off})
}

// CAS emits dst = CAS(mem64[addr], expect, newv): the old value lands in
// dst; the store happens only if the old value equaled expect.
func (b *Builder) CAS(dst, addr, expect, newv Reg) *Builder {
	return b.emit(Instr{Op: OpCAS, Dst: dst, Src1: addr, Src2: expect, Imm: int64(newv)})
}

// XAdd emits dst = fetch-and-add(mem64[addr], delta).
func (b *Builder) XAdd(dst, addr, delta Reg) *Builder {
	return b.emit(Instr{Op: OpXAdd, Dst: dst, Src1: addr, Src2: delta})
}

// MovLabel emits dst = instruction index of label, resolved at Build
// time. Used to pass code addresses (e.g. signal handlers) to
// syscalls.
func (b *Builder) MovLabel(dst Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: b.PC(), label: label})
	return b.emit(Instr{Op: OpMovImm, Dst: dst})
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: b.PC(), label: label})
	return b.emit(Instr{Op: OpJmp})
}

// Br emits a conditional branch to label when cond holds for (a, b).
func (b *Builder) Br(cond Cond, a, bb Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: b.PC(), label: label})
	return b.emit(Instr{Op: OpBr, Cond: cond, Src1: a, Src2: bb})
}

// BrRand emits a randomized branch to label taken with probability
// num/255, drawn from the executing thread's deterministic RNG.
func (b *Builder) BrRand(num uint8, label string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: b.PC(), label: label})
	return b.emit(Instr{Op: OpBrRand, Cond: Cond(num)})
}

// Rand emits dst = next deterministic PRNG value.
func (b *Builder) Rand(dst Reg) *Builder {
	return b.emit(Instr{Op: OpRand, Dst: dst})
}

// RdPMC emits dst = hardware counter idx.
func (b *Builder) RdPMC(dst Reg, idx int64) *Builder {
	return b.emit(Instr{Op: OpRdPMC, Dst: dst, Imm: idx})
}

// RdPMCDestructive emits a destructive (read-and-reset) counter read,
// the paper's proposed hardware enhancement e2. Executing it on a PMU
// without DestructiveReads enabled faults.
func (b *Builder) RdPMCDestructive(dst Reg, idx int64) *Builder {
	return b.emit(Instr{Op: OpRdPMC, Dst: dst, Imm: idx, Cond: 1})
}

// RdCycle emits dst = core cycle counter (rdtsc analogue).
func (b *Builder) RdCycle(dst Reg) *Builder {
	return b.emit(Instr{Op: OpRdCycle, Dst: dst})
}

// Syscall emits a trap with the given syscall number.
func (b *Builder) Syscall(num int64) *Builder {
	return b.emit(Instr{Op: OpSyscall, Imm: num})
}

// SigReturn emits a return-from-signal-handler.
func (b *Builder) SigReturn() *Builder { return b.emit(Instr{Op: OpSigReturn}) }

// Halt emits a thread-exit.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: OpHalt}) }

// Build resolves all label references and returns the program. The
// Builder must not be reused afterwards.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.symOpen) != 0 {
		return nil, fmt.Errorf("isa: %d unclosed symbol(s), first %q",
			len(b.symOpen), b.symOpen[0].name)
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q referenced at pc %d", f.label, f.pc)
		}
		b.instrs[f.pc].Imm = int64(target)
	}
	syms := make([]Symbol, len(b.symbols))
	copy(syms, b.symbols)
	sort.SliceStable(syms, func(i, j int) bool {
		if syms[i].Start != syms[j].Start {
			return syms[i].Start < syms[j].Start
		}
		return syms[i].End > syms[j].End // outer ranges first
	})
	return &Program{Instrs: b.instrs, Labels: b.labels, Symbols: syms}, nil
}

// MustBuild is Build but panics on error. Intended for statically
// constructed programs where a build failure is a programming bug.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Package cpu implements the simulated processor core: Run executes a
// thread Context's instructions until a trap, a pending counter
// overflow, a stop clock or a step budget, charges cycle costs through
// the cache and branch-predictor models, and feeds every architectural
// event into the core's PMU. Traps (syscalls, faults, thread exit) are
// returned to the caller — the kernel's burst loop — which routes
// them; the core itself knows nothing about the OS.
package cpu

import (
	"fmt"

	"limitsim/internal/branch"
	"limitsim/internal/cache"
	"limitsim/internal/isa"
	"limitsim/internal/mem"
	"limitsim/internal/pmu"
	"limitsim/internal/tlb"
)

// TrapKind classifies why Run stopped normal execution.
type TrapKind uint8

// Trap kinds.
const (
	// TrapNone: the instruction completed; execution may continue.
	TrapNone TrapKind = iota
	// TrapSyscall: an OpSyscall executed; SyscallNum carries the number.
	TrapSyscall
	// TrapSigReturn: an OpSigReturn executed; the kernel must pop the
	// signal frame.
	TrapSigReturn
	// TrapHalt: the thread executed OpHalt and is done.
	TrapHalt
	// TrapFault: the thread did something illegal; Fault describes it.
	TrapFault
)

func (t TrapKind) String() string {
	switch t {
	case TrapNone:
		return "none"
	case TrapSyscall:
		return "syscall"
	case TrapSigReturn:
		return "sigreturn"
	case TrapHalt:
		return "halt"
	case TrapFault:
		return "fault"
	}
	return "trap?"
}

// StepResult reports the outcome of executing one instruction.
type StepResult struct {
	Trap       TrapKind
	SyscallNum int64
	Fault      string
	// Cycles is the cost charged for the instruction.
	Cycles uint64
	// Instrs is the number of instructions retired (Imm for OpCompute
	// blocks, otherwise 1).
	Instrs uint64
}

// Core is one simulated processor core.
type Core struct {
	ID     int
	Now    uint64 // local cycle clock
	Caches *cache.Hierarchy
	TLB    *tlb.TLB
	Pred   branch.Predictor
	PMU    *pmu.PMU
	Cost   CostModel

	// Per-core translation hint: the word array backing the last page
	// this core touched, so hit-dominated access streams skip the
	// space's page-map lookup entirely. hintSpace/hintBase/hintGen
	// validate the hint; hintWr is non-nil only once the page's dirty
	// barrier has run this generation (mem.Space.WritePage), and
	// hintRd aliases it then. A generation change in the space
	// (Snapshot/Restore) invalidates via the hintGen compare.
	hintSpace *mem.Space
	hintBase  uint64
	hintGen   uint64
	hintRd    *mem.PageData
	hintWr    *mem.PageData
}

// load reads the word at addr through the translation hint.
func (c *Core) load(m *mem.Space, addr uint64) uint64 {
	mem.CheckAligned(addr)
	base := addr &^ uint64(mem.PageSize-1)
	if c.hintRd == nil || c.hintBase != base || c.hintSpace != m || c.hintGen != m.Gen() {
		c.hintRd = m.ReadPage(addr)
		c.hintWr = nil
		c.hintSpace, c.hintBase, c.hintGen = m, base, m.Gen()
	}
	return c.hintRd[(addr&(mem.PageSize-1))>>3]
}

// store writes the word at addr through the translation hint. The
// write side demands hintWr, which proves the page's dirty barrier ran
// in the current generation.
func (c *Core) store(m *mem.Space, addr, v uint64) {
	mem.CheckAligned(addr)
	base := addr &^ uint64(mem.PageSize-1)
	if c.hintWr == nil || c.hintBase != base || c.hintSpace != m || c.hintGen != m.Gen() {
		c.hintWr = m.WritePage(addr)
		c.hintRd = c.hintWr
		c.hintSpace, c.hintBase, c.hintGen = m, base, m.Gen()
	}
	c.hintWr[(addr&(mem.PageSize-1))>>3] = v
}

// NewCore builds a core with default cache, TLB, predictor, cost
// model, and the given PMU features.
func NewCore(id int, feats pmu.Features) *Core {
	return &Core{
		ID:     id,
		Caches: cache.NewDefault(),
		TLB:    tlb.NewDefault(),
		Pred:   branch.NewGshare(14),
		PMU:    pmu.New(feats),
		Cost:   DefaultCostModel(),
	}
}

// Reset returns the core to the state NewCore(c.ID, feats) builds,
// keeping the storage of its parts: clock 0, no translation hint,
// empty caches and TLB, a cleared gshare predictor, and a PMU with
// feats whose counters are all disabled and zero. The cost model,
// which nothing changes after NewCore, stays as it is.
func (c *Core) Reset(feats pmu.Features) {
	c.Now = 0
	c.hintSpace, c.hintBase, c.hintGen, c.hintRd, c.hintWr = nil, 0, 0, nil, nil
	c.Caches.Reset()
	c.TLB.FlushAll()
	c.Pred.(*branch.Gshare).Reset()
	c.PMU.Reset(feats)
}

// KernelWork models the kernel executing on this core for the given
// number of cycles, retiring approximately 0.8 instructions per cycle.
// Events land in the kernel ring. The kernel calls this for every
// syscall handler, context switch, interrupt, and signal delivery.
func (c *Core) KernelWork(cycles uint64) {
	c.Now += cycles
	c.PMU.AddKernel(pmu.EvCycles, cycles)
	c.PMU.AddKernel(pmu.EvInstructions, cycles*4/5)
}

// KernelCachePollution models kernel data touching n cache lines
// starting at base (a per-kernel address region), evicting victim
// application lines as a side effect and charging the access latency in
// kernel ring.
func (c *Core) KernelCachePollution(base uint64, n int) {
	// One bulk walk, its miss counts fed to the PMU once per event.
	// This is observationally identical to per-line AddEvent calls:
	// pending overflows are a bitmask the machine loop consumes only at
	// instruction boundaries, i.e. after this whole call, and counter
	// sums are order-independent within it.
	cycles, miss1, miss2, missL := c.Caches.AccessLines(base, 64, n)
	c.PMU.AddKernel(pmu.EvLoads, uint64(n))
	c.PMU.AddKernel(pmu.EvL1DMiss, miss1)
	c.PMU.AddKernel(pmu.EvL2Miss, miss2)
	c.PMU.AddKernel(pmu.EvLLCMiss, missL)
	c.Now += cycles
	c.PMU.AddKernel(pmu.EvCycles, cycles)
}

// Step executes exactly one instruction of ctx on this core: Run with
// a budget of one. The caller must check for pending interrupts
// (timer, PMU overflow) around Step; Step itself never switches
// contexts.
func (c *Core) Step(ctx *Context) StepResult {
	var op StepResult
	start := c.Now
	_, instrs, trap := c.Run(ctx, &op, 0, 1)
	return StepResult{Trap: trap, SyscallNum: op.SyscallNum, Fault: op.Fault, Cycles: c.Now - start, Instrs: instrs}
}

// regIndexMask masks architectural register indices to the file size.
// NumRegs is a power of two and the builder API only names R0..R15, so
// masking is the identity on every constructible program while proving
// to the compiler that register accesses cannot fault — which removes
// a bounds check from nearly every interpreted instruction.
const regIndexMask = isa.NumRegs - 1

// Run executes ctx's instructions on this core from ctx.PC. It runs at
// least one instruction and stops after the first one that traps,
// leaves a counter overflow pending (the bits stay set for the caller
// to take), brings the clock to stop or past it, or is the budget-th.
// It returns the instructions it stepped (a faulting one included),
// the instructions they retired (Imm for an OpCompute block, 1 for any
// other completed instruction) and the trap that ended it, or
// TrapNone. res receives only the trap's operand: the syscall number
// or the fault text. The cycles the instructions cost are the clock's
// advance.
//
// Run is the simulator's only interpreter loop. The PC and the clock
// live in locals while it runs and are written back on every exit;
// nothing the loop calls reads either (OpRdCycle reads the local).
func (c *Core) Run(ctx *Context, res *StepResult, stop, budget uint64) (steps, instrs uint64, trap TrapKind) {
	code := ctx.Prog.Instrs
	cost := &c.Cost
	pc, now := ctx.PC, c.Now
	for {
		if uint(pc) >= uint(len(code)) {
			res.Fault = fmt.Sprintf("pc %d out of range [0,%d)", pc, len(code))
			goto fault
		}
		in := &code[pc]
		nextPC := pc + 1
		cycles, n := cost.ALU, uint64(1)

		switch in.Op {
		case isa.OpNop:
			// one ALU cycle

		case isa.OpCompute:
			cycles = uint64(in.Imm)
			n = uint64(in.Imm)

		case isa.OpMovImm:
			ctx.Regs[in.Dst&regIndexMask] = uint64(in.Imm)
		case isa.OpMov:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask]
		case isa.OpAdd:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] + ctx.Regs[in.Src2&regIndexMask]
		case isa.OpAddImm:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] + uint64(in.Imm)
		case isa.OpSub:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] - ctx.Regs[in.Src2&regIndexMask]
		case isa.OpMul:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] * ctx.Regs[in.Src2&regIndexMask]
			cycles = cost.Mul
		case isa.OpAnd:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] & ctx.Regs[in.Src2&regIndexMask]
		case isa.OpOr:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] | ctx.Regs[in.Src2&regIndexMask]
		case isa.OpXor:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] ^ ctx.Regs[in.Src2&regIndexMask]
		case isa.OpShl:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] << (uint64(in.Imm) & 63)
		case isa.OpShr:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Regs[in.Src1&regIndexMask] >> (uint64(in.Imm) & 63)

		case isa.OpLoad:
			addr := ctx.Regs[in.Src1&regIndexMask] + uint64(in.Imm)
			cycles = cost.MemBase + c.memAccess(addr)
			ctx.Regs[in.Dst&regIndexMask] = c.load(ctx.Mem, addr)
			c.PMU.AddUser(pmu.EvLoads, 1)

		case isa.OpStore:
			addr := ctx.Regs[in.Src1&regIndexMask] + uint64(in.Imm)
			cycles = cost.MemBase + c.memAccess(addr)
			c.store(ctx.Mem, addr, ctx.Regs[in.Src2&regIndexMask])
			c.PMU.AddUser(pmu.EvStores, 1)

		case isa.OpCAS:
			addr := ctx.Regs[in.Src1&regIndexMask]
			cycles = cost.MemBase + c.memAccess(addr) + cost.AtomicPenalty
			old := c.load(ctx.Mem, addr)
			if old == ctx.Regs[in.Src2&regIndexMask] {
				c.store(ctx.Mem, addr, ctx.Regs[isa.Reg(in.Imm)&regIndexMask])
				c.PMU.AddUser(pmu.EvStores, 1)
			}
			ctx.Regs[in.Dst&regIndexMask] = old
			c.PMU.AddUser(pmu.EvLoads, 1)
			c.PMU.AddUser(pmu.EvAtomics, 1)

		case isa.OpXAdd:
			addr := ctx.Regs[in.Src1&regIndexMask]
			cycles = cost.MemBase + c.memAccess(addr) + cost.AtomicPenalty
			old := c.load(ctx.Mem, addr)
			c.store(ctx.Mem, addr, old+ctx.Regs[in.Src2&regIndexMask])
			ctx.Regs[in.Dst&regIndexMask] = old
			c.PMU.AddUser(pmu.EvLoads, 1)
			c.PMU.AddUser(pmu.EvStores, 1)
			c.PMU.AddUser(pmu.EvAtomics, 1)

		case isa.OpJmp:
			nextPC = int(in.Imm)
			cycles = cost.Branch

		case isa.OpBr:
			taken := in.Cond.Eval(ctx.Regs[in.Src1&regIndexMask], ctx.Regs[in.Src2&regIndexMask])
			cycles = c.branchCost(uint64(pc), taken)
			if taken {
				nextPC = int(in.Imm)
			}

		case isa.OpBrRand:
			taken := uint8(ctx.Rand()) < uint8(in.Cond)
			cycles = c.branchCost(uint64(pc), taken)
			if taken {
				nextPC = int(in.Imm)
			}

		case isa.OpRand:
			ctx.Regs[in.Dst&regIndexMask] = ctx.Rand()
			cycles = 6 // inlined xorshift

		case isa.OpRdPMC:
			idx := int(in.Imm)
			switch {
			case !ctx.AllowRdPMC:
				res.Fault = fmt.Sprintf("rdpmc at pc %d without userspace counter access", pc)
				goto fault
			case idx < 0 || idx >= c.PMU.NumCounters():
				res.Fault = fmt.Sprintf("rdpmc of nonexistent counter %d", idx)
				goto fault
			case in.Cond == 0:
				ctx.Regs[in.Dst&regIndexMask] = c.PMU.Read(idx)
			case !c.PMU.Features().DestructiveReads:
				res.Fault = "destructive rdpmc without hardware support"
				goto fault
			default:
				ctx.Regs[in.Dst&regIndexMask] = c.PMU.ReadAndReset(idx)
			}
			cycles = cost.RdPMC

		case isa.OpRdCycle:
			ctx.Regs[in.Dst&regIndexMask] = now
			cycles = cost.RdCycle

		case isa.OpSyscall:
			trap = TrapSyscall
			res.SyscallNum = in.Imm
			cycles = cost.TrapEntry
			c.PMU.AddUser(pmu.EvSyscalls, 1)

		case isa.OpSigReturn:
			if ctx.SigDepth == 0 {
				res.Fault = fmt.Sprintf("sigreturn outside signal handler at pc %d", pc)
				goto fault
			}
			trap = TrapSigReturn

		case isa.OpHalt:
			trap = TrapHalt

		default:
			res.Fault = fmt.Sprintf("illegal opcode %d at pc %d", in.Op, pc)
			goto fault
		}

		pc = nextPC
		now += cycles
		c.PMU.AddRetire(n, cycles)
		steps++
		instrs += n
		if trap != TrapNone || now >= stop || steps >= budget || c.PMU.HasPending() {
			ctx.PC, c.Now = pc, now
			return steps, instrs, trap
		}
	}

	// A faulting instruction retires nothing and leaves the PC on
	// itself.
fault:
	ctx.PC, c.Now = pc, now
	return steps + 1, instrs, TrapFault
}

// memAccess runs addr through the TLB and cache hierarchy, counts miss
// events, and returns the latency.
func (c *Core) memAccess(addr uint64) uint64 {
	tr := c.TLB.Translate(addr)
	if tr.MissL1 {
		c.PMU.AddUser(pmu.EvDTLBMiss, 1)
	}
	if tr.MissL2 {
		c.PMU.AddUser(pmu.EvDTLBWalk, 1)
	}
	r := c.Caches.Access(addr)
	if r.MissL1 {
		c.PMU.AddUser(pmu.EvL1DMiss, 1)
	}
	if r.MissL2 {
		c.PMU.AddUser(pmu.EvL2Miss, 1)
	}
	if r.MissLLC {
		c.PMU.AddUser(pmu.EvLLCMiss, 1)
	}
	return tr.Cycles + r.Cycles
}

// branchCost consults and trains the predictor, counts branch events,
// and returns the cycle cost.
func (c *Core) branchCost(pc uint64, taken bool) uint64 {
	var predicted bool
	if g, ok := c.Pred.(*branch.Gshare); ok {
		// The default predictor, devirtualized: one fused table access
		// instead of two interface calls.
		predicted = g.PredictUpdate(pc, taken)
	} else {
		predicted = c.Pred.Predict(pc)
		c.Pred.Update(pc, taken)
	}
	c.PMU.AddUser(pmu.EvBranches, 1)
	if predicted != taken {
		c.PMU.AddUser(pmu.EvBranchMiss, 1)
		return c.Cost.Branch + c.Cost.MispredictPenalty
	}
	return c.Cost.Branch
}

package kernel

import (
	"limitsim/internal/isa"
	"limitsim/internal/trace"
)

// post queues a signal for a thread. Signals with no installed handler
// are dropped at delivery time (the kernel's "default ignore"
// disposition; the simulated programs install handlers for everything
// they rely on).
func (k *Kernel) post(t *Thread, num int, arg uint64) {
	t.pending = append(t.pending, signal{num: num, arg: arg})
	k.Stats.SignalsSent++
}

// deliverSignals delivers one pending signal to the current thread on
// its way back to user mode. Only one signal is delivered per
// user-mode boundary; the rest wait for the next boundary, as on a real
// kernel where delivery happens one frame at a time.
func (k *Kernel) deliverSignals(coreID int, t *Thread) {
	for len(t.pending) > 0 {
		sig := t.pending[0]
		t.pending = t.pending[1:]
		handler, ok := t.Proc.handlers[sig.num]
		if !ok {
			continue // default: ignore
		}
		core := k.cores[coreID]
		core.KernelWork(k.cfg.Costs.SignalDeliver)

		// A signal can interrupt a LiMiT read sequence; the fixup must
		// land in the *saved* frame so the read restarts on sigreturn.
		k.applyFixup(t)

		k.tr(coreID, t, trace.Signal, uint64(sig.num))
		frame := t.Ctx.Clone()
		t.sigFrames = append(t.sigFrames, frame)
		t.Ctx.PC = handler
		t.Ctx.Regs[isa.R0] = uint64(sig.num)
		t.Ctx.Regs[isa.R1] = sig.arg
		t.Ctx.SigDepth++
		t.Stats.Signals++
		return
	}
}

// sigReturn pops the top signal frame, restoring the interrupted
// context (including the possibly rewound PC).
func (k *Kernel) sigReturn(coreID int, t *Thread) {
	if len(t.sigFrames) == 0 {
		k.faultThread(coreID, t, "sigreturn with empty signal stack")
		return
	}
	k.cores[coreID].KernelWork(k.cfg.Costs.SigReturn)
	t.Ctx = t.sigFrames[len(t.sigFrames)-1]
	t.sigFrames = t.sigFrames[:len(t.sigFrames)-1]
}

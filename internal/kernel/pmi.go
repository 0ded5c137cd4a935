package kernel

import "limitsim/internal/trace"

// handlePMI services counter-overflow interrupts raised on coreID.
// mask is the bitmask of overflowed hardware counters, which map 1:1 to
// the current thread's counter table. Overflow semantics per kind:
//
//   - LiMiT (FoldInKernel): fold one write-limit chunk into the 64-bit
//     virtual counter in user memory and subtract it from the hardware
//     counter, keeping the hardware value restorable. Then apply the
//     PC-rewind fixup: if the interrupt landed inside a read-critical
//     region, the in-flight read must restart or it would combine a
//     pre-fold hardware value with a post-fold virtual counter.
//   - LiMiT (SignalUser): subtract the chunk from the hardware counter
//     and post SIGPMU; the userspace handler performs the fold.
//   - Sampling: record (tid, pc, cycle) and re-arm the counter at
//     threshold−period.
//   - Groups, perf counters' included: overflow interrupts are not
//     programmed; a stray one is ignored.
func (k *Kernel) handlePMI(coreID int, mask uint64) {
	core := k.cores[coreID]
	t := k.cur[coreID]
	core.KernelWork(k.cfg.Costs.PMIHandler)
	k.Stats.PMIs++
	k.tr(coreID, t, trace.PMI, mask)
	if t == nil {
		// Stray interrupt with no owner; nothing to virtualize, but the
		// interrupt was serviced, so its latency marks must not linger.
		k.observePMIService(coreID, mask)
		return
	}
	k.pmiFor(coreID, t, mask)
	k.applyFixup(t)
}

// pmiFor performs the per-counter overflow work for thread t, which
// owns the core's current counter programming. The interrupt mask is
// in hardware-slot space; a loaded pinned counter sits at slot ==
// index, and any other slot is free or a group's.
func (k *Kernel) pmiFor(coreID int, t *Thread, mask uint64) {
	core := k.cores[coreID]
	k.observePMIService(coreID, mask)
	for slot := 0; mask != 0; slot, mask = slot+1, mask>>1 {
		if mask&1 == 0 {
			continue
		}
		tc := t.pinnedIn(slot)
		if tc == nil {
			continue
		}
		switch tc.Kind {
		case KindLimit:
			chunk := core.PMU.WriteLimit()
			v := core.PMU.Read(slot)
			if v < chunk {
				continue // already folded (e.g. by a racing save)
			}
			// A single large event batch can cross the threshold by
			// several chunks; fold them all, or the width-restricted
			// Write below would silently truncate the remainder.
			for v >= chunk {
				v -= chunk
				tc.Overflows++
				k.Stats.OverflowFolds++
				core.KernelWork(k.cfg.Costs.OverflowFold)
				if k.cfg.LimitOverflow == FoldInKernel {
					t.Proc.Mem.Add64(tc.TableAddr, chunk)
					k.probeFold(coreID, t, tc, chunk)
				} else {
					k.post(t, SIGPMU, uint64(slot))
				}
			}
			core.PMU.Write(slot, v)
		case KindSample:
			k.samples = append(k.samples, Sample{TID: t.ID, PC: t.Ctx.PC, Cycle: core.Now})
			core.KernelWork(k.cfg.Costs.SampleRecord)
			threshold := uint64(1) << uint(tc.OverflowBit)
			// Jitter the re-arm point (as perf does) so periodic code
			// cannot phase-lock with the sampling period and alias.
			jitter := k.rand() % (tc.Period/8 + 1)
			core.PMU.Write(slot, threshold-tc.Period+jitter)
			tc.Overflows++
		}
	}
}

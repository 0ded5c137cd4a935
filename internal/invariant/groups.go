package invariant

import "limitsim/internal/kernel"

// Event-group oracles: the multiplexing scheduler's accounting must
// conserve exactly, by construction, even under chaos — a rotation
// boundary colliding with a forced preemption or a delayed PMI must
// not tear the enabled/running ledgers.
const (
	// KindGroupConserve: a group's enabled time disagrees with the
	// kernel's scheduled-time ground truth over the group's open
	// interval.
	KindGroupConserve = "group-conservation"
	// KindGroupTear: internal group accounting is inconsistent —
	// running exceeds enabled, or a never-unloaded group's raw counts
	// disagree with omniscient ground truth.
	KindGroupTear = "group-accounting-tear"
	// KindFrameOrder: the frame stream is out of order or inconsistent
	// with the groups that produced it.
	KindFrameOrder = "frame-order"
)

// CheckGroups audits every thread's event groups — its SysGroupOpen
// groups and its perf counters' one-event groups alike — and the
// kernel's frame stream after a run:
//
//   - Conservation: an open group's enabled time equals the thread's
//     scheduled cycles since open (closed groups: since open until
//     close), exactly — no cycle lost or double counted across
//     rotations, preemptions, migrations, or chaos kills.
//   - Tear-freedom: running never exceeds enabled, and a group with
//     running == enabled (never unloaded while scheduled) has raw
//     counts exactly equal to the kernel's per-event ground truth and
//     estimates equal to raw.
//   - Frame sanity (SysGroupOpen groups only; perf groups emit no
//     frames): kernel-wide sequence numbers strictly increase,
//     per-thread cycles and per-sample enabled/running times are
//     non-decreasing (they are cumulative), and every group-holding
//     thread that exited left a final frame. Estimates are exempt: a
//     scaled projection (raw x enabled/running) legally shrinks as the
//     running window converges on the enabled window — the same
//     non-monotonicity Linux perf's scaled reads exhibit.
func (c *Checker) CheckGroups(k *kernel.Kernel) {
	hasGroups := make(map[int]bool)
	for _, t := range k.Threads() {
		gs := t.Groups()
		if len(gs) != 0 {
			hasGroups[t.ID] = true
		}
		for gi, g := range gs {
			c.checkGroup(t, "group", gi, g)
		}
		for fd, tc := range t.Counters() {
			if g := tc.Group(); g != nil {
				c.checkGroup(t, "perf fd", fd, g)
			}
		}
	}

	frames := k.Frames()
	lastCycle := make(map[int]uint64)
	type sampleKey struct {
		tid, group, idx int
	}
	prev := make(map[sampleKey]kernel.FrameSample)
	finals := make(map[int]bool)
	for i := range frames {
		f := &frames[i]
		if i > 0 && f.Seq <= frames[i-1].Seq {
			c.report(f.TID, KindFrameOrder,
				"frame %d seq %d not after previous seq %d", i, f.Seq, frames[i-1].Seq)
		}
		if f.Cycle < lastCycle[f.TID] {
			c.report(f.TID, KindFrameOrder,
				"frame %d cycle %d precedes the thread's previous frame at %d",
				i, f.Cycle, lastCycle[f.TID])
		}
		lastCycle[f.TID] = f.Cycle
		if f.Final {
			finals[f.TID] = true
		}
		for j, s := range f.Samples {
			key := sampleKey{f.TID, s.Group, j}
			if p, ok := prev[key]; ok {
				if s.Enabled < p.Enabled || s.Running < p.Running {
					c.report(f.TID, KindFrameOrder,
						"frame %d group %d sample %d regressed: enabled %d<%d or running %d<%d",
						i, s.Group, j, s.Enabled, p.Enabled, s.Running, p.Running)
				}
			}
			if s.Running > s.Enabled {
				c.report(f.TID, KindGroupTear,
					"frame %d group %d sample %d running %d exceeds enabled %d",
					i, s.Group, j, s.Running, s.Enabled)
			}
			prev[key] = s
		}
	}
	for _, t := range k.Threads() {
		if hasGroups[t.ID] && t.State == kernel.StateDone && !finals[t.ID] {
			c.report(t.ID, KindFrameOrder, "group-holding thread exited without a final frame")
		}
	}
}

// checkGroup audits one group's conservation and tear-freedom; table
// and id label it in reports ("group 2", "perf fd 0").
func (c *Checker) checkGroup(t *kernel.Thread, table string, id int, g *kernel.EventGroup) {
	want := t.Stats.SchedCycles - g.OpenSchedMark
	if g.Closed {
		want = g.CloseSchedMark - g.OpenSchedMark
	}
	if g.EnabledCycles != want {
		c.report(t.ID, KindGroupConserve,
			"%s %d enabled %d cycles but was open for %d scheduled cycles",
			table, id, g.EnabledCycles, want)
	}
	if g.RunningCycles > g.EnabledCycles {
		c.report(t.ID, KindGroupTear,
			"%s %d running %d exceeds enabled %d",
			table, id, g.RunningCycles, g.EnabledCycles)
	}
	if g.RunningCycles != g.EnabledCycles || g.EnabledCycles == 0 {
		return
	}
	for i := range g.Events {
		if g.Raw[i] != g.True[i] {
			c.report(t.ID, KindGroupTear,
				"%s %d event %d raw %d != ground truth %d despite running == enabled",
				table, id, i, g.Raw[i], g.True[i])
		}
		if g.Estimate(i) != g.Raw[i] {
			c.report(t.ID, KindGroupTear,
				"%s %d event %d estimate %d != raw %d despite running == enabled",
				table, id, i, g.Estimate(i), g.Raw[i])
		}
	}
}

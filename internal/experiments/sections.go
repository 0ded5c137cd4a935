package experiments

import (
	"errors"
	"io"
	"sync"
)

// Section is one section of the reproduced evaluation report. Its ID
// (T1, F3, A2, M1, ...) is the first word of its title.
type Section struct {
	Title string
	// Run executes the experiment and renders its result to w. A faulted
	// or deadlocked simulation, or a violated result oracle, returns an
	// error.
	Run func(w io.Writer) error
}

// Sections is the experiment registry: every report section at scale
// s, in report order. Nothing runs until a section's Run is called;
// F3, F4 and F6 share one lazily computed RunCaseStudies result.
func Sections(s Scale) []Section {
	cs := sync.OnceValues(func() (*CaseStudyResult, error) { return RunCaseStudies(s) })
	caseStudy := func(render func(*CaseStudyResult, io.Writer)) func(io.Writer) error {
		return func(w io.Writer) error {
			r, err := cs()
			if err != nil {
				return err
			}
			render(r, w)
			return nil
		}
	}
	return []Section{
		{"T1 — Access-method cost", rendered(s, RunTable1)},
		{"T2 — Read-sequence breakdown", rendered(s, RunTable2)},
		{"T3 — Context-switch cost", rendered(s, RunTable3)},
		{"S1 — Self-measurement (LiMiT measuring LiMiT)", rendered(s, RunSelfMeasure)},
		{"F1 — Measurement self-perturbation", rendered(s, RunFig1)},
		{"F2 — Slowdown vs instrumentation density", rendered(s, RunFig2)},
		{"F3 — Critical-section length distributions", caseStudy((*CaseStudyResult).RenderFig3)},
		{"F4 — Cycle decomposition", caseStudy((*CaseStudyResult).RenderFig4)},
		{"F6 — Kernel vs user cycles", caseStudy((*CaseStudyResult).RenderFig6)},
		{"F5 — MySQL longitudinal", rendered(s, RunFig5)},
		{"T4 — Sampling vs precise attribution", rendered(s, RunTable4)},
		{"T5 — Counter multiplexing estimation error", rendered(s, RunTable5)},
		{"F7 — Hardware-counter enhancements", rendered(s, RunFig7)},
		{"F8 — Bottleneck identification (multi-event)", rendered(s, RunFig8)},
		{"F9 — Consolidation interference", rendered(s, RunFig9)},
		{"A1 — Overflow folding mechanism", rendered(s, RunAblationOverflow)},
		{"A2 — Quantum vs PC-rewind rate", rendered(s, RunAblationQuantum)},
		{"A3 — Mutex spin budget", rendered(s, RunAblationSpins)},
		{"A4 — Scheduler placement policy", rendered(s, RunAblationScheduler)},
		{"M1 — Multi-tenant attribution under the double context switch",
			checked(s, RunM1, "tenant attribution oracles reported violations")},
		{"M2 — Multiplexed-estimate error vs exact LiMiT reads",
			checked(s, RunM2, "group accounting oracles reported violations")},
	}
}

// renderer is any experiment result that can write itself.
type renderer interface{ Render(io.Writer) }

// rendered adapts a runner whose result renders itself to Section.Run.
func rendered[R renderer](s Scale, run func(Scale) (R, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		r, err := run(s)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
}

// checked is rendered for results that carry oracles: the result still
// renders, then a violation fails the section with the given message.
func checked[R interface {
	renderer
	Clean() bool
}](s Scale, run func(Scale) (R, error), violation string) func(io.Writer) error {
	return func(w io.Writer) error {
		r, err := run(s)
		if err != nil {
			return err
		}
		r.Render(w)
		if !r.Clean() {
			return errors.New(violation)
		}
		return nil
	}
}

// Package probe names the counter access methods a workload can be
// instrumented with — the apples-to-apples axis behind the paper's
// overhead and precision comparisons. The code each method emits lives
// with the workloads that use it (internal/workloads); this package
// holds only the shared vocabulary:
//
//	limit   — LiMiT userspace reads (the paper's contribution)
//	perf    — one syscall per read (perf_event baseline)
//	papi    — PAPI library over the syscall interface
//	rdtsc   — raw cycle reads (cheap, but cycles only and unvirtualized)
//	sample  — no reads; arms the overflow-driven sampling profiler
//	none    — no instrumentation (the uninstrumented baseline)
package probe

// Kind names an access method in configuration and reports.
type Kind string

// Access method kinds.
const (
	KindNull   Kind = "none"
	KindLimit  Kind = "limit"
	KindPerf   Kind = "perf"
	KindPAPI   Kind = "papi"
	KindRdtsc  Kind = "rdtsc"
	KindSample Kind = "sample"
)

// AllKinds lists every kind in comparison order.
func AllKinds() []Kind {
	return []Kind{KindNull, KindRdtsc, KindLimit, KindPerf, KindPAPI, KindSample}
}

// Profilable reports whether the kind's reads are cheap and precise
// enough to carry region-attribution profiling (internal/profile):
// multi-event bundle reads at every region boundary. Only the LiMiT
// path qualifies — syscall-per-read methods would perturb the regions
// they measure (the paper's Figure 1 argument).
func (k Kind) Profilable() bool { return k == KindLimit }

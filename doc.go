// Package limitsim is a from-scratch Go reproduction of "Rapid
// identification of architectural bottlenecks via precise event
// counting" (Demme & Sethumadhavan, ISCA 2011) — the LiMiT tool —
// on a simulated multicore machine.
//
// The implementation lives under internal/: the simulated hardware
// (isa, cpu, cache, branch, pmu, mem), the simulated operating system
// (kernel, machine), the paper's contribution (limit) and its
// baselines (perfevent, papi, sampling), the instrumented workload
// models (usync, workloads), and the reproduction harness
// (experiments, analysis). See DESIGN.md for the system inventory and
// the per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. Executables are under cmd/; the runnable examples are the
// Example functions in example_test.go, whose output go test checks:
//
//	go test -run Example -v .
//
// The top-level bench suite (bench_test.go) regenerates every table
// and figure:
//
//	go test -bench=. -benchmem .
package limitsim

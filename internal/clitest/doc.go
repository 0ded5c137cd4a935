// Package clitest smoke-tests the repository's command-line binaries
// as real OS processes. It pins the uniform exit-code contract every
// cmd follows — 0 for a successful run, 1 for a runtime failure, 2
// for a usage error (unknown flags, unexpected positional arguments,
// invalid flag combinations, a numeric flag outside its domain) — and
// the fleet end-to-end oracle: a limit-chaos report produced across
// real worker processes (-workers N, each the same binary re-executed
// with the coordinator's flags plus -worker) is byte-identical to the
// in-process report, for tenant campaigns too and under worker
// self-chaos.
//
// The package contains only tests; the binaries are built once per
// test run into a temp directory (skipped under -short).
package clitest

package main

import (
	"errors"
	"fmt"
	"io"

	"limitsim/internal/telemetry"
)

// runMerge folds two or more telemetry JSONL files (the stats
// subcommand's -format jsonl output, or the per-run blocks a fleet
// worker ships) into one registry and emits it. Returns the process
// exit code.
func runMerge(args []string, stdout, stderr io.Writer) int {
	c := newCommand("limitctl merge", stderr, "text", "jsonl")
	c.positional = true
	c.Usage = func() {
		fmt.Fprintln(stderr, "usage: limitctl merge [-format text|jsonl] <file.jsonl> <file.jsonl> [...]")
		c.PrintDefaults()
	}
	if code, ok := c.parse(args, func() []error {
		if c.NArg() == 0 {
			return []error{errors.New("no input files")}
		}
		return nil
	}); !ok {
		return code
	}

	merged, err := fold(c.Args())
	if err != nil {
		return c.exitCode(err)
	}
	if *c.format == "jsonl" {
		return c.exitCode(merged.WriteJSONL(stdout))
	}
	merged.Render(stdout)
	return 0
}

// fold parses each telemetry JSONL file and merges them in order with
// the campaign engines' commutative fold — counters add, gauges add
// with peak-max, histograms add bucketwise — so the result is the same
// however the inputs were sharded. Schema drift between files is an
// error, not a best-effort union: a metric present in one file and
// missing in another, or a histogram whose bucket bounds changed,
// fails naming both files and the metric.
func fold(paths []string) (*telemetry.Registry, error) {
	var merged *telemetry.Registry
	for _, path := range paths {
		var reg *telemetry.Registry
		if err := readFile(path, func(r io.Reader) (err error) {
			reg, err = telemetry.ParseJSONL(r)
			return err
		}); err != nil {
			return nil, err
		}
		if merged == nil {
			merged = reg
		} else if err := merged.Merge(reg); err != nil {
			return nil, fmt.Errorf("schema drift between %s and %s: %w", paths[0], path, err)
		}
	}
	return merged, nil
}

// Package flagcheck gives the commands' numeric flags their domains.
// A value outside its domain is a usage error that names the flag and
// the domain; a command prints it and exits 2 before any simulation
// runs, instead of quietly replacing the value with a default.
package flagcheck

import (
	"fmt"
	"io"
	"math"
)

// Check returns a usage error naming flag and its domain unless ok.
func Check(ok bool, flag, domain string, v any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("-%s must be %s (got %v)", flag, domain, v)
}

// AtLeast requires v >= lo.
func AtLeast(flag string, v, lo int) error {
	return Check(v >= lo, flag, fmt.Sprintf(">= %d", lo), v)
}

// In requires lo <= v <= hi.
func In(flag string, v, lo, hi int) error {
	return Check(v >= lo && v <= hi, flag, fmt.Sprintf("in [%d, %d]", lo, hi), v)
}

// Positive requires a finite v > 0.
func Positive(flag string, v float64) error {
	return Check(v > 0 && !math.IsInf(v, 1), flag, "positive and finite", v)
}

// OK writes each non-nil error to w as "prog: error" and reports
// whether there were none.
func OK(w io.Writer, prog string, errs ...error) bool {
	ok := true
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", prog, err)
			ok = false
		}
	}
	return ok
}

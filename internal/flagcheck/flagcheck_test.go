package flagcheck

import (
	"math"
	"strings"
	"testing"
)

func TestDomains(t *testing.T) {
	cases := []struct {
		err  error
		want string // "" = in the domain
	}{
		{AtLeast("seeds", 1, 1), ""},
		{AtLeast("seeds", 0, 1), "-seeds must be >= 1 (got 0)"},
		{In("width", 10, 10, 48), ""},
		{In("width", 48, 10, 48), ""},
		{In("width", 9, 10, 48), "-width must be in [10, 48] (got 9)"},
		{In("width", 49, 10, 48), "-width must be in [10, 48] (got 49)"},
		{Positive("scale", 0.1), ""},
		{Positive("scale", 0), "-scale must be positive and finite (got 0)"},
		{Positive("scale", math.NaN()), "-scale must be positive and finite (got NaN)"},
		{Positive("scale", math.Inf(1)), "-scale must be positive and finite (got +Inf)"},
	}
	for _, tc := range cases {
		got := ""
		if tc.err != nil {
			got = tc.err.Error()
		}
		if got != tc.want {
			t.Errorf("got %q, want %q", got, tc.want)
		}
	}
}

func TestOKReportsEveryError(t *testing.T) {
	var sb strings.Builder
	if OK(&sb, "prog", nil, AtLeast("a", 0, 1), nil, AtLeast("b", -1, 0)) {
		t.Fatal("OK passed two out-of-domain values")
	}
	want := "prog: -a must be >= 1 (got 0)\nprog: -b must be >= 0 (got -1)\n"
	if sb.String() != want {
		t.Errorf("OK wrote %q, want %q", sb.String(), want)
	}
	sb.Reset()
	if !OK(&sb, "prog", nil, AtLeast("a", 1, 1)) || sb.Len() != 0 {
		t.Errorf("OK rejected in-domain values: %q", sb.String())
	}
}

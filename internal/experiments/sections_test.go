package experiments

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// goldenTitles returns the section headings of the recorded
// limit-experiments golden: each title line is underlined by exactly
// as many '#' bytes as it has.
func goldenTitles(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden/experiments.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var titles []string
	for i := 0; i+1 < len(lines); i++ {
		if lines[i] != "" && lines[i+1] == strings.Repeat("#", len(lines[i])) {
			titles = append(titles, lines[i])
		}
	}
	return titles
}

// TestSectionsRegistry pins the registry against silent drift: titles
// are unique and carry an ID, the order matches the golden report, and
// every section runs clean and writes output.
func TestSectionsRegistry(t *testing.T) {
	id := regexp.MustCompile(`^[A-Z][0-9]+ — `)
	secs := Sections(Quick)
	var titles []string
	seen := make(map[string]bool)
	for _, sec := range secs {
		if seen[sec.Title] {
			t.Errorf("duplicate section title %q", sec.Title)
		}
		seen[sec.Title] = true
		if !id.MatchString(sec.Title) {
			t.Errorf("section title %q does not start with an ID", sec.Title)
		}
		titles = append(titles, sec.Title)
	}
	if golden := goldenTitles(t); !slices.Equal(titles, golden) {
		t.Errorf("registry titles differ from testdata/golden/experiments.txt\nregistry: %q\ngolden:   %q", titles, golden)
	}

	for _, sec := range secs {
		var sb strings.Builder
		if err := sec.Run(&sb); err != nil {
			t.Errorf("%s: %v", sec.Title, err)
		} else if sb.Len() == 0 {
			t.Errorf("%s: wrote no output", sec.Title)
		}
	}
}

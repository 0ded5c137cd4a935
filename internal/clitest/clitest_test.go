package clitest

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds the freshly built cmd binaries for the whole run.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(runMain(m))
}

func runMain(m *testing.M) int {
	if testing.Short() {
		return m.Run() // every test skips under -short
	}
	dir, err := os.MkdirTemp("", "clitest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	out, err := exec.Command("go", "build", "-o", dir, "limitsim/cmd/...").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "clitest: building cmds: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// run executes one built binary and returns its exit code and stderr.
func run(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("clitest runs real binaries")
	}
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	if err == nil {
		return 0, errb.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return ee.ExitCode(), errb.String()
}

// TestExitCodeContract is the table-driven pin of the uniform exit
// discipline: 0 ok, 1 runtime failure, 2 usage error — across every
// binary in cmd/. Usage errors (stray positional arguments, unknown
// flags, invalid combinations) must be cheap: they exit before any
// simulation work starts.
func TestExitCodeContract(t *testing.T) {
	tmp := t.TempDir()
	// A telemetry file whose histogram bounds descend: a parse error,
	// not a crash.
	badBounds := filepath.Join(tmp, "bad-bounds.jsonl")
	line := `{"type":"histogram","name":"h","count":0,"sum":0,"min":0,"max":0,"bounds":[5,3],"counts":[0,0,0]}` + "\n"
	if err := os.WriteFile(badBounds, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		// Exit 0: cheap successful invocations.
		{"limitctl bare help", "limitctl", nil, 0},
		{"limit-chaos tiny campaign", "limit-chaos", []string{"-seeds", "1", "-threads", "2", "-cores", "2", "-iters", "20"}, 0},
		{"limit-fleet in-process tiny", "limit-fleet", []string{"-workers", "0", "-seeds", "1", "-threads", "2", "-cores", "2", "-iters", "20"}, 0},

		// Exit 2: stray positional arguments, everywhere.
		{"limit-chaos stray arg", "limit-chaos", []string{"bogus"}, 2},
		{"limit-fleet stray arg", "limit-fleet", []string{"bogus"}, 2},
		{"limit-experiments stray arg", "limit-experiments", []string{"bogus"}, 2},
		{"limit-profile stray arg", "limit-profile", []string{"bogus"}, 2},
		{"limitctl unknown subcommand", "limitctl", []string{"bogus"}, 2},

		// Exit 2: unknown flags (the flag package's own discipline)
		// and invalid flag combinations.
		{"limit-chaos unknown flag", "limit-chaos", []string{"-no-such-flag"}, 2},
		{"limit-fleet unknown flag", "limit-fleet", []string{"-no-such-flag"}, 2},
		{"limit-chaos ablate without soak", "limit-chaos", []string{"-ablate-reclaim"}, 2},
		{"limit-chaos unknown mix", "limit-chaos", []string{"-mix", "bogus"}, 2},
		{"limit-chaos unknown tenant mix", "limit-chaos", []string{"-tenants", "3", "-mix", "bogus"}, 2},
		{"limit-chaos unknown soak mix", "limit-chaos", []string{"-soak", "-mix", "bogus"}, 2},
		{"limit-experiments unmatched only", "limit-experiments", []string{"-only", "Z9"}, 2},
		{"limit-fleet unknown space", "limit-fleet", []string{"-space", "bogus"}, 2},
		{"limit-fleet ablate without soak", "limit-fleet", []string{"-ablate-reclaim"}, 2},
		{"limitctl merge no files", "limitctl", []string{"merge"}, 2},
		{"limitctl merge unknown format", "limitctl", []string{"merge", "-format", "bogus", "x.jsonl"}, 2},
		{"limitctl trace stray arg", "limitctl", []string{"trace", "bogus"}, 2},
		{"limitctl stats stray arg", "limitctl", []string{"stats", "bogus"}, 2},
		{"limitctl metrics stray arg", "limitctl", []string{"metrics", "bogus"}, 2},
		{"limitctl metrics unknown metric", "limitctl", []string{"metrics", "-metric", "bogus"}, 2},
		{"limitctl metrics unknown format", "limitctl", []string{"metrics", "-format", "bogus"}, 2},
		{"limitctl metrics empty selection", "limitctl", []string{"metrics", "-metric", ","}, 2},
		{"limitctl metrics counters over limit", "limitctl", []string{"metrics", "-counters", "65"}, 2},
		{"limitctl metrics negative counters", "limitctl", []string{"metrics", "-counters", "-1"}, 2},
		{"limitctl zero cores", "limitctl", []string{"-cores", "0"}, 2},
		{"limitctl metrics negative cores", "limitctl", []string{"metrics", "-cores", "-1"}, 2},

		// Exit 1: runtime failures.
		{"limitctl merge missing file", "limitctl", []string{"merge", filepath.Join(tmp, "absent.jsonl")}, 1},
		{"limitctl merge bad histogram bounds", "limitctl", []string{"merge", badBounds, badBounds}, 1},
		{"limitctl report bad histogram bounds", "limitctl", []string{"report", "-o", filepath.Join(tmp, "x.html"), "-telemetry", badBounds}, 1},
		{"limit-chaos unwritable report", "limit-chaos", []string{"-report", filepath.Join(tmp, "no-such-dir", "r.txt")}, 1},
		{"limit-fleet unwritable report", "limit-fleet", []string{"-report", filepath.Join(tmp, "no-such-dir", "r.txt")}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := run(t, tc.bin, tc.args...)
			if code != tc.want {
				t.Errorf("%s %v: exit %d, want %d\nstderr: %s", tc.bin, tc.args, code, tc.want, stderr)
			}
			if strings.Contains(stderr, "panic") {
				t.Errorf("%s %v panicked:\n%s", tc.bin, tc.args, stderr)
			}
		})
	}
}

// TestUnknownMixListsAvailable pins the -mix error surface: an unknown
// name must name itself and enumerate the matrix it was matched
// against — the tenant matrix when -tenants is active, the default
// otherwise.
func TestUnknownMixListsAvailable(t *testing.T) {
	code, stderr := run(t, "limit-chaos", "-mix", "bogus")
	if code != 2 {
		t.Fatalf("unknown mix exited %d, want 2\nstderr: %s", code, stderr)
	}
	for _, want := range []string{`unknown mix "bogus"`, "available mixes:", "pmi-storm", "full-mix"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("unknown-mix stderr missing %q:\n%s", want, stderr)
		}
	}

	code, stderr = run(t, "limit-chaos", "-tenants", "3", "-mix", "bogus")
	if code != 2 {
		t.Fatalf("unknown tenant mix exited %d, want 2\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"vcpu-preempt-storm", "tenant-pmi-storm", "tenant-full-mix"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("tenant unknown-mix stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestUnmatchedOnlyListsSections pins the -only error surface: a
// prefix that matches no section must exit 2 before any simulation
// runs, name itself and enumerate the registry's section titles.
func TestUnmatchedOnlyListsSections(t *testing.T) {
	code, stderr := run(t, "limit-experiments", "-only", "Z9")
	if code != 2 {
		t.Fatalf("unmatched -only exited %d, want 2\nstderr: %s", code, stderr)
	}
	for _, want := range []string{`-only "Z9"`, "available sections:", "T1 — Access-method cost", "M2 — "} {
		if !strings.Contains(stderr, want) {
			t.Errorf("unmatched-only stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestUnknownMetricListsBuiltins pins the metrics error surface: an
// unknown -metric name must exit 2 before any simulation runs and
// enumerate the built-in catalogue.
func TestUnknownMetricListsBuiltins(t *testing.T) {
	code, stderr := run(t, "limitctl", "metrics", "-metric", "bogus")
	if code != 2 {
		t.Fatalf("unknown metric exited %d, want 2\nstderr: %s", code, stderr)
	}
	for _, want := range []string{`unknown metric "bogus"`, "cpi", "kernel_share", "tma_backend"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("unknown-metric stderr missing %q:\n%s", want, stderr)
		}
	}
}

// campaignArgs is the shared tiny campaign both engines run for the
// byte-identity oracles: small enough for a test, wide enough (5 mixes
// × 2 seeds = 10 jobs) to shard meaningfully, with telemetry attached
// so merged metrics cross the process boundary too.
var campaignArgs = []string{"-seeds", "2", "-threads", "3", "-cores", "2", "-iters", "60", "-metrics"}

// singleProcessReport runs limit-chaos once and returns its report.
func singleProcessReport(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "single.txt")
	args := append(append([]string{}, campaignArgs...), "-parallel", "4", "-report", path)
	if code, stderr := run(t, "limit-chaos", args...); code != 0 {
		t.Fatalf("limit-chaos exit %d\nstderr: %s", code, stderr)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFleetReportMatchesSingleProcess is the real-process keystone:
// the limit-fleet report assembled across OS worker processes must be
// byte-identical to limit-chaos's single-process report at every
// shard width.
func TestFleetReportMatchesSingleProcess(t *testing.T) {
	want := singleProcessReport(t)
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "fleet.txt")
		args := append(append([]string{}, campaignArgs...), "-workers", workers, "-report", path)
		code, stderr := run(t, "limit-fleet", args...)
		if code != 0 {
			t.Fatalf("workers=%s: limit-fleet exit %d\nstderr: %s", workers, code, stderr)
		}
		if !strings.Contains(stderr, "fleet summary") {
			t.Errorf("workers=%s: stderr lacks the fleet summary", workers)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%s: fleet report differs from single-process report\n--- fleet ---\n%s\n--- single ---\n%s",
				workers, got, want)
		}
	}
}

// TestFleetKillStormRealProcesses turns the fleet's self-chaos on with
// real worker processes — SIGKILLed mid-job, stalled past the
// heartbeat deadline, frames truncated — and requires the same
// contract: exit 0 (complete, audit-clean) and a byte-identical
// report.
func TestFleetKillStormRealProcesses(t *testing.T) {
	want := singleProcessReport(t)
	path := filepath.Join(t.TempDir(), "storm.txt")
	args := append(append([]string{}, campaignArgs...),
		"-workers", "4", "-chaos-workers", "-fleet-seed", "11", "-hb-timeout", "1s", "-report", path)
	code, stderr := run(t, "limit-fleet", args...)
	if code != 0 {
		t.Fatalf("kill-storm limit-fleet exit %d\nstderr: %s", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("kill-storm fleet report differs from single-process report\n--- fleet ---\n%s\n--- single ---\n%s",
			got, want)
	}
	if !strings.Contains(stderr, "fleet summary") {
		t.Errorf("stderr lacks the fleet summary:\n%s", stderr)
	}
}

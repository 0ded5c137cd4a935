package clitest

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"limitsim/internal/chaos"
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
	good := filepath.Join(tmp, "good.jsonl")
	if err := os.WriteFile(good, []byte(`{"type":"counter","name":"c","value":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Frame streams that at a 1-cycle window need more windows than an
	// int can count or than a slice can hold, and one whose last window
	// ends past cycle 2^64-1 at a 2^62-cycle one.
	farFrame := filepath.Join(tmp, "far-frame.jsonl")
	bigFrame := filepath.Join(tmp, "big-frame.jsonl")
	wrapFrame := filepath.Join(tmp, "wrap-frame.jsonl")
	for path, cycle := range map[string]string{farFrame: "9223372036854775813", bigFrame: "4611686018427387904", wrapFrame: "18446744073709551615"} {
		if err := os.WriteFile(path, []byte(`{"seq":0,"cycle":`+cycle+`,"tid":1,"samples":[]}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A series row with a negative window index, which once indexed
	// the report's chart at -1 and panicked.
	negSeries := filepath.Join(tmp, "neg-series.jsonl")
	row := `{"window":-1,"start":0,"end":100,"partial":false,"key":"all","inputs":{"cycles":1},"metrics":{"cpi":1.5}}` + "\n"
	if err := os.WriteFile(negSeries, []byte(row), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		// Exit 0: cheap successful invocations. Asking for help is
		// not a usage error.
		{"limitctl bare help", "limitctl", nil, 0},
		{"limitctl help", "limitctl", []string{"-h"}, 0},
		{"limitctl run help", "limitctl", []string{"run", "-h"}, 0},
		{"limitctl list help", "limitctl", []string{"list", "-h"}, 0},
		{"limitctl trace help", "limitctl", []string{"trace", "-h"}, 0},
		{"limitctl stats help", "limitctl", []string{"stats", "-h"}, 0},
		{"limitctl merge help", "limitctl", []string{"merge", "-h"}, 0},
		{"limitctl metrics help", "limitctl", []string{"metrics", "-h"}, 0},
		{"limitctl report help", "limitctl", []string{"report", "-h"}, 0},
		{"limitctl profile help", "limitctl", []string{"profile", "-h"}, 0},
		{"limit-experiments help", "limit-experiments", []string{"-h"}, 0},
		{"limit-chaos tiny campaign", "limit-chaos", []string{"-seeds", "1", "-threads", "2", "-cores", "2", "-iters", "20"}, 0},
		// The trace ring grows with the events it records, so the
		// largest capacity allocates nothing up front.
		{"limitctl trace max ring", "limitctl", []string{"trace", "-app", "forkjoin", "-scale", "0.1", "-n", "9223372036854775807"}, 0},

		// Exit 2: stray positional arguments, everywhere.
		{"limit-chaos stray arg", "limit-chaos", []string{"bogus"}, 2},
		{"limit-experiments stray arg", "limit-experiments", []string{"bogus"}, 2},
		// limitctl profile replaced the limit-profile binary; its rows
		// keep their names.
		{"limit-profile stray arg", "limitctl", []string{"profile", "bogus"}, 2},
		{"limitctl unknown subcommand", "limitctl", []string{"bogus"}, 2},

		// Exit 2: unknown flags (the flag package's own discipline)
		// and invalid flag combinations.
		{"limit-chaos unknown flag", "limit-chaos", []string{"-no-such-flag"}, 2},
		{"limit-chaos ablate without soak", "limit-chaos", []string{"-ablate-reclaim"}, 2},
		{"limit-chaos unknown mix", "limit-chaos", []string{"-mix", "bogus"}, 2},
		{"limit-chaos unknown tenant mix", "limit-chaos", []string{"-tenants", "3", "-mix", "bogus"}, 2},
		{"limit-chaos unknown soak mix", "limit-chaos", []string{"-soak", "-mix", "bogus"}, 2},
		{"limit-experiments unmatched only", "limit-experiments", []string{"-only", "Z9"}, 2},
		{"limitctl deleted list alias", "limitctl", []string{"-list"}, 2},
		{"limitctl metrics deleted series alias", "limitctl", []string{"metrics", "-series"}, 2},
		{"limitctl metrics deleted worker split alias", "limitctl", []string{"metrics", "-window", "1000", "-split", "worker"}, 2},
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
		{"limitctl report unwritable output", "limitctl", []string{"report", "-o", filepath.Join(tmp, "no-such-dir", "r.html"), "-telemetry", good}, 1},
		{"limitctl report full disk", "limitctl", []string{"report", "-o", "/dev/full", "-telemetry", good}, 1},
		{"limitctl report window past int", "limitctl", []string{"report", "-o", filepath.Join(tmp, "x.html"), "-frames", farFrame, "-window", "1"}, 1},
		{"limitctl report windows past a slice", "limitctl", []string{"report", "-o", filepath.Join(tmp, "x.html"), "-frames", bigFrame, "-window", "1"}, 1},
		{"limitctl report window end past 2^64", "limitctl", []string{"report", "-o", filepath.Join(tmp, "x.html"), "-frames", wrapFrame, "-window", "4611686018427387904"}, 1},
		{"limitctl report negative series window", "limitctl", []string{"report", "-o", filepath.Join(tmp, "x.html"), "-series", negSeries}, 1},
		{"limit-chaos unwritable report", "limit-chaos", []string{"-report", filepath.Join(tmp, "no-such-dir", "r.txt")}, 1},
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

	// Exit 2: a numeric flag outside its domain. The message names the
	// flag and its range.
	domains := []struct {
		name string
		bin  string
		args []string
		says string
	}{
		{"limit-chaos negative seeds", "limit-chaos", []string{"-seeds", "-1"}, "-seeds must be >= 1"},
		{"limit-chaos negative cores", "limit-chaos", []string{"-cores", "-2"}, "-cores must be >= 1"},
		{"limit-chaos negative threads", "limit-chaos", []string{"-threads", "-2"}, "-threads must be >= 1"},
		{"limit-chaos width below floor", "limit-chaos", []string{"-width", "5"}, "-width must be in [10, 48]"},
		{"limit-chaos width above counter", "limit-chaos", []string{"-width", "70"}, "-width must be in [10, 48]"},
		{"limit-chaos negative parallel", "limit-chaos", []string{"-parallel", "-3"}, "-parallel must be >= 0"},
		{"limit-chaos negative workers", "limit-chaos", []string{"-workers", "-1"}, "-workers must be >= 0"},
		// Busy workers heartbeat every 100ms; a shorter timeout would
		// kill healthy ones as hung.
		{"limit-chaos hb-timeout below two heartbeats", "limit-chaos", []string{"-workers", "2", "-hb-timeout", "20ms"}, "-hb-timeout must be >= 200ms"},
		// limitctl profile, under the limit-profile binary's row names.
		{"limit-profile negative top", "limitctl", []string{"profile", "-top", "-1"}, "-top must be >= 1"},
		{"limit-profile zero scale", "limitctl", []string{"profile", "-scale", "0"}, "-scale must be positive"},
		{"limit-profile negative scale", "limitctl", []string{"profile", "-scale", "-1"}, "-scale must be positive"},
		{"limit-profile negative budget", "limitctl", []string{"profile", "-budget", "-1"}, "-budget must be 0 (off) or"},
		{"limit-profile budget below one", "limitctl", []string{"profile", "-budget", "0.5"}, "-budget must be 0 (off) or"},
		{"limit-profile negative parallel", "limitctl", []string{"profile", "-parallel", "-3"}, "-parallel must be >= 0"},
		{"limit-experiments zero scale", "limit-experiments", []string{"-scale", "0"}, "-scale must be positive"},
		{"limit-experiments negative scale", "limit-experiments", []string{"-scale", "-1"}, "-scale must be positive"},
		{"limit-experiments negative parallel", "limit-experiments", []string{"-parallel", "-3"}, "-parallel must be >= 0"},
		{"limitctl zero scale", "limitctl", []string{"-scale", "0"}, "-scale must be positive"},
		{"limitctl negative scale", "limitctl", []string{"-scale", "-1"}, "-scale must be positive"},
		// The deleted -trace alias stays deleted: trace -n replaces it.
		{"limitctl negative trace", "limitctl", []string{"-trace", "-5"}, "flag provided but not defined: -trace"},
		{"limitctl metrics negative window", "limitctl", []string{"metrics", "-window", "-1"}, "-window must be >= 0"},
		{"limitctl trace negative n", "limitctl", []string{"trace", "-n", "-5"}, "-n must be >= 1"},
		{"limitctl zero period", "limitctl", []string{"-method", "sample", "-period", "0"}, "-period must be in [1, 2147483647]"},
		{"limitctl period at write limit", "limitctl", []string{"-method", "sample", "-period", "2147483648"}, "-period must be in [1, 2147483647]"},
		{"limitctl metrics width over free counters", "limitctl", []string{"metrics", "-width", "8"}, "-width must be in [1, 4] with -counters 6"},
		{"limitctl metrics counters below group width", "limitctl", []string{"metrics", "-counters", "3"}, "-width must be in [1, 1] with -counters 3"},
		// Frames are the raw stream: a flag that windows, splits or
		// selects metrics has nothing to act on, nor has a split
		// without windows.
		{"limitctl metrics frames with window", "limitctl", []string{"metrics", "-format", "frames", "-window", "1000"}, "-window must be 0 with -format frames"},
		{"limitctl metrics frames with split", "limitctl", []string{"metrics", "-format", "frames", "-split", "thread"}, "-split must be none with -format frames or -window 0"},
		{"limitctl metrics frames with metric", "limitctl", []string{"metrics", "-format", "frames", "-metric", "ipc"}, "-metric must be unset with -format frames"},
		{"limitctl metrics split without window", "limitctl", []string{"metrics", "-split", "tenant"}, "-split must be none with -format frames or -window 0"},
		{"limitctl metrics thread split without window", "limitctl", []string{"metrics", "-split", "thread", "-window", "0"}, "-split must be none with -format frames or -window 0"},
	}
	for _, tc := range domains {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := run(t, tc.bin, tc.args...)
			if code != 2 || !strings.Contains(stderr, tc.says) {
				t.Errorf("%s %v: exit %d, want 2 with %q\nstderr: %s", tc.bin, tc.args, code, tc.says, stderr)
			}
		})
	}
}

// TestChaosHelpDefaultsFromLibrary pins that limit-chaos keeps no
// defaults of its own: -h prints chaos.Config's and chaos.SoakConfig's.
func TestChaosHelpDefaultsFromLibrary(t *testing.T) {
	code, stderr := run(t, "limit-chaos", "-h")
	if code != 0 {
		t.Fatalf("-h exited %d\nstderr: %s", code, stderr)
	}
	usage := map[string]string{}
	for _, chunk := range strings.Split(stderr, "\n  -")[1:] {
		head, text, _ := strings.Cut(chunk, "\n")
		name, _, _ := strings.Cut(head, " ")
		usage[name] = strings.TrimSpace(text)
	}
	c, s := chaos.Config{}.WithDefaults(), chaos.SoakConfig{}.WithDefaults()
	for name, want := range map[string]string{
		"seeds":   fmt.Sprintf("(soak default %d) (default %d)", s.Seeds, c.Seeds),
		"threads": fmt.Sprintf("(default %d)", c.Threads),
		"cores":   fmt.Sprintf("(soak default %d) (default %d)", s.Cores, c.Cores),
		"iters":   fmt.Sprintf("(soak default %d per worker) (default %d)", s.Iters, c.Iters),
		"k":       fmt.Sprintf("(soak default %d) (default %d)", s.ComputeK, c.ComputeK),
		"width":   fmt.Sprintf("(soak default %d) (default %d)", s.WriteWidth, c.WriteWidth),
		"pool":    fmt.Sprintf("(default %d)", s.Pool),
		"waves":   fmt.Sprintf("(default %d)", s.Waves),
	} {
		if !strings.HasSuffix(usage[name], want) {
			t.Errorf("-%s usage %q does not end in %q", name, usage[name], want)
		}
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

// campaignArgs is the shared tiny campaign both modes run for the
// byte-identity oracles: small enough for a test, wide enough (5 mixes
// × 2 seeds = 10 jobs) to shard meaningfully, with telemetry attached
// so merged metrics cross the process boundary too.
var campaignArgs = []string{"-seeds", "2", "-threads", "3", "-cores", "2", "-iters", "60", "-metrics"}

// tenantArgs is a tenant campaign narrowed to one mix: the tenant
// layer and -mix both reach the workers as their own flags, which each
// worker process re-parses into the coordinator's job space.
var tenantArgs = []string{"-tenants", "2", "-mix", "tenant-full-mix", "-seeds", "3", "-threads", "4", "-cores", "2", "-iters", "60", "-metrics"}

// chaosReport runs limit-chaos with args plus extra and returns its
// report and stderr.
func chaosReport(t *testing.T, args []string, extra ...string) ([]byte, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.txt")
	code, stderr := run(t, "limit-chaos", append(append(append([]string{}, args...), extra...), "-report", path)...)
	if code != 0 {
		t.Fatalf("limit-chaos %v exit %d\nstderr: %s", extra, code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got, stderr
}

// TestFleetReportMatchesSingleProcess is the real-process keystone:
// a limit-chaos report assembled across OS worker processes must be
// byte-identical to its in-process report at every shard width, for a
// tenant campaign too.
func TestFleetReportMatchesSingleProcess(t *testing.T) {
	for name, args := range map[string][]string{"campaign": campaignArgs, "tenant": tenantArgs} {
		want, _ := chaosReport(t, args, "-parallel", "4")
		for _, workers := range []string{"1", "4"} {
			got, stderr := chaosReport(t, args, "-workers", workers)
			if !strings.Contains(stderr, "fleet summary") {
				t.Errorf("%s workers=%s: stderr lacks the fleet summary", name, workers)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%s: fleet report differs from in-process report\n--- fleet ---\n%s\n--- in-process ---\n%s",
					name, workers, got, want)
			}
		}
	}
}

// TestFleetWorkersAfterArgTerminator: a trailing "--" ends the
// coordinator's flags. Workers must still read -worker as a flag; as a
// stray argument every worker would exit 2 and the run would quietly
// degrade to in-process execution.
func TestFleetWorkersAfterArgTerminator(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	code, stderr := run(t, "limit-chaos", append(append([]string{}, campaignArgs...), "-workers", "2", "-report", path, "--")...)
	if code != 0 || !regexp.MustCompile(`degraded in-process\s+false`).MatchString(stderr) {
		t.Errorf("exit %d; want 0 and a fleet that did not degrade\nstderr: %s", code, stderr)
	}
}

// TestFleetKillStormRealProcesses turns the fleet's self-chaos on with
// real worker processes — SIGKILLed mid-job, stalled past the
// heartbeat deadline, frames truncated — and requires the same
// contract: exit 0 (complete, audit-clean) and a byte-identical
// report. Each worker reads -chaos-workers from its own flags, so the
// summary must also count crashes and hung kills: a storm that never
// reached the workers would pass the byte check vacuously.
func TestFleetKillStormRealProcesses(t *testing.T) {
	want, _ := chaosReport(t, campaignArgs, "-parallel", "4")
	got, stderr := chaosReport(t, campaignArgs,
		"-workers", "4", "-chaos-workers", "-fleet-seed", "11", "-hb-timeout", "1s")
	if !bytes.Equal(got, want) {
		t.Errorf("kill-storm fleet report differs from in-process report\n--- fleet ---\n%s\n--- in-process ---\n%s",
			got, want)
	}
	for _, row := range []string{"worker crashes", "workers killed hung"} {
		if !regexp.MustCompile(`(?m)^\s*` + row + `\s+[1-9]`).MatchString(stderr) {
			t.Errorf("fleet summary lacks a nonzero %q count:\n%s", row, stderr)
		}
	}
}

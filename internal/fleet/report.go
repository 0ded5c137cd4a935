package fleet

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Quarantine is one job the fleet gave up on: its key, how many
// attempts it burned, and every error those attempts produced. A
// quarantined job is reported, never dropped — downstream assembly must
// refuse to pretend the space completed.
type Quarantine struct {
	Key      int      `json:"key"`
	Attempts int      `json:"attempts"`
	Errs     []string `json:"errs"`
}

// Stats counts everything the supervision layer did. The counters are
// related by invariants Audit checks; they are the fleet's
// self-measurement, in the same spirit as telemetry's kernel
// self-metrics.
type Stats struct {
	WorkersSpawned    int  `json:"workers_spawned"`
	WorkerCrashes     int  `json:"worker_crashes"`
	WorkersKilledHung int  `json:"workers_killed_hung"`
	SpawnFailures     int  `json:"spawn_failures"`
	JobsDispatched    int  `json:"jobs_dispatched"`
	ResultsMerged     int  `json:"results_merged"`
	InlineMerged      int  `json:"inline_merged"`
	Retries           int  `json:"retries"`
	BadFrames         int  `json:"bad_frames"`
	Degraded          bool `json:"degraded"`
}

// Report is one fleet run's outcome: keyed payloads for every
// completed job, the quarantine list, supervision stats, and any audit
// violations. Payloads[k] is meaningful only when Done[k].
type Report struct {
	Jobs        int          `json:"jobs"`
	Payloads    [][]byte     `json:"-"`
	Done        []bool       `json:"done"`
	Quarantined []Quarantine `json:"quarantined"`
	Stats       Stats        `json:"stats"`
	// ByWorker maps worker id to results that worker contributed to the
	// merge — the per-worker side of the conservation audit.
	ByWorker map[int]int `json:"by_worker,omitempty"`
	// Violations is Audit's output, computed once when the run ends.
	// Non-empty means the run's accounting is broken and its payloads
	// must not be trusted.
	Violations []string `json:"violations,omitempty"`
}

func (r *Report) addWorkerMerge(id int) {
	if r.ByWorker == nil {
		r.ByWorker = map[int]int{}
	}
	r.ByWorker[id]++
}

// finish canonicalizes and audits the report at end of run.
func (r *Report) finish() {
	sort.Slice(r.Quarantined, func(i, j int) bool { return r.Quarantined[i].Key < r.Quarantined[j].Key })
	r.Violations = r.Audit()
}

// Audit checks the run's accounting invariants and returns every
// violation found:
//
//   - exact-once: each job key is either done or quarantined, never
//     both and never neither, and every done job has a payload;
//   - worker conservation: per-worker merged contributions sum to the
//     merged total;
//   - completion conservation: done jobs = worker-merged + inline-merged.
func (r *Report) Audit() []string {
	var v []string
	quarantined := map[int]int{}
	for _, q := range r.Quarantined {
		quarantined[q.Key]++
	}
	for k, n := range quarantined {
		if n > 1 {
			v = append(v, fmt.Sprintf("job %d quarantined %d times", k, n))
		}
		if k < 0 || k >= r.Jobs {
			v = append(v, fmt.Sprintf("quarantined job %d outside space [0,%d)", k, r.Jobs))
		}
	}
	done := 0
	for k := 0; k < r.Jobs; k++ {
		d := k < len(r.Done) && r.Done[k]
		_, q := quarantined[k]
		switch {
		case d && q:
			v = append(v, fmt.Sprintf("job %d both done and quarantined", k))
		case !d && !q:
			v = append(v, fmt.Sprintf("job %d lost: neither done nor quarantined", k))
		}
		if d {
			done++
			if k >= len(r.Payloads) || r.Payloads[k] == nil {
				v = append(v, fmt.Sprintf("job %d done but has no payload", k))
			}
		}
	}
	s := r.Stats
	byWorker := 0
	for _, n := range r.ByWorker {
		byWorker += n
	}
	if byWorker != s.ResultsMerged {
		v = append(v, fmt.Sprintf("per-worker contributions (%d) != results merged (%d)", byWorker, s.ResultsMerged))
	}
	if done != s.ResultsMerged+s.InlineMerged {
		v = append(v, fmt.Sprintf("done jobs (%d) != worker-merged (%d) + inline-merged (%d)",
			done, s.ResultsMerged, s.InlineMerged))
	}
	return v
}

// Complete reports whether every job finished (nothing quarantined)
// and the audit is clean.
func (r *Report) Complete() bool {
	return len(r.Quarantined) == 0 && len(r.Violations) == 0
}

// RenderSummary writes the supervision summary — stats, quarantine
// list, violations — in the repo's aligned-table house style. This is
// diagnostic output (stderr material); the campaign report itself is
// assembled from Payloads by the space's adapter.
func (r *Report) RenderSummary(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "fleet summary\n")
	fmt.Fprintf(tw, "  jobs\t%d\n", r.Jobs)
	fmt.Fprintf(tw, "  workers spawned\t%d\n", r.Stats.WorkersSpawned)
	fmt.Fprintf(tw, "  worker crashes\t%d\n", r.Stats.WorkerCrashes)
	fmt.Fprintf(tw, "  workers killed hung\t%d\n", r.Stats.WorkersKilledHung)
	fmt.Fprintf(tw, "  spawn failures\t%d\n", r.Stats.SpawnFailures)
	fmt.Fprintf(tw, "  jobs dispatched\t%d\n", r.Stats.JobsDispatched)
	fmt.Fprintf(tw, "  results merged\t%d\n", r.Stats.ResultsMerged)
	fmt.Fprintf(tw, "  inline merged\t%d\n", r.Stats.InlineMerged)
	fmt.Fprintf(tw, "  retries\t%d\n", r.Stats.Retries)
	fmt.Fprintf(tw, "  bad frames\t%d\n", r.Stats.BadFrames)
	fmt.Fprintf(tw, "  degraded in-process\t%v\n", r.Stats.Degraded)
	fmt.Fprintf(tw, "  quarantined\t%d\n", len(r.Quarantined))
	tw.Flush()
	for _, q := range r.Quarantined {
		fmt.Fprintf(w, "  quarantined job %d after %d attempts:\n", q.Key, q.Attempts)
		for _, e := range q.Errs {
			fmt.Fprintf(w, "    - %s\n", e)
		}
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(w, "  AUDIT VIOLATIONS (%d):\n", len(r.Violations))
		for _, s := range r.Violations {
			fmt.Fprintf(w, "    - %s\n", s)
		}
	}
}

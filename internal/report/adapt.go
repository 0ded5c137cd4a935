package report

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"limitsim/internal/metrics"
	"limitsim/internal/profile"
	"limitsim/internal/telemetry"
	"limitsim/internal/trace"
)

// AddFindings appends the ranked bottleneck table from a profiler
// report's wire records, with proportional share bars. self is the
// optional trailing self-cost disclosure (nil to omit).
func (a *Artifact) AddFindings(title string, recs []profile.FindingRecord, self *profile.SelfCostRecord) {
	var b strings.Builder
	b.WriteString("<table>\n<thead><tr>")
	for _, h := range []string{"rank", "region", "kind", "class", "share", "self-Mcyc", "count", "mean-cyc", "kernel%", "l1d/kc", "brmiss/kc", ""} {
		b.WriteString("<th>" + esc(h) + "</th>")
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for _, r := range recs {
		var selfMcyc float64
		if len(r.Self) > 0 {
			selfMcyc = float64(r.Self[0]) / 1e6
		}
		width := int(r.Share*120 + 0.5)
		fmt.Fprintf(&b,
			"<tr><td>%d</td><td><code>%s</code></td><td>%s</td><td>%s</td><td>%s%%</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td><span class=\"bar\" style=\"width:%dpx\"></span></td></tr>\n",
			r.Rank, esc(r.Region), esc(r.Kind), esc(r.Class),
			f2(r.Share*100), f2(selfMcyc), r.Count, f2(r.MeanCycles),
			f2(r.KernelShare*100), f2(r.L1DPerKC), f2(r.BrMissPerKC), width)
	}
	b.WriteString("</tbody>\n</table>\n")
	if self != nil {
		fmt.Fprintf(&b, "<p>profiler self-cost: %s cycles; pair cost vs bare read pair: %sx</p>\n",
			f2(self.SelfCycles), f4(self.PairVsBareRatio))
	}
	a.add(title, b.String())
}

// AddRegistry appends a telemetry registry as counter/gauge and
// histogram tables, in registration order — the same order and values
// Render prints, so serial and fleet-merged registries produce
// identical sections.
func (a *Artifact) AddRegistry(title string, reg *telemetry.Registry) {
	counters, gauges, hists := reg.Names()
	var b strings.Builder
	if len(counters)+len(gauges) > 0 {
		var rows [][]string
		for _, name := range counters {
			rows = append(rows, []string{name, fmt.Sprintf("%d", reg.LookupCounter(name).Value()), "-"})
		}
		for _, name := range gauges {
			g := reg.LookupGauge(name)
			rows = append(rows, []string{name, fmt.Sprintf("%d", g.Value()), fmt.Sprintf("%d", g.Peak())})
		}
		tableHTML(&b, []string{"metric", "value", "peak"}, rows)
	}
	if len(hists) > 0 {
		var rows [][]string
		for _, name := range hists {
			h := reg.LookupHistogram(name)
			rows = append(rows, []string{
				name, fmt.Sprintf("%d", h.Count()), f2(h.Mean()),
				fmt.Sprintf("%d", h.Min()), fmt.Sprintf("%d", h.Quantile(0.50)),
				fmt.Sprintf("%d", h.Quantile(0.99)), fmt.Sprintf("%d", h.Max()),
			})
		}
		tableHTML(&b, []string{"histogram (cycles)", "count", "mean", "min", "p50", "p99", "max"}, rows)
	}
	if b.Len() == 0 {
		b.WriteString("<p>empty registry</p>\n")
	}
	a.add(title, b.String())
}

// AddSeries appends one line chart per metric from windowed series
// rows (metrics in sorted name order, one colored line per split key),
// followed by the compact per-window table.
func (a *Artifact) AddSeries(title string, rows []metrics.WindowRow) {
	var b strings.Builder
	if len(rows) == 0 {
		b.WriteString("<p>no windows</p>\n")
		a.add(title, b.String())
		return
	}

	// The sorted metric names and keys, and the last window.
	var names, keys []string
	maxWin := 0
	for i := range rows {
		r := &rows[i]
		maxWin = max(maxWin, r.Window)
		keys = insertSorted(keys, r.Key)
		for name := range r.Metrics {
			names = insertSorted(names, name)
		}
	}
	// vals holds every chart value by metric, then key, then window. A
	// window with no row for a key reads 0; a later row for the same
	// key and window overwrites the metrics it carries.
	nWin := maxWin + 1
	vals := make([]float64, len(names)*len(keys)*nWin)
	for i := range rows {
		r := &rows[i]
		k, _ := slices.BinarySearch(keys, r.Key)
		for name, v := range r.Metrics {
			m, _ := slices.BinarySearch(names, name)
			vals[(m*len(keys)+k)*nWin:][:nWin][r.Window] = v
		}
	}

	series := make([]chartSeries, len(keys))
	for m, name := range names {
		b.WriteString("<h3>" + esc(name) + "</h3>\n")
		for k, key := range keys {
			series[k] = chartSeries{Label: key, Values: vals[(m*len(keys)+k)*nWin:][:nWin]}
		}
		lineChart(&b, series)
	}

	// The compact table mirrors the text renderer: window-major rows.
	header := append([]string{"window", "cycles", "key"}, names...)
	tbl := make([][]string, len(rows))
	for i := range rows {
		r := &rows[i]
		span := strconv.FormatUint(r.Start, 10) + ".." + strconv.FormatUint(r.End, 10)
		if r.Partial {
			span += " (partial)"
		}
		cells := append(make([]string, 0, len(header)), strconv.Itoa(r.Window), span, r.Key)
		for _, name := range names {
			cells = append(cells, f4(r.Metrics[name]))
		}
		tbl[i] = cells
	}
	tableHTML(&b, header, tbl)
	a.add(title, b.String())
}

// insertSorted adds s to the sorted list unless it holds it already.
func insertSorted(list []string, s string) []string {
	if i, found := slices.BinarySearch(list, s); !found {
		list = slices.Insert(list, i, s)
	}
	return list
}

// AddFlame appends a flame view of the Chrome-span export.
func (a *Artifact) AddFlame(title string, spans []trace.Span) {
	var b strings.Builder
	flameSVG(&b, spans)
	a.add(title, b.String())
}

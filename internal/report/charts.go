package report

import (
	"fmt"
	"sort"
	"strings"

	"limitsim/internal/jsonl"
	"limitsim/internal/trace"
)

// palette colors series and flame rects; indexed by a deterministic
// name hash so the same region or key gets the same color in every
// artifact.
var palette = []string{
	"#4c84c4", "#d4804d", "#5ba05b", "#c45b5b", "#8a6fb8",
	"#3fa0a0", "#b8a03f", "#a05b8a", "#6b7a88", "#7a9e4f",
}

// colorFor picks a palette color by FNV-1a hash of the name.
func colorFor(name string) string {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return palette[h%uint32(len(palette))]
}

// chartSeries is one labelled value sequence of a line chart.
type chartSeries struct {
	Label  string
	Values []float64
}

// Line chart geometry.
const (
	chartW    = 640
	chartH    = 150
	chartPadL = 56
	chartPadR = 10
	chartPadT = 8
	chartPadB = 20
)

// lineChart renders one inline SVG line chart with a shared y-range
// across series, min/max axis labels and a color legend. Coordinates
// are fixed-precision, so the markup is byte-deterministic.
func lineChart(b *strings.Builder, series []chartSeries) {
	n := 0
	lo, hi := 0.0, 0.0
	for _, s := range series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if n == 0 {
		b.WriteString("<p>no windows</p>\n")
		return
	}
	if hi == lo {
		hi = lo + 1
	}
	plotW := float64(chartW - chartPadL - chartPadR)
	plotH := float64(chartH - chartPadT - chartPadB)
	x := func(i int) float64 {
		if n == 1 {
			return float64(chartPadL) + plotW/2
		}
		return float64(chartPadL) + plotW*float64(i)/float64(n-1)
	}
	y := func(v float64) float64 {
		return float64(chartPadT) + plotH*(1-(v-lo)/(hi-lo))
	}

	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\">\n",
		chartW, chartH, chartW, chartH)
	// Frame and axis labels.
	fmt.Fprintf(b, "<rect x=\"%d\" y=\"%d\" width=\"%s\" height=\"%s\" fill=\"#fbfcfd\" stroke=\"#d7dee5\"></rect>\n",
		chartPadL, chartPadT, f2(plotW), f2(plotH))
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%s\" font-size=\"11\" fill=\"#51616f\" text-anchor=\"end\">%s</text>\n",
		chartPadL-4, f2(y(hi)+4), f4(hi))
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%s\" font-size=\"11\" fill=\"#51616f\" text-anchor=\"end\">%s</text>\n",
		chartPadL-4, f2(y(lo)+4), f4(lo))
	if lo < 0 {
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%s\" x2=\"%d\" y2=\"%s\" stroke=\"#c7d0d9\" stroke-dasharray=\"3,3\"></line>\n",
			chartPadL, f2(y(0)), chartW-chartPadR, f2(y(0)))
	}
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" font-size=\"11\" fill=\"#51616f\">window 0</text>\n",
		chartPadL, chartH-6)
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" font-size=\"11\" fill=\"#51616f\" text-anchor=\"end\">window %d</text>\n",
		chartW-chartPadR, chartH-6, n-1)

	var line []byte
	for _, s := range series {
		color := colorFor(s.Label)
		if len(s.Values) == 1 {
			fmt.Fprintf(b, "<circle cx=\"%s\" cy=\"%s\" r=\"3\" fill=\"%s\"></circle>\n",
				f2(x(0)), f2(y(s.Values[0])), color)
			continue
		}
		line = append(line[:0], `<polyline points="`...)
		for i, v := range s.Values {
			if i > 0 {
				line = append(line, ' ')
			}
			line = jsonl.AppendFixed(line, x(i), 2)
			line = append(line, ',')
			line = jsonl.AppendFixed(line, y(v), 2)
		}
		line = append(line, `" fill="none" stroke="`...)
		line = append(line, color...)
		line = append(line, `" stroke-width="1.5"></polyline>`+"\n"...)
		b.Write(line)
	}
	b.WriteString("</svg>\n")

	if len(series) > 1 || (len(series) == 1 && series[0].Label != "all") {
		b.WriteString("<div class=\"legend\">")
		for _, s := range series {
			fmt.Fprintf(b, "<span><span class=\"swatch\" style=\"background:%s\"></span>%s</span>",
				colorFor(s.Label), esc(s.Label))
		}
		b.WriteString("</div>\n")
	}
}

// Flame geometry.
const (
	flameW     = 920
	flameRowH  = 18
	flameGap   = 2
	flameLabel = 14
)

// flameTrack is one (pid, tid) lane of positioned spans.
type flameTrack struct {
	pid, tid int
	spans    []flameBox
	depth    int
}

type flameBox struct {
	span  trace.Span
	depth int
}

// flameSVG renders the span hierarchy as a flame chart: one lane per
// (pid, tid) in ascending order, nesting depth derived from interval
// containment, hover detail via SVG title elements. Cycle positions
// scale to the global span extent.
func flameSVG(b *strings.Builder, spans []trace.Span) {
	if len(spans) == 0 {
		b.WriteString("<p>no spans</p>\n")
		return
	}
	lo := spans[0].StartCycle
	hi := spans[0].StartCycle + spans[0].DurCycles
	byTrack := map[[2]int][]trace.Span{}
	var order [][2]int
	for _, s := range spans {
		if s.StartCycle < lo {
			lo = s.StartCycle
		}
		if end := s.StartCycle + s.DurCycles; end > hi {
			hi = end
		}
		k := [2]int{s.PID, s.TID}
		if _, ok := byTrack[k]; !ok {
			order = append(order, k)
		}
		byTrack[k] = append(byTrack[k], s)
	}
	sortTracks(order)
	if hi == lo {
		hi = lo + 1
	}
	scale := float64(flameW) / float64(hi-lo)

	var tracks []flameTrack
	totalRows := 0
	for _, k := range order {
		tr := flameTrack{pid: k[0], tid: k[1]}
		// Stable sort by start ascending, longer span first on ties, so
		// a parent precedes the children it contains.
		ts := byTrack[k]
		sortSpans(ts)
		var stack []uint64 // enclosing span end cycles
		for _, s := range ts {
			end := s.StartCycle + s.DurCycles
			for len(stack) > 0 && stack[len(stack)-1] <= s.StartCycle {
				stack = stack[:len(stack)-1]
			}
			d := len(stack)
			tr.spans = append(tr.spans, flameBox{span: s, depth: d})
			if d+1 > tr.depth {
				tr.depth = d + 1
			}
			stack = append(stack, end)
		}
		totalRows += tr.depth
		tracks = append(tracks, tr)
	}

	height := totalRows*(flameRowH+flameGap) + len(tracks)*flameLabel + flameLabel
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\">\n",
		flameW, height, flameW, height)
	yOff := 0
	for _, tr := range tracks {
		fmt.Fprintf(b, "<text x=\"0\" y=\"%d\" font-size=\"11\" fill=\"#51616f\">pid %d / tid %d</text>\n",
			yOff+flameLabel-3, tr.pid, tr.tid)
		yOff += flameLabel
		for _, box := range tr.spans {
			s := box.span
			x := float64(s.StartCycle-lo) * scale
			w := float64(s.DurCycles) * scale
			if w < 0.5 {
				w = 0.5
			}
			yTop := yOff + box.depth*(flameRowH+flameGap)
			fmt.Fprintf(b, "<rect x=\"%s\" y=\"%d\" width=\"%s\" height=\"%d\" fill=\"%s\" stroke=\"#fff\" stroke-width=\"0.5\">",
				f2(x), yTop, f2(w), flameRowH, colorFor(s.Name))
			fmt.Fprintf(b, "<title>%s: %d cycles (start %d)</title></rect>\n",
				esc(s.Name), s.DurCycles, s.StartCycle)
			if w >= 60 {
				fmt.Fprintf(b, "<text x=\"%s\" y=\"%d\" font-size=\"10\" fill=\"#fff\">%s</text>\n",
					f2(x+3), yTop+flameRowH-5, esc(clip(s.Name, int(w/7))))
			}
		}
		yOff += tr.depth * (flameRowH + flameGap)
	}
	b.WriteString("</svg>\n")
}

// clip truncates a label to at most n runes with an ellipsis.
func clip(s string, n int) string {
	if n < 1 || len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:1]
	}
	return s[:n-1] + "…"
}

// sortTracks orders (pid, tid) keys ascending.
func sortTracks(keys [][2]int) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
}

// sortSpans orders spans by start ascending, duration descending on
// ties (parents before contained children), name ascending as the
// final tiebreak — a total order, so the layout is deterministic for
// any input order.
func sortSpans(ss []trace.Span) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].StartCycle != ss[j].StartCycle {
			return ss[i].StartCycle < ss[j].StartCycle
		}
		if ss[i].DurCycles != ss[j].DurCycles {
			return ss[i].DurCycles > ss[j].DurCycles
		}
		return ss[i].Name < ss[j].Name
	})
}

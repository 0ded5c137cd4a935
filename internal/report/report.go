// Package report renders one self-contained, byte-deterministic HTML
// artifact from any combination of the harness's measurement outputs:
// ranked bottleneck tables from internal/profile, windowed metric
// time-series charts from internal/metrics, telemetry registry tables,
// a flame view of the Chrome-span export, and raw assembled text
// reports. The artifact is a single file with inline CSS and inline
// SVG only — no scripts, no external fetches — so it travels as one
// attachment and hashes identically wherever it was produced.
//
// Determinism is the package contract: sections render in the order
// they were added, map-shaped inputs are sorted before rendering, all
// floating-point output goes through fixed-precision formatting, and
// nothing (timestamps, hostnames, paths) outside the caller's inputs
// reaches the output. Fleet assembly leans on this: the merged inputs
// are byte-identical at any shard width (PR 5/6 merge rules), so the
// HTML is too.
package report

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"strings"

	"limitsim/internal/jsonl"
)

// Artifact accumulates titled sections and renders them as one HTML
// document with a navigation index.
type Artifact struct {
	Title    string
	Subtitle string
	sections []section
}

type section struct {
	title string
	body  string // pre-rendered, escaped HTML
}

// New returns an empty artifact. Subtitle may be "".
func New(title, subtitle string) *Artifact {
	return &Artifact{Title: title, Subtitle: subtitle}
}

// Sections returns the number of sections added so far.
func (a *Artifact) Sections() int { return len(a.sections) }

// add appends a pre-rendered section body.
func (a *Artifact) add(title, body string) {
	a.sections = append(a.sections, section{title: title, body: body})
}

// esc HTML-escapes user-controlled text for element and attribute
// positions (quotes included).
func esc(s string) string { return html.EscapeString(s) }

// f2, f4 and f6 render floats at fixed precision; all float output in
// the artifact flows through them, or through jsonl.AppendFixed where
// it is appended to a buffer, so formatting is uniform and
// deterministic: the bytes of strconv's 'f' format.
func f2(v float64) string { return fixed(v, 2) }
func f4(v float64) string { return fixed(v, 4) }
func f6(v float64) string { return fixed(v, 6) }

func fixed(v float64, prec int) string {
	var buf [32]byte
	return string(jsonl.AppendFixed(buf[:0], v, prec))
}

// AddTable appends a plain table section. Cells are escaped; a cell
// already formatted by the caller renders verbatim as text.
func (a *Artifact) AddTable(title string, header []string, rows [][]string) {
	var b strings.Builder
	tableHTML(&b, header, rows)
	a.add(title, b.String())
}

// tableHTML renders one table element.
func tableHTML(b *strings.Builder, header []string, rows [][]string) {
	b.WriteString("<table>\n<thead><tr>")
	for _, h := range header {
		b.WriteString("<th>" + esc(h) + "</th>")
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for _, row := range rows {
		b.WriteString("<tr>")
		for _, cell := range row {
			b.WriteString("<td>" + esc(cell) + "</td>")
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</tbody>\n</table>\n")
}

// AddKV appends a two-column key/value section.
func (a *Artifact) AddKV(title string, pairs [][2]string) {
	rows := make([][]string, len(pairs))
	for i, p := range pairs {
		rows[i] = []string{p[0], p[1]}
	}
	a.AddTable(title, []string{"key", "value"}, rows)
}

// AddPre appends a preformatted text section — the adapter for the
// harness's existing aligned text reports, which are themselves
// byte-deterministic.
func (a *Artifact) AddPre(title, text string) {
	a.add(title, "<pre>"+esc(text)+"</pre>\n")
}

// css is the entire inline stylesheet. No imports, no fonts, no URLs.
const css = `body{margin:0;font-family:system-ui,sans-serif;color:#1c2733;background:#f6f8fa}
header{background:#1c2733;color:#fff;padding:18px 28px}
header h1{margin:0;font-size:22px}
header p{margin:4px 0 0;color:#9fb3c8;font-size:13px}
nav{padding:10px 28px;background:#e8edf2;font-size:13px}
nav a{color:#1756a9;text-decoration:none;margin-right:14px}
section{background:#fff;margin:16px 28px;padding:14px 18px;border:1px solid #d7dee5;border-radius:6px}
section h2{margin:0 0 10px;font-size:16px;border-bottom:1px solid #e3e8ee;padding-bottom:6px}
table{border-collapse:collapse;font-size:13px}
th,td{padding:3px 10px;border-bottom:1px solid #e9edf1;text-align:left;font-variant-numeric:tabular-nums}
th{color:#51616f;font-weight:600}
pre{font-size:12px;line-height:1.45;overflow-x:auto;background:#f6f8fa;padding:10px;border-radius:4px;margin:0}
.bar{display:inline-block;height:9px;background:#4c84c4;vertical-align:baseline}
svg{display:block}
svg text{font-family:system-ui,sans-serif}
.legend{font-size:12px;margin-top:4px}
.legend span{margin-right:12px}
.swatch{display:inline-block;width:10px;height:10px;margin-right:4px;vertical-align:baseline}
footer{padding:8px 28px 20px;color:#6b7a88;font-size:12px}`

// Render writes the artifact as one HTML document.
func (a *Artifact) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(bw, "<title>%s</title>\n", esc(a.Title))
	bw.WriteString("<style>\n" + css + "\n</style>\n</head>\n<body>\n")
	fmt.Fprintf(bw, "<header>\n<h1>%s</h1>\n", esc(a.Title))
	if a.Subtitle != "" {
		fmt.Fprintf(bw, "<p>%s</p>\n", esc(a.Subtitle))
	}
	bw.WriteString("</header>\n<nav>\n")
	for i, s := range a.sections {
		fmt.Fprintf(bw, "<a href=\"#s%d\">%s</a>\n", i+1, esc(s.title))
	}
	bw.WriteString("</nav>\n")
	for i, s := range a.sections {
		fmt.Fprintf(bw, "<section id=\"s%d\">\n<h2>%s</h2>\n", i+1, esc(s.title))
		bw.WriteString(s.body)
		bw.WriteString("</section>\n")
	}
	bw.WriteString("<footer>limitsim report &middot; self-contained, deterministic artifact</footer>\n")
	bw.WriteString("</body>\n</html>\n")
	return bw.Flush()
}

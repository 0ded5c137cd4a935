#!/bin/sh
# Golden byte-equality harness for the simulator's observable outputs.
#
# The perf work on the interpreter hot loop (PMU dispatch tables,
# word-level memory, COW snapshots) must not change a single output
# byte: campaign reports, soak reports, profiler output, experiment
# tables, metric frames, derived-metric values (totals and a windowed
# series) and HTML artifacts are pinned here at fixed seeds. The files
# in this directory were recorded on the pre-optimization tree; the
# derived-metric ones on the tree that still evaluated the catalogue
# through an expression parser; the series HTML on the tree that still
# formatted its floats through strconv.
#
# Usage (from the repo root):
#   ./testdata/golden/record.sh check    # re-run and byte-compare (CI)
#   ./testdata/golden/record.sh record   # overwrite the goldens
set -eu

dir="$(dirname "$0")"
mode="${1:-check}"
files="campaign.txt soak.txt soak-tenants.txt tenant-campaign.txt profile-mysql.txt experiments.txt frames-apache.jsonl report-mysql.html metrics-mysql.txt series-mysql.jsonl series-report-mysql.html"

case "$mode" in
record) out="$dir" ;;
check) out="${TMPDIR:-/tmp}/limitsim-golden.$$" && mkdir -p "$out" ;;
*) echo "usage: $0 [check|record]" >&2 && exit 2 ;;
esac

go run ./cmd/limit-chaos -seeds 4 -iters 150 -metrics -parallel 1 >"$out/campaign.txt"
go run ./cmd/limit-chaos -soak -seeds 2 -metrics -parallel 4 >"$out/soak.txt"
go run ./cmd/limit-chaos -soak -tenants 2 -seeds 2 -metrics -parallel 4 >"$out/soak-tenants.txt"
go run ./cmd/limit-chaos -tenants 4 -seeds 2 -metrics -parallel 4 -report "$out/tenant-campaign.txt"
go run ./cmd/limitctl profile -app mysql -scale 0.3 -budget 1.05 -parallel 4 -html "$out/report-mysql.html" >"$out/profile-mysql.txt"
go run ./cmd/limit-experiments -scale 0.1 -parallel 4 >"$out/experiments.txt"
go run ./cmd/limitctl metrics -app apache -scale 0.3 -format frames >"$out/frames-apache.jsonl"
go run ./cmd/limitctl metrics -app mysql -scale 0.3 >"$out/metrics-mysql.txt"
go run ./cmd/limitctl metrics -app mysql -scale 0.3 -window 200000 -split thread -format jsonl >"$out/series-mysql.jsonl"
# The series report is built from multiplexed frames kept outside this
# directory: only the HTML is pinned.
frames="$(mktemp "${TMPDIR:-/tmp}/limitsim-frames.XXXXXX")"
go run ./cmd/limitctl metrics -app mysql -scale 0.3 -counters 6 -width 2 -format frames >"$frames"
go run ./cmd/limitctl report -frames "$frames" -window 200000 -split thread -o "$out/series-report-mysql.html"
rm -f "$frames"

if [ "$mode" = check ]; then
	rc=0
	for f in $files; do
		if cmp "$dir/$f" "$out/$f"; then
			echo "golden ok: $f"
		else
			echo "golden MISMATCH: $f" >&2
			rc=1
		fi
	done
	rm -rf "$out"
	exit $rc
fi
echo "recorded $(echo $files | wc -w) goldens into $dir"

package report_test

import (
	"fmt"
	"io"
	"testing"

	"limitsim/internal/machine"
	"limitsim/internal/metrics"
	"limitsim/internal/report"
	"limitsim/internal/workloads"
)

// BenchmarkSeriesReport times the HTML layer of the repository
// benchmark's mux-report workload: AddSeries and Render over the
// 200000-cycle per-thread series of the mysql app, with every built-in
// metric's events opened as width-2 multiplexed groups on a 6-counter
// PMU. BenchmarkFrameJSONL and BenchmarkSeriesJSONL in internal/metrics
// time the codec layers of the same run.
func BenchmarkSeriesReport(b *testing.B) {
	ins := workloads.LimitInstr()
	ins.MuxGroups = workloads.DefaultMuxGroups(2)
	app := workloads.BuildMySQL(workloads.DefaultMySQL(), ins)
	mcfg := machine.DefaultConfig()
	mcfg.PMU.NumCounters = 6
	m := machine.New(mcfg)
	app.Launch(m)
	if res := m.Run(machine.RunLimits{}); res.Err != nil || !res.AllDone {
		b.Fatalf("run failed: %+v", res)
	}
	ss, err := metrics.Windowed(metrics.FromKernel(m.Kern), 200_000, metrics.SplitThread)
	if err != nil {
		b.Fatal(err)
	}
	var defs []*metrics.Def
	for i := range metrics.Builtin {
		defs = append(defs, &metrics.Builtin[i])
	}
	rows := ss.Rows(defs)
	title := fmt.Sprintf("Metric time series (window=%d cycles, split=thread)", 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := report.New("mux-report", "mysql, width-2 groups on 6 counters")
		a.AddSeries(title, rows)
		if err := a.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

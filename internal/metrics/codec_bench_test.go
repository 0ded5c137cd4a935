package metrics_test

import (
	"bytes"
	"io"
	"testing"

	"limitsim/internal/machine"
	"limitsim/internal/metrics"
	"limitsim/internal/workloads"
)

// codecInputs runs the mysql app with every built-in metric's events
// opened as width-2 multiplexed groups on a 6-counter PMU, the shape of
// the repository benchmark's mux-report workload, and returns its
// frames and its 200000-cycle per-thread series rows.
func codecInputs(b *testing.B) ([]metrics.Frame, []metrics.WindowRow) {
	b.Helper()
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
	frames := metrics.FromKernel(m.Kern)
	ss, err := metrics.Windowed(frames, 200_000, metrics.SplitThread)
	if err != nil {
		b.Fatal(err)
	}
	var defs []*metrics.Def
	for i := range metrics.Builtin {
		defs = append(defs, &metrics.Builtin[i])
	}
	return frames, ss.Rows(defs)
}

func BenchmarkFrameJSONL(b *testing.B) {
	frames, _ := codecInputs(b)
	var buf bytes.Buffer
	if err := metrics.WriteJSONL(&buf, frames); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("Write", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := metrics.WriteJSONL(io.Discard, frames); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := metrics.ParseJSONL(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSeriesJSONL(b *testing.B) {
	_, rows := codecInputs(b)
	var buf bytes.Buffer
	if err := metrics.WriteSeriesJSONL(&buf, rows); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("Write", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := metrics.WriteSeriesJSONL(io.Discard, rows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := metrics.ParseSeriesJSONL(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package obs

import (
	"runtime"
	"runtime/debug"
	"time"
)

// buildinfo is read once: module identity cannot change at runtime.
var buildModule, buildRevision = readBuildInfo()

func readBuildInfo() (module, revision string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	module = bi.Main.Path
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
		}
	}
	return module, revision
}

// RegisterRuntimeMetrics exposes the process runtime to Prometheus scrapes:
// goroutines, heap, GC totals, uptime, and a constant build-info series.
// ReadMemStats runs per gauge read; scrapes are seconds apart, so the
// stop-the-world cost is irrelevant.
func RegisterRuntimeMetrics(r *Registry, started time.Time) {
	r.GaugeFunc("go_goroutines", "Number of goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	r.CounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.PauseTotalNs) / 1e9
	})
	r.CounterFunc("go_gc_runs_total", "Completed GC cycles.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC)
	})
	r.CounterFunc("process_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(started).Seconds()
	})
	r.GaugeFuncWith("build_info", "Build identity (value is always 1).",
		[]string{"go_version", "module", "revision"},
		[]string{runtime.Version(), buildModule, buildRevision},
		func() float64 { return 1 })
}

package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// setupRepeats is how many times a run stands its workload up; setup_s is
// the median.
const setupRepeats = 3

// runtimeSnap is a point-in-time reading of the Go runtime's allocation
// and garbage-collector counters.
type runtimeSnap struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64 // seconds
}

func readRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
		gcCPU:      floatSample(s[0]),
		totalCPU:   floatSample(s[1]),
	}
}

func floatSample(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// runtimeDelta is what happened in the runtime between two snapshots.
type runtimeDelta struct {
	allocs, allocBytes, gcCycles float64
	gcCPUFraction                float64
}

func (a runtimeSnap) to(b runtimeSnap) runtimeDelta {
	return runtimeDelta{
		allocs:        float64(b.mallocs - a.mallocs),
		allocBytes:    float64(b.allocBytes - a.allocBytes),
		gcCycles:      float64(b.gcCycles - a.gcCycles),
		gcCPUFraction: ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}

// liveHeapMiB forces a collection and returns the live heap in MiB. The
// caller keeps the workload's state referenced across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timeIt runs fn and returns its wall time.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// scaled multiplies each wall time by the calibration scale taken with it.
func scaled(ds []time.Duration, scales []float64) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = time.Duration(float64(d) * scales[i])
	}
	return out
}

// stepMetrics fills the step metrics from per-step start and wall times
// and the per-cycle wall times work_per_s counts (the steps themselves,
// or the steps plus their refresh), each scaled by the calibration around
// its step.
func stepMetrics(o *outcome, cal *calibrator, starts []time.Time, steps, cycles []time.Duration, unitsPerCycle float64) {
	scales := cal.scales(starts, steps)
	s := ms(scaled(steps, scales))
	pct, v := tail(s)
	o.metrics["step_p50_ms"] = median(s)
	o.metrics["work_per_s"] = windowRate(scaled(cycles, scales), unitsPerCycle)
	pctRaw, vRaw := tail(ms(steps))
	o.logf("steps: %d; raw p50 %.3f ms, tail p%g %.3f ms, %.4f per s; median calibration scale %.4f",
		len(steps), median(ms(steps)), pctRaw, vRaw, windowRate(cycles, unitsPerCycle), median(scales))
	o.logf("calibration: %d kernel samples, median %.3f ms", len(cal.samples), float64(cal.medianKernel())/float64(time.Millisecond))
	o.logf("scaled: p50 %.3f ms, tail p%g %.3f ms", median(s), pct, v)
}

// rateWindows is how many consecutive windows of steps work_per_s takes
// its median over, so a burst of host contention inside a run moves one
// window rather than the whole rate.
const rateWindows = 10

// windowRate splits the steps into up to rateWindows consecutive windows
// of near-equal count and returns the median over windows of work done
// per second of the steps' wall time, at unitsPerStep work per step.
func windowRate(steps []time.Duration, unitsPerStep float64) float64 {
	w := min(rateWindows, len(steps))
	rates := make([]float64, w)
	for i := range rates {
		win := steps[i*len(steps)/w : (i+1)*len(steps)/w]
		rates[i] = unitsPerStep * float64(len(win)) / sumDur(win).Seconds()
	}
	return median(rates)
}

// setupMetric fills setup_s from one run's stand-up start and wall
// times, each scaled by the calibration around it.
func setupMetric(o *outcome, cal *calibrator, starts []time.Time, setups []time.Duration) {
	s := scaled(setups, cal.scales(starts, setups))
	o.metrics["setup_s"] = median(ms(s)) / 1000
	o.logf("setup: %d stand-ups, raw %v", len(setups), setups)
}

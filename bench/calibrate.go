package main

import (
	"slices"
	"sort"
	"time"
)

// The host this benchmark runs on is a small shared VM whose speed drifts
// by 20 % and more over minutes as neighbours come and go. A fixed
// calibration kernel, timed between steps throughout each run, tracks
// that drift: each step's wall time is scaled by calRef over the kernel
// time measured around it, so it reads as the time the step would take
// on a host where the kernel takes calRef. The kernel is benchmark code
// only and allocates nothing, so no change to the program can move it.
// The report lines print the raw times and the scale too.

const (
	// calRef is the kernel's time on the 2-vCPU VM the benchmark was
	// defined on, so scaled figures read close to that host's raw ones.
	calRef = 6 * time.Millisecond
	// calEvery is the least wall time between two kernel samples.
	calEvery = 250 * time.Millisecond
	// calWindow is how many samples nearest a step its scale takes the
	// median of: normally the two before it and the first after it.
	calWindow = 3
	// calFloats is the kernel's working set: 256 KiB.
	calFloats = 1 << 15
)

// calSample is one timed kernel run.
type calSample struct {
	at time.Time // when it finished
	d  time.Duration
}

// calibrator times the kernel and keeps its samples in time order.
type calibrator struct {
	src, buf []float64 // fixed kernel input and scratch
	samples  []calSample
}

func newCalibrator() *calibrator {
	c := &calibrator{src: make([]float64, calFloats), buf: make([]float64, calFloats)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.src[i] = float64(x>>11) / (1 << 53)
	}
	return c
}

// sample runs the kernel once and records its wall time.
func (c *calibrator) sample() {
	start := time.Now()
	kernel(c.src, c.buf)
	end := time.Now()
	c.samples = append(c.samples, calSample{at: end, d: end.Sub(start)})
}

// maybe samples when calEvery has passed since the last sample.
func (c *calibrator) maybe() {
	if len(c.samples) == 0 || time.Since(c.samples[len(c.samples)-1].at) >= calEvery {
		c.sample()
	}
}

// scales returns, for each interval given by its start and duration,
// calRef over the median of the calWindow kernel samples nearest the
// interval's middle: multiply the interval by it. Call it once the run
// has taken a sample after its last interval.
func (c *calibrator) scales(starts []time.Time, ds []time.Duration) []float64 {
	if len(c.samples) == 0 {
		c.sample()
	}
	out := make([]float64, len(starts))
	for k, start := range starts {
		mid := start.Add(ds[k] / 2)
		i := sort.Search(len(c.samples), func(i int) bool { return c.samples[i].at.After(mid) })
		lo := max(0, min(i-calWindow+1, len(c.samples)-calWindow))
		win := c.samples[lo:min(lo+calWindow, len(c.samples))]
		times := make([]float64, len(win))
		for j, s := range win {
			times[j] = float64(s.d)
		}
		out[k] = float64(calRef) / median(times)
	}
	return out
}

// medianKernel is the median kernel time over the run, for the report.
func (c *calibrator) medianKernel() time.Duration {
	times := make([]float64, len(c.samples))
	for i, s := range c.samples {
		times[i] = float64(s.d)
	}
	return time.Duration(median(times))
}

// kernel sorts a copy of src and then walks it in a data-dependent
// order: comparisons, branches and cache misses like the allocators'.
func kernel(src, buf []float64) {
	copy(buf, src)
	slices.Sort(buf)
	var sum float64
	j := 0
	for i := 0; i < 4*len(buf); i++ {
		sum += buf[j]
		j = (j*31 + int(buf[j]*1e6) + i) & (len(buf) - 1)
	}
	buf[0] = sum // keeps the walk live
}

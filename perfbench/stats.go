package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	alohametrics "alohadb/internal/metrics"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank.
// Failed operations are recorded as +Inf, so they sort last and any
// percentile that reaches them reads +Inf: a failure misses every limit.
// NaN entries (operations the metric does not apply to) are skipped. The
// second result is the number of samples the percentile was taken over.
func percentile(xs []float64, q float64) (float64, int) {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(q*float64(len(vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	return vals[rank], len(vals)
}

// subWindows splits the samples of xs (NaN entries skipped), in time
// order, into as many contiguous parts of equal size as keep at least
// minWindowSamples in each, and returns the q-quantile of each part and
// the samples per part.
func subWindows(xs []float64, q float64) ([]float64, int) {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return nil, 0
	}
	k := max(1, len(vals)/minWindowSamples)
	parts := make([]float64, k)
	for j := range parts {
		parts[j], _ = percentile(vals[j*len(vals)/k:(j+1)*len(vals)/k], q)
	}
	return parts, len(vals) / k
}

// median of a small sample (set-up repetitions, probe timings).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// histDelta subtracts a start snapshot from an end snapshot of the same
// cumulative histogram, leaving the observations made in between.
func histDelta(end, start alohametrics.HistogramSnapshot) alohametrics.HistogramSnapshot {
	d := end.Clone()
	if len(start.Counts) != len(d.Counts) {
		return d
	}
	for i, c := range start.Counts {
		d.Counts[i] -= c
	}
	d.Sum -= start.Sum
	d.Count -= start.Count
	return d
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Go runtime metrics sampled at phase boundaries.
const (
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtAllocObjs  = "/gc/heap/allocs:objects"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtHeapLive   = "/gc/heap/live:bytes"
)

// runtimeSample is one reading of the runtime metrics above.
type runtimeSample struct {
	gcCPU      float64
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	heapLive   uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: rtGCCPU}, {Name: rtAllocBytes}, {Name: rtAllocObjs}, {Name: rtGCCycles}, {Name: rtHeapLive}}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocObjs = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[3].Value.Uint64()
	}
	if s[4].Value.Kind() == metrics.KindUint64 {
		out.heapLive = s[4].Value.Uint64()
	}
	return out
}

// gcPauses returns the stop-the-world pause, in ns, of every GC cycle
// after the first startGC, from the runtime's record of the last 256.
func gcPauses(startGC uint64) []float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var out []float64
	for n := startGC + 1; n <= uint64(m.NumGC); n++ {
		if uint64(m.NumGC)-n < uint64(len(m.PauseNs)) {
			out = append(out, float64(m.PauseNs[(n-1)%uint64(len(m.PauseNs))]))
		}
	}
	return out
}

package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs, which it
// sorts in place. A failed or refused operation enters as +Inf, so it
// counts as missing every latency limit. It returns NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(idx, len(xs)-1))]
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// sum adds xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ladder is a fixed geometric set of offered rates: Base·Ratio^k for
// k = 0..Steps-1. Adjacent steps are (Ratio-1) apart.
type ladder struct {
	Base  float64
	Ratio float64
	Steps int
}

func (l ladder) rate(k int) float64 { return l.Base * math.Pow(l.Ratio, float64(k)) }

// highest binary-searches the ladder for the highest step whose probe
// passes, assuming a rate that passes passes at every lower step too, then
// climbs while the next step passes: noise on a shared host only ever
// makes a probe fail, and the climb undoes a search that a burst sent too
// low. When even the lowest step fails it reports one step below the
// ladder, so the value stays an upper bound and never reads 0.
func (l ladder) highest(pass func(rate float64) bool) float64 {
	lo, hi := -1, l.Steps // lo passes, hi fails (virtual ends)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(l.rate(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	for lo+1 < l.Steps && pass(l.rate(lo+1)) {
		lo++
	}
	return l.rate(lo)
}

// probeStats summarizes one open-loop run for the latency limit.
type probeStats struct {
	Attempted, Failed int
	// P99 counts every failed, refused or never-sent request as +Inf.
	P50, P99 float64
	// LateFirst/LateLast are the median send lateness (ms behind the due
	// time) of the first and last quarter of the requests.
	LateFirst, LateLast float64
}

// summarize computes probeStats from per-request records in due order.
func summarize(recs []reqRecord) probeStats {
	st := probeStats{Attempted: len(recs)}
	lat := make([]float64, len(recs))
	for i, r := range recs {
		if r.OK {
			lat[i] = r.LatencyMs
		} else {
			lat[i] = math.Inf(1)
			st.Failed++
		}
	}
	st.P50 = percentile(append([]float64(nil), lat...), 0.50)
	st.P99 = percentile(lat, 0.99)
	q := max(1, len(recs)/4)
	st.LateFirst = lateMedian(recs[:min(q, len(recs))])
	st.LateLast = lateMedian(recs[max(0, len(recs)-q):])
	return st
}

// windowedP99 splits a phase's records, in due order, into n consecutive
// windows and returns the median of the windows' p99 latencies. A burst of
// load from another tenant of the host lifts the p99 of the windows it
// falls in and leaves the median window alone.
func windowedP99(recs []reqRecord, n int) float64 {
	var p99s []float64
	for w := 0; w < n; w++ {
		if win := recs[w*len(recs)/n : (w+1)*len(recs)/n]; len(win) > 0 {
			p99s = append(p99s, summarize(win).P99)
		}
	}
	return median(p99s)
}

// lateMedian is the median send lateness of recs; a request never sent is
// treated as infinitely late.
func lateMedian(recs []reqRecord) float64 {
	late := make([]float64, len(recs))
	for i, r := range recs {
		if r.Sent {
			late[i] = r.LateMs
		} else {
			late[i] = math.Inf(1)
		}
	}
	return percentile(late, 0.5)
}

// meetsSLO is the ladder's pass rule: p99 latency (failures counted as
// misses) within limitMs, and no growing backlog — the generator must not
// fall further behind its schedule from the first quarter of the probe to
// the last by more than a quarter of the limit.
func meetsSLO(st probeStats, limitMs float64) bool {
	if st.Attempted == 0 || !(st.P99 <= limitMs) {
		return false
	}
	return st.LateLast-st.LateFirst <= limitMs/4
}

// usage is a process's resource counters at one instant.
type usage struct {
	CPUSeconds float64 `json:"cpu_s"`
	MaxRSSMB   float64 `json:"maxrss_mb"`
	GCCPU      float64 `json:"gc_cpu_s"`
	BusyCPU    float64 `json:"busy_cpu_s"`
	AllocBytes float64 `json:"alloc_bytes"`
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readUsage samples this process's rusage and Go runtime counters.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return usage{
		CPUSeconds: tv(ru.Utime) + tv(ru.Stime),
		MaxRSSMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
		GCCPU:      f(0),
		BusyCPU:    f(1) - f(2),
		AllocBytes: f(3),
	}
}

// allocBytes reads the cumulative heap allocation counter alone.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// sub returns the counters accumulated between b and a (a later); the
// peak RSS is a's, since a peak does not subtract.
func (a usage) sub(b usage) usage {
	return usage{
		CPUSeconds: a.CPUSeconds - b.CPUSeconds,
		MaxRSSMB:   a.MaxRSSMB,
		GCCPU:      a.GCCPU - b.GCCPU,
		BusyCPU:    a.BusyCPU - b.BusyCPU,
		AllocBytes: a.AllocBytes - b.AllocBytes,
	}
}

// gcRatio is the share of busy CPU the garbage collector took.
func (a usage) gcRatio() float64 {
	if a.BusyCPU <= 0 {
		return 0
	}
	return a.GCCPU / a.BusyCPU
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// roundResult is what one round (one fresh deployment) measured.
type roundResult struct {
	setup     time.Duration
	attempted int
	completed int
	failed    int // errors, refusals and ops still outstanding after the drain
	lat       []time.Duration
	elapsed   time.Duration // window start to the last completion
	cpu       time.Duration // process CPU over the same interval
	heapMB    float64
	lateMax   time.Duration
	problems  []string
	// counts are additive layer counters (deltas over the window);
	// samples are layer timing distributions pooled across rounds.
	counts  map[string]float64
	samples map[string][]time.Duration
}

func newRoundResult() *roundResult {
	return &roundResult{counts: make(map[string]float64), samples: make(map[string][]time.Duration)}
}

func (r *roundResult) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *roundResult) correct() bool { return len(r.problems) == 0 }

func (r *roundResult) cpuPerOpUs() float64 {
	if r.completed == 0 {
		return 0
	}
	return float64(r.cpu.Microseconds()) / float64(r.completed)
}

// aggregated pools the untraced rounds of one run.
type aggregated struct {
	*roundResult
	setups   []float64
	heaps    []float64
	p50s     []float64
	p99s     []float64
	minCount int // fewest latency samples in a round
}

func aggregate(rs []*roundResult) aggregated {
	a := aggregated{roundResult: newRoundResult()}
	for _, r := range rs {
		a.attempted += r.attempted
		a.completed += r.completed
		a.failed += r.failed
		a.lat = append(a.lat, r.lat...)
		a.elapsed += r.elapsed
		a.cpu += r.cpu
		a.lateMax = max(a.lateMax, r.lateMax)
		a.problems = append(a.problems, r.problems...)
		a.setups = append(a.setups, r.setup.Seconds())
		a.heaps = append(a.heaps, r.heapMB)
		a.p50s = append(a.p50s, quantileMs(r.lat, 0.50))
		a.p99s = append(a.p99s, quantileMs(r.lat, 0.99))
		if a.minCount == 0 || len(r.lat) < a.minCount {
			a.minCount = len(r.lat)
		}
		for k, v := range r.counts {
			a.counts[k] += v
		}
		for k, v := range r.samples {
			a.samples[k] = append(a.samples[k], v...)
		}
	}
	return a
}

// endToEnd derives the user-visible metrics from the untraced rounds.
// Client latency is reported per layer (client.p50_ms, client.p99_ms):
// on two vCPUs of a shared host it moves with the host's load by more
// than a bound can allow, so it is not gated.
func endToEnd(a aggregated) []named {
	fmt.Printf("latency: %d samples in %d rounds, at least %d per round (%d beyond its p99); median round p50 %.4f ms, p99 %.4f ms; pooled p50 %.4f ms, p99 %.4f ms\n",
		len(a.lat), len(a.p50s), a.minCount, a.minCount/100, median(a.p50s), median(a.p99s), quantileMs(a.lat, 0.50), quantileMs(a.lat, 0.99))
	opsPerS := 0.0
	if a.elapsed > 0 {
		opsPerS = float64(a.completed) / a.elapsed.Seconds()
	}
	ms := []named{
		{"setup_s", median(a.setups), "s"},
		{"ops_per_s", opsPerS, "1/s"},
		{"cpu_us_per_op", a.cpuPerOpUs(), "us"},
		{"live_heap_mb", median(a.heaps), "MB"},
	}
	sortNamed(ms)
	return ms
}

// perLayer derives the per-layer metrics: counters from the untraced
// rounds (the same program the end-to-end metrics measure) and per-hop
// latency from the separate traced round tr.
func perLayer(a aggregated, tr *roundResult) []named {
	c := a.counts
	ops := float64(a.completed)
	per := func(k string) float64 { return ratio(c[k], ops) }
	q := func(set map[string][]time.Duration, k string, p float64, unit time.Duration) float64 {
		return quantile(set[k], p, unit)
	}
	ms := []named{
		{"transport.frames_per_op", per("transport.frames"), "count"},
		{"transport.sends_per_op", per("transport.sends"), "count"},
		{"transport.bytes_per_op", per("transport.bytes"), "B"},
		{"ring.values_per_instance", ratio(c["ring.values"], c["ring.decided"]), "count"},
		{"ring.skips_per_op", per("ring.skipped"), "count"},
		{"ring.wal_batch_mean", ratio(c["ring.wal_items"], c["ring.wal_batches"]), "count"},
		{"ring.send_batch_mean", ratio(c["ring.send_items"], c["ring.send_batches"]), "count"},
		{"storage.commits_per_op", per("storage.commits"), "count"},
		{"storage.fsyncs_per_op", per("storage.fsyncs"), "count"},
		{"storage.commit_p50_us", q(a.samples, "storage.commit", 0.50, time.Microsecond), "us"},
		{"storage.commit_p99_us", q(a.samples, "storage.commit", 0.99, time.Microsecond), "us"},
		{"core.batch_mean", ratio(c["core.values"], c["core.batches"]), "count"},
		{"smr.retransmits_per_op", per("smr.retransmits"), "count"},
		{"smr.overload_backoffs_per_op", per("smr.overload_backoffs"), "count"},
		{"smr.executed_per_op", per("smr.executed"), "count"},
		{"recovery.checkpoints_per_kop", 1000 * per("recovery.checkpoints"), "count"},
		{"go.allocs_per_op", per("go.mallocs"), "count"},
		{"go.alloc_bytes_per_op", per("go.alloc_bytes"), "B"},
		{"go.gc_pause_ms", ratio(1000*c["go.gc_pause_s"], a.elapsed.Seconds()), "ms/s"},
		{"bufpool.miss_ratio", ratio(c["bufpool.misses"], c["bufpool.hits"]+c["bufpool.misses"]), "fraction"},
		{"client.p50_ms", median(a.p50s), "ms"},
		{"client.p99_ms", median(a.p99s), "ms"},
		{"loadgen.late_max_ms", durMs(a.lateMax), "ms"},
		{"failed_frac", ratio(float64(a.failed), float64(a.attempted)), "fraction"},
		{"trace.overhead_cpu_us_per_op", tr.cpuPerOpUs() - a.cpuPerOpUs(), "us"},
		{"trace.sampled_ops", tr.counts["trace.traces"], "count"},
		{"multiring.p50_ms", q(tr.samples, "multiring.latency", 0.50, time.Millisecond), "ms"},
		{"multiring.p99_ms", q(tr.samples, "multiring.latency", 0.99, time.Millisecond), "ms"},
		{"multiring.merge_wait_p50_ms", q(tr.samples, "multiring.merge_wait", 0.50, time.Millisecond), "ms"},
		{"multiring.merge_wait_p99_ms", q(tr.samples, "multiring.merge_wait", 0.99, time.Millisecond), "ms"},
		{"multiring.failed_frac", ratio(tr.counts["multiring.failed"], tr.counts["multiring.attempted"]), "fraction"},
	}
	for _, op := range []string{"store.read", "store.update", "store.scan", "dlog.append", "dlog.read"} {
		ms = append(ms,
			named{op + "_p50_ms", q(a.samples, op, 0.50, time.Millisecond), "ms"},
			named{op + "_p99_ms", q(a.samples, op, 0.99, time.Millisecond), "ms"})
	}
	for _, h := range hops {
		unit, scale := "ms", time.Millisecond
		if h.micros {
			unit, scale = "us", time.Microsecond
		}
		ms = append(ms,
			named{h.name + "_p50_" + unit, q(tr.samples, h.name, 0.50, scale), unit},
			named{h.name + "_p99_" + unit, q(tr.samples, h.name, 0.99, scale), unit})
	}
	sortNamed(ms)
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the p-quantile of xs in the given unit (nearest rank;
// 0 for an empty sample).
func quantile(xs []time.Duration, p float64, unit time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(unit)
}

func quantileMs(xs []time.Duration, p float64) float64 { return quantile(xs, p, time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and reports the live Go heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

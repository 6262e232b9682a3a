package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/obs"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// Outside-in probes: wrappers around the program's public interfaces and
// snapshots of its public metric registry. They observe the program
// without editing it.

// countingTransport wraps a process's transport and counts what it sends.
// It forwards SendBatch, because the ring type-asserts
// transport.BatchSender: hiding it would switch the ring to per-message
// sends and measure a different program.
type countingTransport struct {
	transport.Transport
	batch  transport.BatchSender
	calls  atomic.Uint64 // Send and SendBatch calls
	frames atomic.Uint64 // messages
	bytes  atomic.Uint64 // encoded size of those messages
}

var _ transport.BatchSender = (*countingTransport)(nil)

func newCountingTransport(tr transport.Transport) *countingTransport {
	bs, ok := tr.(transport.BatchSender)
	if !ok {
		panic("perfbench: transport does not implement BatchSender")
	}
	return &countingTransport{Transport: tr, batch: bs}
}

func (t *countingTransport) Send(to transport.ProcessID, m transport.Message) error {
	t.calls.Add(1)
	t.frames.Add(1)
	t.bytes.Add(uint64(m.EncodedSize()))
	return t.Transport.Send(to, m)
}

func (t *countingTransport) SendBatch(msgs []transport.Message) error {
	var n uint64
	for i := range msgs {
		n += uint64(msgs[i].EncodedSize())
	}
	t.calls.Add(1)
	t.frames.Add(uint64(len(msgs)))
	t.bytes.Add(n)
	return t.batch.SendBatch(msgs)
}

// transportCounts sums the counters of several wrapped transports.
func transportCounts(ts []*countingTransport) (calls, frames, bytes float64) {
	for _, t := range ts {
		calls += float64(t.calls.Load())
		frames += float64(t.frames.Load())
		bytes += float64(t.bytes.Load())
	}
	return calls, frames, bytes
}

// timedLog wraps an acceptor log and times its group commits. It keeps
// the wrapped log's Fsyncs reachable, so the deployment's registry still
// counts fsyncs through the wrapper.
type timedLog struct {
	storage.Log
	fsyncs func() uint64

	mu      sync.Mutex
	on      bool
	commits []time.Duration // PutBatch and Put latencies while on
	items   uint64
}

type fsyncCounter interface{ Fsyncs() uint64 }

func newTimedLog(lg storage.Log) *timedLog {
	t := &timedLog{Log: lg, fsyncs: func() uint64 { return 0 }}
	if f, ok := lg.(fsyncCounter); ok {
		t.fsyncs = f.Fsyncs
	}
	return t
}

// Fsyncs forwards the wrapped log's fsync count.
func (t *timedLog) Fsyncs() uint64 { return t.fsyncs() }

func (t *timedLog) Put(instance uint64, record []byte) error {
	start := time.Now()
	err := t.Log.Put(instance, record)
	t.observe(time.Since(start), 1)
	return err
}

func (t *timedLog) PutBatch(recs []storage.Record) error {
	start := time.Now()
	err := t.Log.PutBatch(recs)
	t.observe(time.Since(start), len(recs))
	return err
}

func (t *timedLog) observe(d time.Duration, items int) {
	t.mu.Lock()
	if t.on {
		t.commits = append(t.commits, d)
		t.items += uint64(items)
	}
	t.mu.Unlock()
}

// record starts or stops collecting commit timings.
func (t *timedLog) record(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// take returns the collected commit timings and record count.
func (t *timedLog) take() ([]time.Duration, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.commits...), t.items
}

// regSnap is one scrape of an obs.Registry, keyed by name and labels.
type regSnap map[string]float64

func scrape(reg *obs.Registry) regSnap {
	s := make(regSnap)
	for _, smp := range reg.Samples() {
		s[seriesKey(smp)] = smp.Value
	}
	return s
}

func seriesKey(s obs.Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + s.Labels[k])
	}
	return b.String()
}

// labelOf extracts one label value from a series key.
func labelOf(key, label string) string {
	for _, part := range strings.Split(key, "|")[1:] {
		if v, ok := strings.CutPrefix(part, label+"="); ok {
			return v
		}
	}
	return ""
}

func nameOf(key string) string {
	name, _, _ := strings.Cut(key, "|")
	return name
}

// sum is the total delta of a metric across every series.
func (end regSnap) sum(start regSnap, name string) float64 {
	var total float64
	for k, v := range end {
		if nameOf(k) == name {
			total += v - start[k]
		}
	}
	return total
}

// perRing is the delta of a per-process, per-ring counter counted once
// per ring: every member process reports the same ring, so it takes the
// largest delta among a ring's processes and sums over rings.
func (end regSnap) perRing(start regSnap, name string) float64 {
	best := make(map[string]float64)
	for k, v := range end {
		if nameOf(k) == name {
			r := labelOf(k, "ring")
			best[r] = max(best[r], v-start[k])
		}
	}
	var total float64
	for _, v := range best {
		total += v
	}
	return total
}

// mean averages a gauge over its series (0 values excluded: processes
// that are not coordinators report no batches).
func (end regSnap) mean(name string) float64 {
	var total float64
	n := 0
	for k, v := range end {
		if nameOf(k) == name && v > 0 {
			total += v
			n++
		}
	}
	return ratio(total, float64(n))
}

// runtimeCounts records the Go runtime and buffer-pool deltas every
// deployment registry carries.
func runtimeCounts(r *roundResult, start, end regSnap) {
	r.counts["go.mallocs"] += end.sum(start, "go.alloc.mallocs_total")
	r.counts["go.alloc_bytes"] += end.sum(start, "go.alloc.bytes_total")
	r.counts["go.gc_pause_s"] += end.sum(start, "go.gc.pause_seconds_total")
	r.counts["bufpool.hits"] += end.sum(start, "mrp.bufpool.hits_total")
	r.counts["bufpool.misses"] += end.sum(start, "mrp.bufpool.misses_total")
}

// checkTeardown requires every pooled buffer back once a deployment has
// shut down (the registry's mrp.bufpool.outstanding gauge reads 0).
func checkTeardown(r *roundResult) {
	deadline := time.Now().Add(2 * time.Second)
	for bufpool.Outstanding() != 0 {
		if time.Now().After(deadline) {
			r.problemf("mrp.bufpool.outstanding is %d after teardown", bufpool.Outstanding())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

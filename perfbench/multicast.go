package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/obs"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

const multicastWhy = "raw atomic multicast: 2 groups x 3 processes (all roles) plus one proposer alternating 160 B values; " +
	"loads transport, ring, memory acceptor log, bufpool and core delivery; bypasses smr/store"

const (
	multicastRate       = 30000.0
	multicastValueBytes = 160
	multicastProposer   = transport.ProcessID(100)
	// multicastTraceEvery samples every Nth value in the traced round:
	// a 2 s window at 30k values/s samples ~234 values, about five spans
	// each per process, well below a recorder's 4096 spans.
	multicastTraceEvery = 256
	// multicastWarmup values run through the stack at the workload rate
	// before the window, so pools and maps reach their steady size.
	multicastWarmup = 10000
	// probeBit marks the readiness probes and warmBit the warm-up values
	// sent during setup.
	probeBit = uint64(1) << 63
	warmBit  = uint64(1) << 62
)

// multicastGroups are the two groups the proposer alternates between:
// value seq goes to multicastGroups[seq%2].
var multicastGroups = []transport.RingID{1, 2}

// A layout assigns processes to groups; every process has all roles in
// its groups and subscribes to all of them. The measured layout gives
// each group its own three processes. The merged layout is the paper's
// Figure 2(b) shape — the same three processes in both groups, each
// merging both rings — and runs in the traced run only: at HEAD the
// rings' instance counts drift apart (packing and Δ-paced skips differ
// per ring) and a learner's merge then holds one group's values until
// the other ring catches up, by a different amount in every deployment.
var (
	disjointLayout = map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}, 2: {4, 5, 6}}
	mergedLayout   = map[transport.RingID][]transport.ProcessID{1: {1, 2, 3}, 2: {1, 2, 3}}
)

// multicastRingOptions is the paper's LAN configuration (amcast.Defaults):
// M=1, Δ=5 ms, λ=9000, 32 KB packing.
func multicastRingOptions() core.RingOptions {
	return core.RingOptions{SkipEnabled: true, Delta: 5 * time.Millisecond, Lambda: 9000, BatchBytes: 32 << 10}
}

// learner is one subscriber's view of the delivered stream. The first
// process of each group times that group's values from their due times.
type learner struct {
	id     transport.ProcessID
	node   *core.Node
	groups []transport.RingID
	tag    uint64 // the run's value tag
	want   uint64 // window values of its groups

	mu    sync.Mutex
	seen  []bool // window values delivered
	lat   []time.Duration
	timed [3]bool
	hash  uint64 // running hash of (group, seq) in delivery order
	total uint64 // every delivery, probes included

	window  atomic.Uint64 // distinct window values delivered
	probes  [3]atomic.Uint64
	warm    atomic.Uint64
	batches atomic.Uint64
	values  atomic.Uint64
	bad     atomic.Uint64 // duplicates and malformed values
	lastNs  atomic.Int64  // latest timed delivery

	startNs  *atomic.Int64
	interval time.Duration
}

func (l *learner) deliver(ds []core.Delivery) {
	now := time.Now()
	start := time.Unix(0, l.startNs.Load())
	l.batches.Add(1)
	l.values.Add(uint64(len(ds)))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range ds {
		if len(d.Data) != multicastValueBytes || binary.LittleEndian.Uint64(d.Data[8:]) != l.tag {
			l.bad.Add(1)
			continue
		}
		seq := binary.LittleEndian.Uint64(d.Data)
		l.hash = (l.hash ^ (seq<<2 | uint64(d.Group))) * 1099511628211
		l.total++
		if seq&probeBit != 0 {
			l.probes[d.Group].Add(1)
			continue
		}
		if seq&warmBit != 0 {
			l.warm.Add(1)
			continue
		}
		if seq >= uint64(len(l.seen)) || l.seen[seq] || multicastGroups[seq%2] != d.Group {
			l.bad.Add(1)
			continue
		}
		l.seen[seq] = true
		if l.timed[d.Group] {
			l.lat[seq] = now.Sub(start.Add(time.Duration(seq) * l.interval))
			l.lastNs.Store(now.UnixNano())
		}
		l.window.Add(1)
	}
}

func (l *learner) state() (hash, total uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hash, l.total
}

// multicastValue lays out a value: seq, the run tag, then filler.
func multicastValue(seq, tag uint64) []byte {
	v := make([]byte, multicastValueBytes)
	binary.LittleEndian.PutUint64(v, seq)
	binary.LittleEndian.PutUint64(v[8:], tag)
	for i := 16; i < len(v); i++ {
		v[i] = byte(seq) + byte(i)
	}
	return v
}

// multicastRound runs one round on the disjoint layout. The traced round
// also runs the merged layout, whose latency and merge wait are reported
// per layer only.
func multicastRound(c config, round int, traced bool) (*roundResult, error) {
	r, err := multicastRun(c, round, traced, disjointLayout)
	if err != nil || !traced {
		return r, err
	}
	m, err := multicastRun(c, round+1, true, mergedLayout)
	if err != nil {
		return nil, fmt.Errorf("merged layout: %w", err)
	}
	multiring(r, m, "merged layout")
	return r, nil
}

// multiring reports a multi-ring companion run's latency and merge wait
// under the multiring.* per-layer metrics.
func multiring(r, m *roundResult, name string) {
	fmt.Printf("%s: %d/%d ops ok, p50 %.3f ms, p99 %.3f ms, merge wait p50 %.3f ms\n",
		name, m.completed, m.attempted, quantileMs(m.lat, 0.50), quantileMs(m.lat, 0.99),
		quantileMs(m.samples["core.merge_wait"], 0.50))
	r.samples["multiring.latency"] = m.lat
	r.samples["multiring.merge_wait"] = m.samples["core.merge_wait"]
	r.counts["multiring.failed"] = float64(m.failed)
	r.counts["multiring.attempted"] = float64(m.attempted)
	for _, p := range m.problems {
		r.problemf("%s: %s", name, p)
	}
}

func multicastRun(c config, round int, traced bool, layout map[transport.RingID][]transport.ProcessID) (*roundResult, error) {
	r := newRoundResult()
	n := int(multicastRate * c.window().Seconds())
	interval := time.Second / time.Duration(multicastRate)
	tag := uint64(c.seed)*1000 + uint64(round)
	values := make([][]byte, n)
	for i := range values {
		values[i] = multicastValue(uint64(i), tag)
	}

	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	obs.RegisterBufPool(reg)
	col := trace.NewCollector()

	setupStart := time.Now()
	network := transport.NewNetwork(nil)
	defer network.Close()
	svc := coord.NewService()
	groupsOf := make(map[transport.ProcessID][]transport.RingID)
	var ids []transport.ProcessID
	for _, g := range multicastGroups {
		var members []coord.Member
		for _, id := range layout[g] {
			members = append(members, coord.Member{ID: id, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner})
			if groupsOf[id] == nil {
				ids = append(ids, id)
			}
			groupsOf[id] = append(groupsOf[id], g)
		}
		if err := svc.CreateRing(g, members); err != nil {
			return nil, err
		}
	}
	var startNs atomic.Int64
	var trs []*countingTransport
	var nodes []*core.Node
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	attach := func(id transport.ProcessID, opts core.RingOptions) (*core.Node, *trace.Recorder, error) {
		tr := newCountingTransport(network.Attach(id, netem.SiteLocal))
		trs = append(trs, tr)
		rec := trace.NewRecorder(fmt.Sprintf("p%d", id), 0)
		col.Register(rec)
		node, err := core.New(core.Config{Self: id, Router: transport.NewRouter(tr), Coord: svc, M: 1, Ring: opts, Tracer: rec})
		if err == nil {
			nodes = append(nodes, node)
		}
		return node, rec, err
	}
	var learners []*learner
	timers := make(map[transport.RingID]*learner)
	for _, id := range ids {
		node, _, err := attach(id, multicastRingOptions())
		if err != nil {
			return nil, err
		}
		l := &learner{id: id, node: node, groups: groupsOf[id], tag: tag, want: uint64(n / 2 * len(groupsOf[id])),
			seen: make([]bool, n), startNs: &startNs, interval: interval}
		for _, g := range l.groups {
			if err := node.Join(g); err != nil {
				return nil, err
			}
			if layout[g][0] == id {
				l.timed[g] = true
				l.lat = make([]time.Duration, n)
				timers[g] = l
			}
		}
		learners = append(learners, l)
		if err := node.SubscribeBatch(l.deliver, l.groups...); err != nil {
			return nil, err
		}
	}
	members := append([]*core.Node(nil), nodes...) // the group members, without the proposer
	proposer, prec, err := attach(multicastProposer, core.RingOptions{})
	if err != nil {
		return nil, err
	}
	if err := multicastReady(proposer, learners, tag); err != nil {
		return nil, err
	}
	if err := multicastWarm(proposer, learners, tag, interval); err != nil {
		return nil, err
	}
	r.setup = time.Since(setupStart)

	// Window: multicast values alternately to the two groups on schedule.
	reg0 := scrape(reg)
	io0 := ioCounts(members)
	calls0, frames0, bytes0 := transportCounts(trs)
	dec0, skip0 := ringStats(timers)
	batches0, values0 := coreCounts(learners)
	if traced {
		prec.SetSampling(multicastTraceEvery)
	}
	var lateMax time.Duration
	restore := preciseTimer()
	cpu0 := cpuTime()
	start := time.Now()
	startNs.Store(start.UnixNano())
	for i := 0; i < n; {
		// Issue every value that is due, then sleep until the next one
		// is: each wake-up issues the few values due during the sleep.
		now := time.Now()
		due := start.Add(time.Duration(i) * interval)
		if due.After(now) {
			sleepUntil(due)
			continue
		}
		lateMax = max(lateMax, now.Sub(due))
		if err := proposer.MulticastValueTraced(multicastGroups[i%2], 0, values[i], prec.StartRoot()); err != nil {
			r.problemf("multicast %d: %v", i, err)
			break
		}
		i++
	}
	restore()
	values = nil // the rings hold what they still need
	deadline := start.Add(time.Duration(n)*interval + drainGrace)
	for !allDelivered(learners) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.cpu = cpuTime() - cpu0
	reg1 := scrape(reg)
	if traced {
		prec.SetSampling(0)
		collectHops(r, col)
	}
	r.heapMB = liveHeapMB()
	r.attempted = n
	r.lateMax = lateMax
	var last int64
	for _, g := range multicastGroups {
		l := timers[g]
		l.mu.Lock()
		for seq := int(g - multicastGroups[0]); seq < n; seq += 2 {
			if l.seen[seq] {
				r.lat = append(r.lat, l.lat[seq])
			}
		}
		l.mu.Unlock()
		last = max(last, l.lastNs.Load())
	}
	r.completed = len(r.lat)
	r.failed = n - r.completed
	r.elapsed = time.Unix(0, last).Sub(start)

	for k, v := range ioCounts(members) {
		r.counts[k] += v - io0[k]
	}
	calls1, frames1, bytes1 := transportCounts(trs)
	r.counts["transport.sends"] += calls1 - calls0
	r.counts["transport.frames"] += frames1 - frames0
	r.counts["transport.bytes"] += bytes1 - bytes0
	dec1, skip1 := ringStats(timers)
	r.counts["ring.decided"] += dec1 - dec0
	r.counts["ring.skipped"] += skip1 - skip0
	r.counts["ring.values"] += float64(r.completed)
	batches1, values1 := coreCounts(learners)
	r.counts["core.batches"] += batches1 - batches0
	r.counts["core.values"] += values1 - values0
	runtimeCounts(r, reg0, reg1)

	multicastCheck(r, learners)
	for _, nd := range nodes {
		nd.Stop()
	}
	network.Close()
	checkTeardown(r)
	return r, nil
}

// multicastReady sends probes to both groups until every learner has
// delivered one from each of its groups: the rings have coordinators and
// deliver.
func multicastReady(proposer *core.Node, learners []*learner, tag uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for k := uint64(0); ; k++ {
		ready := true
		for _, l := range learners {
			for _, g := range l.groups {
				if l.probes[g].Load() == 0 {
					ready = false
				}
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rings not delivering after 10s")
		}
		if k%2 == 0 {
			for _, g := range multicastGroups {
				// Proposals sent before a ring has a coordinator are lost;
				// the next probe retries.
				_ = proposer.Multicast(g, multicastValue(probeBit|k<<1|uint64(g), tag))
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// multicastWarm sends the warm-up values on the workload's schedule and
// waits until every learner has delivered them.
func multicastWarm(proposer *core.Node, learners []*learner, tag uint64, interval time.Duration) error {
	restore := preciseTimer()
	defer restore()
	start := time.Now()
	for i := 0; i < multicastWarmup; i++ {
		due := start.Add(time.Duration(i) * interval)
		for time.Now().Before(due) {
			sleepUntil(due)
		}
		if err := proposer.Multicast(multicastGroups[i%2], multicastValue(warmBit|uint64(i), tag)); err != nil {
			return fmt.Errorf("warm-up multicast: %w", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, l := range learners {
		want := uint64(multicastWarmup / 2 * len(l.groups))
		for l.warm.Load() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("learner %d delivered %d of %d warm-up values", l.id, l.warm.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func allDelivered(ls []*learner) bool {
	for _, l := range ls {
		if l.window.Load() < l.want {
			return false
		}
	}
	return true
}

// ringStats sums the decided and skipped instance counters of each group,
// read at the group's timing learner.
func ringStats(timers map[transport.RingID]*learner) (decided, skipped float64) {
	for g, l := range timers {
		d, s, _ := l.node.RingStats(g)
		decided += float64(d)
		skipped += float64(s)
	}
	return decided, skipped
}

func coreCounts(ls []*learner) (batches, values float64) {
	for _, l := range ls {
		batches += float64(l.batches.Load())
		values += float64(l.values.Load())
	}
	return batches, values
}

// multicastCheck requires every learner to deliver every value of its
// groups exactly once, and learners of the same groups to deliver the
// same sequence.
func multicastCheck(r *roundResult, ls []*learner) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		agree := true
		for _, a := range ls {
			for _, b := range ls {
				ha, ta := a.state()
				hb, tb := b.state()
				if fmt.Sprint(a.groups) == fmt.Sprint(b.groups) && (ha != hb || ta != tb) {
					agree = false
				}
			}
		}
		if agree {
			break
		}
		if time.Now().After(deadline) {
			for _, l := range ls {
				h, t := l.state()
				r.problemf("learner %d of groups %v delivered %d values with hash %x; learners disagree", l.id, l.groups, t, h)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, l := range ls {
		if got := l.window.Load(); got != l.want {
			r.problemf("learner %d delivered %d of %d values", l.id, got, l.want)
		}
		if bad := l.bad.Load(); bad > 0 {
			r.problemf("learner %d delivered %d duplicate, misrouted or malformed values", l.id, bad)
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/store"
	"amcast/internal/transport"
	"amcast/internal/ycsb"
)

const kvWhy = "MRP-Store with independent rings (paper Fig. 4): 2 hash partitions x 3 replicas, " +
	"YCSB-A zipfian 50% read / 45% update / 5% scan; loads ring, smr dedup/apply, store treap and " +
	"recovery checkpoints; the global-ring variant runs in the traced run only"

const (
	kvRate       = 1000.0
	kvRecords    = 10000
	kvValueBytes = 160
	kvMaxScan    = 10
	kvWorkers    = 32
	kvPreloaders = 64
	// kvTraceEvery samples every Nth submit in the traced round: with
	// about five spans per process per sampled op, a 2 s window at
	// 1000 ops/s stays far below a recorder's 4096 spans.
	kvTraceEvery = 8
	// kvReadBack is how many keys are read back after the drain.
	kvReadBack = 200
)

// kvRingOptions is the committed BENCH_obs ring point plus acceptor log
// trimming, so acceptor state stays bounded.
func kvRingOptions() core.RingOptions {
	return core.RingOptions{
		RetryInterval: 200 * time.Millisecond,
		SkipEnabled:   true,
		Delta:         5 * time.Millisecond,
		Lambda:        9000,
		BatchBytes:    32 << 10,
		Window:        256,
		TrimInterval:  500 * time.Millisecond,
	}
}

// kvOp is one pre-generated store operation. Updates carry a version (the
// op's index + 1) embedded in the value with the key, so every read can
// be traced back to the write it observed.
type kvOp struct {
	kind   int // kvRead, kvUpdate or kvScan
	key    int
	scanN  int
	k, kHi string // the formatted key and, for scans, the range end
	value  []byte
}

const (
	kvRead = iota
	kvUpdate
	kvScan
	kvKinds
)

var kvKindNames = [kvKinds]string{"store.read", "store.update", "store.scan"}

func kvValue(key int, version uint64) []byte {
	v := make([]byte, kvValueBytes)
	n := copy(v, ycsb.Key(key)+"#"+strconv.FormatUint(version, 10)+"#")
	for i := n; i < len(v); i++ {
		v[i] = 'a' + byte((version+uint64(i))%26)
	}
	return v
}

// kvParse extracts the key and version a stored value carries.
func kvParse(v []byte) (key string, version uint64, ok bool) {
	parts := bytes.SplitN(v, []byte("#"), 3)
	if len(parts) != 3 || len(v) != kvValueBytes {
		return "", 0, false
	}
	version, err := strconv.ParseUint(string(parts[1]), 10, 64)
	return string(parts[0]), version, err == nil
}

// kvGenerate builds the window's ops from the seed: YCSB-A zipfian key
// choice with 5% of ops turned into scans of 1..10 keys. Keys are
// formatted here, outside the measured window.
func kvGenerate(seed int64, n int) []kvOp {
	f, err := ycsb.NewFactory(ycsb.Config{Workload: ycsb.WorkloadA, Records: kvRecords, ValueSize: kvValueBytes, Seed: seed})
	if err != nil {
		panic(err) // the config is a constant
	}
	g := f.Generator(seed)
	rng := rand.New(rand.NewSource(seed))
	ops := make([]kvOp, n)
	for i := range ops {
		k, err := strconv.Atoi(g.Next().Key[len("user"):])
		if err != nil {
			panic(err) // ycsb.Key formats digits
		}
		p := rng.Float64()
		switch {
		case p < 0.50:
			ops[i] = kvOp{kind: kvRead, key: k}
		case p < 0.95:
			ops[i] = kvOp{kind: kvUpdate, key: k, value: kvValue(k, uint64(i+1))}
		default:
			n := 1 + rng.Intn(kvMaxScan)
			k = min(k, kvRecords-n)
			ops[i] = kvOp{kind: kvScan, key: k, scanN: n, kHi: ycsb.Key(k + n - 1)}
		}
		ops[i].k = ycsb.Key(ops[i].key)
	}
	return ops
}

// kvOutcome is what one op observed, for the post-window checks.
type kvOutcome struct {
	issued, done time.Time
	ok           bool
	got          []byte // read value
	found        bool
	scanErr      error // a scan that returned the wrong entries
}

// kvRound runs one store round. The traced round also runs the same load
// on the global-ring store (paper Fig. 4 "MRP-Store"), whose replicas
// merge their partition ring with the idle global ring: its latency and
// merge wait are reported per layer only, because they depend on how far
// apart the rings' Δ-paced skip streams drifted since boot and so differ
// from one deployment to the next by up to a hundredfold.
func kvRound(c config, round int, traced bool) (*roundResult, error) {
	r, err := kvRun(c, round, traced, false)
	if err != nil || !traced {
		return r, err
	}
	g, err := kvRun(c, round+1, true, true)
	if err != nil {
		return nil, fmt.Errorf("global-ring store: %w", err)
	}
	multiring(r, g, "global-ring store")
	return r, nil
}

func kvRun(c config, round int, traced, global bool) (*roundResult, error) {
	r := newRoundResult()
	n := int(kvRate * c.window().Seconds())
	ops := kvGenerate(c.seed*1000+int64(round), n)

	setupStart := time.Now()
	d := cluster.NewDeployment(nil)
	defer d.Close()
	sc, err := d.StartStore(cluster.StoreOptions{
		Partitions:      2,
		Replicas:        3,
		Global:          global,
		Ring:            kvRingOptions(),
		CheckpointEvery: 1000,
	})
	if err != nil {
		return nil, err
	}
	client, cl, err := sc.NewClient(netem.SiteLocal)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	client.Timeout = 5 * time.Second
	if err := kvPreload(client); err != nil {
		return nil, err
	}
	r.setup = time.Since(setupStart)
	preloaded := time.Now()

	nodes := kvNodes(sc)
	reg0 := scrape(d.Obs)
	io0 := ioCounts(nodes)
	if traced {
		d.SetTraceSampling(kvTraceEvery)
	}
	outcomes := make([]kvOutcome, n)
	load := runOpenLoop(n, kvRate, kvWorkers, kvKinds, func(i int) (int, error) {
		op := ops[i]
		o := &outcomes[i]
		o.issued = time.Now()
		var err error
		switch op.kind {
		case kvRead:
			o.got, o.found, err = client.Read(op.k)
		case kvUpdate:
			err = client.Update(op.k, op.value)
		case kvScan:
			var es []store.Entry
			es, err = client.Scan(op.k, op.kHi)
			if err == nil {
				o.scanErr = kvCheckScan(op, es)
			}
		}
		o.done = time.Now()
		o.ok = err == nil
		return op.kind, err
	})
	reg1 := scrape(d.Obs)
	io1 := ioCounts(nodes)
	if traced {
		d.SetTraceSampling(0)
		collectHops(r, d.Trace)
	}
	r.heapMB = liveHeapMB()
	r.fill(load)
	for k, lat := range load.byKind {
		r.samples[kvKindNames[k]] = lat
	}
	for k, v := range io1 {
		r.counts[k] += v - io0[k]
	}
	r.counts["ring.values"] += float64(load.completed)
	r.counts["ring.decided"] += reg1.perRing(reg0, "mrp.ring.decided_total")
	r.counts["ring.skipped"] += reg1.perRing(reg0, "mrp.ring.skipped_total")
	r.counts["smr.retransmits"] += reg1.sum(reg0, "mrp.client.retransmits_total")
	r.counts["smr.overload_backoffs"] += reg1.sum(reg0, "mrp.client.overload_backoffs_total")
	r.counts["smr.executed"] += reg1.sum(reg0, "mrp.replica.executed_total")
	r.counts["recovery.checkpoints"] += reg1.sum(reg0, "mrp.replica.checkpoints_total")
	runtimeCounts(r, reg0, reg1)

	kvCheckReads(r, ops, outcomes, preloaded)
	kvReadBackCheck(r, client, ops, outcomes, preloaded)
	kvCheckReplicas(r, sc)
	cl.Close()
	d.Close()
	checkTeardown(r)
	return r, nil
}

// fill copies the generator's results into the round.
func (r *roundResult) fill(l loadResult) {
	r.attempted, r.completed, r.failed = l.attempted, l.completed, l.failed
	r.lat, r.elapsed, r.cpu, r.lateMax = l.lat, l.elapsed, l.cpu, l.lateMax
}

// kvPreload inserts every record (version 0) through the load client.
func kvPreload(client *store.Client) error {
	keys := make(chan int)
	errs := make(chan error, kvPreloaders)
	var wg sync.WaitGroup
	for w := 0; w < kvPreloaders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				if err := client.Insert(ycsb.Key(k), kvValue(k, 0)); err != nil {
					errs <- fmt.Errorf("preload %d: %w", k, err)
					return
				}
			}
		}()
	}
	var err error
	for k := 0; k < kvRecords && err == nil; k++ {
		select {
		case keys <- k:
		case err = <-errs:
		}
	}
	close(keys)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	return err
}

// kvNodes lists every replica's multicast node.
func kvNodes(sc *cluster.StoreCluster) []*core.Node {
	var out []*core.Node
	for p := 1; p <= 2; p++ {
		for rep := 1; rep <= 3; rep++ {
			out = append(out, sc.Server(p, rep).Replica().CoreNode())
		}
	}
	return out
}

// ioCounts sums the group-commit batch gauges of every ring on every node.
func ioCounts(nodes []*core.Node) map[string]float64 {
	out := make(map[string]float64)
	for _, n := range nodes {
		for _, g := range []transport.RingID{1, 2, cluster.GlobalRing} {
			wal, send := n.RingIOGauges(g)
			if wal == nil {
				continue
			}
			b, items, _ := wal.Snapshot()
			out["ring.wal_batches"] += float64(b)
			out["ring.wal_items"] += float64(items)
			b, items, _ = send.Snapshot()
			out["ring.send_batches"] += float64(b)
			out["ring.send_items"] += float64(items)
		}
	}
	return out
}

func kvCheckScan(op kvOp, es []store.Entry) error {
	if len(es) != op.scanN {
		return fmt.Errorf("scan of %d keys from %d returned %d entries", op.scanN, op.key, len(es))
	}
	for i, e := range es {
		want := ycsb.Key(op.key + i)
		if key, _, ok := kvParse(e.Value); e.Key != want || !ok || key != want {
			return fmt.Errorf("scan from %d: entry %d is %q, want %q", op.key, i, e.Key, want)
		}
	}
	return nil
}

// kvCheckReads checks every read against the updates of its key: the
// version read must have been issued before the read returned, and no
// update issued after that version completed may have completed before
// the read was issued (the read would have missed a newer acked write).
func kvCheckReads(r *roundResult, ops []kvOp, outs []kvOutcome, preloaded time.Time) {
	updates := kvUpdatesByKey(ops)
	for i, op := range ops {
		o := outs[i]
		if o.scanErr != nil {
			r.problemf("scan %d: %v", i, o.scanErr)
		}
		if op.kind != kvRead || !o.ok {
			continue
		}
		if err := kvCheckValue(op.key, o.got, o.found, o.issued, o.done, ops, outs, updates[op.key], preloaded); err != nil {
			r.problemf("read %d: %v", i, err)
		}
	}
}

func kvUpdatesByKey(ops []kvOp) map[int][]int {
	m := make(map[int][]int)
	for i, op := range ops {
		if op.kind == kvUpdate {
			m[op.key] = append(m[op.key], i)
		}
	}
	return m
}

// kvCheckValue validates a value read for key between issued and done.
func kvCheckValue(key int, got []byte, found bool, issued, done time.Time, ops []kvOp, outs []kvOutcome, updates []int, preloaded time.Time) error {
	if !found {
		return fmt.Errorf("key %d not found", key)
	}
	k, version, ok := kvParse(got)
	if !ok || k != ycsb.Key(key) {
		return fmt.Errorf("key %d returned a value for %q", key, k)
	}
	wroteAt := preloaded // completion of the write observed
	if version > 0 {
		w := int(version - 1)
		if w >= len(ops) || ops[w].kind != kvUpdate || ops[w].key != key {
			return fmt.Errorf("key %d returned version %d, never written to it", key, version)
		}
		if outs[w].issued.IsZero() || outs[w].issued.After(done) {
			return fmt.Errorf("key %d returned version %d before it was written", key, version)
		}
		if !bytes.Equal(got, ops[w].value) {
			return fmt.Errorf("key %d version %d: bytes differ from the write", key, version)
		}
		wroteAt = outs[w].done
	}
	for _, u := range updates {
		if outs[u].ok && outs[u].issued.After(wroteAt) && outs[u].done.Before(issued) {
			return fmt.Errorf("key %d returned version %d, but version %d was acked before the read", key, version, u+1)
		}
	}
	return nil
}

// kvReadBackCheck reads sampled keys after the drain: each must hold the
// last acked update (or, with concurrent updates, one not superseded).
func kvReadBackCheck(r *roundResult, client *store.Client, ops []kvOp, outs []kvOutcome, preloaded time.Time) {
	updates := kvUpdatesByKey(ops)
	keys := make([]int, 0, kvReadBack)
	for i := 0; i < len(ops) && len(keys) < kvReadBack; i++ {
		if ops[i].kind == kvUpdate {
			keys = append(keys, ops[i].key)
		}
	}
	for _, k := range keys {
		issued := time.Now()
		got, found, err := client.Read(ycsb.Key(k))
		if err != nil {
			r.problemf("read-back of key %d: %v", k, err)
			continue
		}
		if err := kvCheckValue(k, got, found, issued, time.Now(), ops, outs, updates[k], preloaded); err != nil {
			r.problemf("read-back: %v", err)
		}
	}
}

// kvCheckReplicas waits for each partition's replicas to converge and
// requires byte-identical state-machine snapshots.
func kvCheckReplicas(r *roundResult, sc *cluster.StoreCluster) {
	for p := 1; p <= 2; p++ {
		deadline := time.Now().Add(5 * time.Second)
		for {
			a := sc.Server(p, 1).SM().Snapshot()
			same := true
			for rep := 2; rep <= 3; rep++ {
				if !bytes.Equal(a, sc.Server(p, rep).SM().Snapshot()) {
					same = false
				}
			}
			if same {
				break
			}
			if time.Now().After(deadline) {
				r.problemf("partition %d replicas differ after the drain", p)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

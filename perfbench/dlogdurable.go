package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/dlog"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

const dlogWhy = "dLog (paper Fig. 5): 1 log x 3 servers on fsync-per-batch FileWALs, 60% 1 KB append / 40% read; " +
	"loads durable storage, the only workload that does; one ring, so the merge never waits"

const (
	dlogRate       = 1000.0
	dlogValueBytes = 1024
	dlogWorkers    = 32
	dlogPreload    = 1000
	dlogPreloaders = 16
	dlogTraceEvery = 8
	dlogReadBack   = 200
	dlogLog        = dlog.LogID(1)
)

// dlogValue is a 1 KB entry that names the op that appended it.
func dlogValue(seed int64, op int) []byte {
	v := make([]byte, dlogValueBytes)
	binary.LittleEndian.PutUint64(v, uint64(seed))
	binary.LittleEndian.PutUint64(v[8:], uint64(op))
	for i := 16; i < len(v); i++ {
		v[i] = byte(op*31 + i)
	}
	return v
}

// dlogOp is one pre-generated op: an append of value, or a read of the
// preloaded entry with index readOf.
type dlogOp struct {
	read   bool
	readOf int
	value  []byte
}

const (
	dlogAppend = iota
	dlogRead
	dlogKinds
)

var dlogKindNames = [dlogKinds]string{"dlog.append", "dlog.read"}

func dlogGenerate(seed int64, n int) []dlogOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]dlogOp, n)
	for i := range ops {
		if rng.Float64() < 0.6 {
			ops[i] = dlogOp{value: dlogValue(seed, dlogPreload+i)}
		} else {
			ops[i] = dlogOp{read: true, readOf: rng.Intn(dlogPreload)}
		}
	}
	return ops
}

// walSet opens the acceptor logs of one deployment and closes them all.
type walSet struct {
	dir  string
	mu   sync.Mutex
	logs []*timedLog
}

func (w *walSet) open(ring transport.RingID, self transport.ProcessID) (storage.Log, error) {
	wal, err := storage.OpenWAL(filepath.Join(w.dir, fmt.Sprintf("ring%d-p%d", ring, self)),
		storage.WALOptions{Mode: storage.SyncEveryPut})
	if err != nil {
		return nil, err
	}
	lg := newTimedLog(wal)
	w.mu.Lock()
	w.logs = append(w.logs, lg)
	w.mu.Unlock()
	return lg, nil
}

func (w *walSet) all() []*timedLog {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*timedLog(nil), w.logs...)
}

func (w *walSet) fsyncs() float64 {
	var n float64
	for _, lg := range w.all() {
		n += float64(lg.Fsyncs())
	}
	return n
}

func (w *walSet) closeAll() error {
	var first error
	for _, lg := range w.all() {
		if err := lg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func dlogRound(c config, round int, traced bool) (*roundResult, error) {
	r := newRoundResult()
	n := int(dlogRate * c.window().Seconds())
	seed := c.seed*1000 + int64(round)
	ops := dlogGenerate(seed, n)
	preload := make([][]byte, dlogPreload)
	for i := range preload {
		preload[i] = dlogValue(seed, i)
	}

	if err := os.MkdirAll(c.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.tmpDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	wals := &walSet{dir: dir}

	setupStart := time.Now()
	d := cluster.NewDeployment(nil)
	defer d.Close()
	dc, err := d.StartDLog(cluster.DLogOptions{
		Logs:           1,
		Servers:        3,
		Ring:           kvRingOptions(),
		NewAcceptorLog: wals.open,
	})
	if err != nil {
		return nil, err
	}
	client, cl, err := dc.NewClient()
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	client.Timeout = 5 * time.Second
	positions, err := dlogLoad(client, preload)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(setupStart)

	reg0 := scrape(d.Obs)
	fsync0 := wals.fsyncs()
	for _, lg := range wals.all() {
		lg.record(true)
	}
	if traced {
		d.SetTraceSampling(dlogTraceEvery)
	}
	appended := make([]uint64, n)
	acked := make([]bool, n)
	var badReads sync.Map
	load := runOpenLoop(n, dlogRate, dlogWorkers, dlogKinds, func(i int) (int, error) {
		op := ops[i]
		if op.read {
			got, err := client.Read(dlogLog, positions[op.readOf])
			if err == nil && !bytes.Equal(got, preload[op.readOf]) {
				badReads.Store(i, positions[op.readOf])
			}
			return dlogRead, err
		}
		pos, err := client.Append(dlogLog, op.value)
		appended[i], acked[i] = pos, err == nil
		return dlogAppend, err
	})
	reg1 := scrape(d.Obs)
	for _, lg := range wals.all() {
		lg.record(false)
		commits, items := lg.take()
		r.samples["storage.commit"] = append(r.samples["storage.commit"], commits...)
		r.counts["storage.commits"] += float64(len(commits))
		r.counts["ring.wal_batches"] += float64(len(commits))
		r.counts["ring.wal_items"] += float64(items)
	}
	r.counts["storage.fsyncs"] += wals.fsyncs() - fsync0
	if traced {
		d.SetTraceSampling(0)
		collectHops(r, d.Trace)
	}
	r.heapMB = liveHeapMB()
	r.fill(load)
	for k, lat := range load.byKind {
		r.samples[dlogKindNames[k]] = lat
	}
	r.counts["ring.values"] += float64(load.completed)
	r.counts["ring.decided"] += reg1.perRing(reg0, "mrp.ring.decided_total")
	r.counts["ring.skipped"] += reg1.perRing(reg0, "mrp.ring.skipped_total")
	// The dLog cluster exposes no node handles, so the send batch size is
	// the registry's running mean (since boot), weighted as one batch.
	r.counts["ring.send_batches"] += 1
	r.counts["ring.send_items"] += reg1.mean("mrp.send.batch_items_mean")
	r.counts["smr.retransmits"] += reg1.sum(reg0, "mrp.client.retransmits_total")
	r.counts["smr.overload_backoffs"] += reg1.sum(reg0, "mrp.client.overload_backoffs_total")
	r.counts["smr.executed"] += reg1.sum(reg0, "mrp.replica.executed_total")
	r.counts["recovery.checkpoints"] += reg1.sum(reg0, "mrp.replica.checkpoints_total")
	runtimeCounts(r, reg0, reg1)

	badReads.Range(func(i, pos any) bool {
		r.problemf("read %v of position %v returned other bytes than were appended there", i, pos)
		return true
	})
	dlogCheckAppends(r, client, dc, ops, appended, acked)
	cl.Close()
	d.Close()
	if err := wals.closeAll(); err != nil {
		r.problemf("closing WALs: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		r.problemf("removing WAL dir: %v", err)
	} else if _, err := os.Stat(dir); !os.IsNotExist(err) {
		r.problemf("WAL dir %s still exists after teardown", dir)
	}
	checkTeardown(r)
	return r, nil
}

// dlogLoad appends the preload entries and returns their positions.
func dlogLoad(client *dlog.Client, values [][]byte) ([]uint64, error) {
	positions := make([]uint64, len(values))
	idx := make(chan int)
	errs := make(chan error, dlogPreloaders)
	var wg sync.WaitGroup
	for w := 0; w < dlogPreloaders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				pos, err := client.Append(dlogLog, values[i])
				if err != nil {
					errs <- fmt.Errorf("preload append %d: %w", i, err)
					return
				}
				positions[i] = pos
			}
		}()
	}
	var err error
	for i := 0; i < len(values) && err == nil; i++ {
		select {
		case idx <- i:
		case err = <-errs:
		}
	}
	close(idx)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	return positions, err
}

// dlogCheckAppends checks that acked appends got distinct positions, that
// sampled appended positions read back the appended bytes, and that every
// server's log holds the same number of entries.
func dlogCheckAppends(r *roundResult, client *dlog.Client, dc *cluster.DLogCluster, ops []dlogOp, appended []uint64, ok []bool) {
	seen := make(map[uint64]int)
	var acked, issued []int
	for i, op := range ops {
		if op.read {
			continue
		}
		issued = append(issued, i)
		if !ok[i] {
			continue
		}
		if j, dup := seen[appended[i]]; dup {
			r.problemf("appends %d and %d both acked at position %d", j, i, appended[i])
		}
		seen[appended[i]] = i
		acked = append(acked, i)
	}
	samples := min(len(acked), dlogReadBack)
	for k := 0; k < samples; k++ {
		i := acked[k*len(acked)/samples]
		got, err := client.Read(dlogLog, appended[i])
		if err != nil {
			r.problemf("read-back of position %d: %v", appended[i], err)
		} else if !bytes.Equal(got, ops[i].value) {
			r.problemf("position %d reads other bytes than append %d wrote", appended[i], i)
		}
	}
	lo, hi := dlogPreload+len(acked), dlogPreload+len(issued)
	deadline := time.Now().Add(5 * time.Second)
	for {
		l1, l2, l3 := dc.SM(1).LenOf(dlogLog), dc.SM(2).LenOf(dlogLog), dc.SM(3).LenOf(dlogLog)
		if l1 == l2 && l2 == l3 && l1 >= lo && l1 <= hi {
			return
		}
		if time.Now().After(deadline) {
			r.problemf("server log lengths %d/%d/%d, want equal and within [%d, %d]", l1, l2, l3, lo, hi)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

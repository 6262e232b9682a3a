package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/cluster"
	"amcast/internal/core"
	"amcast/internal/metrics"
	"amcast/internal/netem"
	"amcast/internal/store"
	"amcast/internal/ycsb"
)

// ExecReadRow is one read-mode throughput measurement against a live
// partition.
type ExecReadRow struct {
	Mode    string  `json:"mode"`
	OpsPerS float64 `json:"ops_per_s"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

// ExecResult aggregates the execution benchmark (cmd/bench -exec).
type ExecResult struct {
	DurationS float64       `json:"duration_s"`
	Records   int           `json:"records"`
	Reads     []ExecReadRow `json:"reads"`
	// ReadIndexVsMulticast is read-index local-read ops/s over multicast-
	// read ops/s in the geo deployment — the partition's replicas spread
	// across EC2 regions with the client beside one of them. That is the
	// deployment local reads exist for: the multicast round pays WAN ring
	// circulation, the local read stays in-region.
	ReadIndexVsMulticast float64 `json:"read_index_vs_multicast"`
	// ReadIndexVsMulticastColocated is the same ratio with every process
	// on one zero-latency host, where both paths are CPU-bound and the
	// gap is only the consensus round's extra per-op work.
	ReadIndexVsMulticastColocated float64 `json:"read_index_vs_multicast_colocated"`
	// ReadWaitP99Ms is the p99 time read-index reads spent parked waiting
	// for the serving replica's applied vector to cover the requirement.
	ReadWaitP99Ms float64 `json:"read_wait_p99_ms"`
}

// WriteJSON writes the result snapshot (for the CI trajectory).
func (r ExecResult) WriteJSON(path string) error {
	return writeResultJSON(path, r)
}

const (
	// execValueBytes keeps preloaded values small so the benchmark
	// measures the read path, not memcpy.
	execValueBytes = 100
	// execReadWorkers is the closed-loop client count of the read phase —
	// high enough to expose the architectural split: multicast reads
	// serialize through the partition's ring, read-index reads fan out
	// over replicas and bypass consensus entirely.
	execReadWorkers = 16
)

// ExecBench measures the read-index local-read path against the multicast
// read path on a live partition, co-located and on the emulated EC2
// geography.
func ExecBench(o Options) (ExecResult, error) {
	o = o.withDefaults()
	o.header("Exec", "read-index local reads vs multicast reads")
	res := ExecResult{
		DurationS: o.Duration.Seconds(),
		Records:   o.Records,
	}
	if err := execReadBench(o, &res); err != nil {
		return res, err
	}
	for _, r := range res.Reads {
		o.printf("reads/%-15s %10.0f ops/s  p50 %6.2f ms  p99 %6.2f ms\n", r.Mode, r.OpsPerS, r.P50Ms, r.P99Ms)
	}
	o.printf("read-index vs multicast: %.2fx geo, %.2fx colocated; read-wait p99 %.3f ms\n",
		res.ReadIndexVsMulticast, res.ReadIndexVsMulticastColocated, res.ReadWaitP99Ms)
	return res, nil
}

// execReadBench measures closed-loop read throughput via the multicast
// path and the read-index local path in two deployments: everything
// co-located on one zero-latency host (both paths CPU-bound), and the
// paper's geo setting — one partition's replicas spread across EC2
// regions with the client beside one of them, where the multicast round
// circulates the WAN ring while the local read stays in-region.
func execReadBench(o Options, res *ExecResult) error {
	colo, err := execReadScenario(o, res, false)
	if err != nil {
		return err
	}
	geo, err := execReadScenario(o, res, true)
	if err != nil {
		return err
	}
	res.Reads = append(append(res.Reads, colo...), geo...)
	if colo[0].OpsPerS > 0 {
		res.ReadIndexVsMulticastColocated = colo[1].OpsPerS / colo[0].OpsPerS
	}
	if geo[0].OpsPerS > 0 {
		res.ReadIndexVsMulticast = geo[1].OpsPerS / geo[0].OpsPerS
	}
	return nil
}

// execReadScenario boots one partition (co-located or geo-distributed)
// and measures the multicast then the read-index path against it,
// returning the two rows in that order.
func execReadScenario(o Options, res *ExecResult, geo bool) ([]ExecReadRow, error) {
	var topo *netem.Topology
	site := netem.SiteLocal
	suffix := ""
	opts := cluster.StoreOptions{
		Partitions: 1, Replicas: 3,
		Ring: core.RingOptions{
			RetryInterval: 30 * time.Millisecond,
			SkipEnabled:   true,
			Delta:         5 * time.Millisecond,
			Lambda:        2000,
		},
	}
	if geo {
		topo = netem.EC2Topology()
		topo.SetScale(o.Scale)
		opts.SiteOfReplica = func(_, r int) netem.Site {
			return netem.EC2Regions[(r-1)%len(netem.EC2Regions)]
		}
		opts.Ring = core.RingOptions{
			RetryInterval: 200 * time.Millisecond,
			SkipEnabled:   true,
			Delta:         20 * time.Millisecond,
			Lambda:        2000,
		}
		site = netem.EC2Regions[0] // beside replica 1
		suffix = "/geo"
	}
	d := cluster.NewDeployment(topo)
	defer d.Close()
	c, err := d.StartStore(opts)
	if err != nil {
		return nil, err
	}
	sc, cl, err := c.NewClient(site)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	records := o.Records
	if records > 2000 {
		records = 2000 // the preload runs through consensus; keep it quick
	}
	if geo && records > 512 {
		records = 512 // every geo preload batch pays a WAN round
	}
	value := make([]byte, execValueBytes)
	const preloadBatch = 256
	for base := 0; base < records; base += preloadBatch {
		n := preloadBatch
		if base+n > records {
			n = records - base
		}
		batch := make([]store.Op, n)
		for i := range batch {
			batch[i] = store.Op{Kind: store.OpInsert, Key: ycsb.Key(base + i), Value: value}
		}
		if _, err := sc.Batch(1, batch); err != nil {
			return nil, fmt.Errorf("bench: exec preload: %w", err)
		}
	}

	run := func(mode string, read func(key string) error) (ExecReadRow, error) {
		row := ExecReadRow{Mode: mode}
		lat := metrics.NewHistogram()
		var ops atomic.Uint64
		stop := make(chan struct{})
		errs := make(chan error, execReadWorkers)
		var wg sync.WaitGroup
		for w := 0; w < execReadWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := uint32(w)*2654435761 + 1
				for {
					select {
					case <-stop:
						return
					default:
					}
					rng = rng*1664525 + 1013904223
					key := ycsb.Key(int(rng) % records)
					start := time.Now()
					if err := read(key); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
					lat.Record(time.Since(start))
					ops.Add(1)
				}
			}(w)
		}
		start := time.Now()
		time.Sleep(o.Duration)
		elapsed := time.Since(start).Seconds()
		total := ops.Load()
		close(stop)
		wg.Wait()
		select {
		case err := <-errs:
			return row, fmt.Errorf("bench: exec reads %s: %w", mode, err)
		default:
		}
		if total == 0 {
			return row, fmt.Errorf("bench: exec reads %s executed nothing", mode)
		}
		row.OpsPerS = float64(total) / elapsed
		row.P50Ms = float64(lat.Quantile(0.5)) / float64(time.Millisecond)
		row.P99Ms = float64(lat.Quantile(0.99)) / float64(time.Millisecond)
		return row, nil
	}

	localRead := func(key string) error {
		_, _, err := sc.ReadLocal(key)
		return err
	}
	if geo {
		// A geo client reads from its nearest replica, not round-robin.
		target := cluster.ReplicaID(1, 1)
		localRead = func(key string) error {
			_, _, err := sc.ReadLocalAt(target, key)
			return err
		}
	}
	multicast, err := run("multicast"+suffix, func(key string) error {
		_, _, err := sc.Read(key)
		return err
	})
	if err != nil {
		return nil, err
	}
	local, err := run("read-index"+suffix, localRead)
	if err != nil {
		return nil, err
	}
	for r := 1; r <= 3; r++ {
		if h := c.Server(1, r).Replica().ReadWait(); h.Count() > 0 {
			if p := float64(h.Quantile(0.99)) / float64(time.Millisecond); p > res.ReadWaitP99Ms {
				res.ReadWaitP99Ms = p
			}
		}
	}
	return []ExecReadRow{multicast, local}, nil
}

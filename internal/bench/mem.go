package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/core"
	"amcast/internal/obs"
	"amcast/internal/transport"
)

// MemRow is one workload's memory profile: how many heap allocations and
// bytes each delivered message cost, and what the collector did about it.
type MemRow struct {
	Workload string  `json:"workload"`
	MsgsPerS float64 `json:"msgs_per_s"`
	// AllocsPerMsg is Δruntime.MemStats.Mallocs over the measurement
	// window divided by messages delivered in it — process-wide, so it
	// charges the sender, decoder and delivery path together.
	AllocsPerMsg float64 `json:"allocs_per_msg"`
	BytesPerMsg  float64 `json:"bytes_per_msg"`
	// GC pauses during the window (stop-the-world phases only).
	GCCycles     uint32  `json:"gc_cycles"`
	GCPauseP50Us float64 `json:"gc_pause_p50_us"`
	GCPauseP99Us float64 `json:"gc_pause_p99_us"`
	HeapInuseMB  float64 `json:"heap_inuse_mb"`
	Delivered    uint64  `json:"delivered"`
}

// MemResult aggregates the memory benchmark: a pooled/unpooled A/B over
// the TCP read path (the only path with a true pre-pool toggle), plus
// pool-engaged rows for the fig3-style delivery pipeline and the EC2 WAN
// topology, and a snapshot of the telemetry registry that watches it all.
type MemResult struct {
	DurationS float64 `json:"duration_s"`
	// TCP loopback, raw ring-kind frames: the transport's pooled read
	// path vs the pre-pool per-frame-allocation baseline
	// (memUnpooledReceiver).
	TCPPooled   MemRow `json:"tcp_pooled"`
	TCPUnpooled MemRow `json:"tcp_unpooled"`
	// AllocReductionPct is the headline: percent of per-message heap
	// allocations the pooled read path eliminates.
	AllocReductionPct float64 `json:"alloc_reduction_pct"`
	// GCPauseP99DeltaUs is unpooled minus pooled p99 pause (positive =
	// the pool reduced tail pauses).
	GCPauseP99DeltaUs float64 `json:"gc_pause_p99_delta_us"`
	// ThroughputRatio is pooled over unpooled msgs/s on the TCP path
	// (the pool must not cost throughput).
	ThroughputRatio float64 `json:"throughput_ratio"`
	// Fig3 runs the same fig3-style batched workload as the -delivery
	// benchmark with the pool engaged on the ring hot path (WAL records,
	// packed batches, accepted-map payloads); its msgs_per_s is directly
	// comparable to BENCH_delivery.json's batched row.
	Fig3 MemRow `json:"fig3"`
	// WAN profiles the same stack across the emulated EC2 4-region
	// topology, where WAN RTTs pace the pipeline.
	WAN MemRow `json:"wan"`
	// Pool is the buffer pool's cumulative view at the end of the run.
	Pool bufpool.Stats `json:"pool"`
	// Registry snapshots the GC/heap/pool telemetry exactly as a scraper
	// would see it on /metrics.
	Registry []obs.Sample `json:"registry"`
}

// WriteJSON writes the result snapshot (for the CI trajectory).
func (r MemResult) WriteJSON(path string) error {
	return writeResultJSON(path, r)
}

// memValueSize matches the delivery benchmark's command payload.
const memValueSize = 160

// MemBench measures GC pressure on the delivery path. The headline is
// the TCP read-side A/B: the pooled loop (many frames per syscall into a
// refcounted block, zero per-frame allocations) against the pre-pool
// baseline (one heap buffer per frame), same frames, same machine, same
// process. The fig3-style and WAN rows profile the full pipeline with
// the pool engaged.
func MemBench(o Options) (MemResult, error) {
	o = o.withDefaults()
	o.header("Memory", "allocs/msg and GC pauses: pooled vs pre-pool read path, fig3-style and WAN pipelines")
	o.printf("%-14s %14s %12s %12s %12s %12s\n", "workload", "msgs/s", "allocs/msg", "B/msg", "gc p99 us", "heap MB")

	res := MemResult{DurationS: o.Duration.Seconds()}

	row, err := memTCPRun(o, true)
	if err != nil {
		return res, err
	}
	res.TCPPooled = row
	o.printRow(row)

	if row, err = memTCPRun(o, false); err != nil {
		return res, err
	}
	res.TCPUnpooled = row
	o.printRow(row)

	if res.TCPUnpooled.AllocsPerMsg > 0 {
		res.AllocReductionPct = 100 * (1 - res.TCPPooled.AllocsPerMsg/res.TCPUnpooled.AllocsPerMsg)
	}
	res.GCPauseP99DeltaUs = res.TCPUnpooled.GCPauseP99Us - res.TCPPooled.GCPauseP99Us
	if res.TCPUnpooled.MsgsPerS > 0 {
		res.ThroughputRatio = res.TCPPooled.MsgsPerS / res.TCPUnpooled.MsgsPerS
	}
	o.printf("alloc reduction: %.1f%%   gc p99 delta: %.0f us   throughput: %.2fx\n",
		res.AllocReductionPct, res.GCPauseP99DeltaUs, res.ThroughputRatio)

	if res.Fig3, err = memPipelineRun(o, "fig3-batched", func() (DeliveryRow, error) {
		return deliveryRun(o, DeliveryBatched)
	}); err != nil {
		return res, err
	}
	o.printRow(res.Fig3)

	if res.WAN, err = memWANRun(o); err != nil {
		return res, err
	}
	o.printRow(res.WAN)

	// Telemetry snapshot: the same series a live deployment would expose.
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	obs.RegisterBufPool(reg)
	res.Pool = bufpool.Snapshot()
	res.Registry = reg.Samples()
	return res, nil
}

func (o Options) printRow(r MemRow) {
	o.printf("%-14s %14.0f %12.2f %12.0f %12.1f %12.1f\n",
		r.Workload, r.MsgsPerS, r.AllocsPerMsg, r.BytesPerMsg, r.GCPauseP99Us, r.HeapInuseMB)
}

// memTCPRun floods ring-kind frames across a real TCP loopback
// connection and profiles the receiver's read path. The sender coalesces
// bursts with SendBatch (its per-burst encode cost is identical in both
// modes). The pooled receiver is a transport.TCPNode drained through Recv
// honoring the pooled-ownership contract; the unpooled one is
// memUnpooledReceiver.
func memTCPRun(o Options, pooled bool) (MemRow, error) {
	name := "tcp-pooled"
	if !pooled {
		name = "tcp-unpooled"
	}
	startRecv := memPooledReceiver
	if !pooled {
		startRecv = memUnpooledReceiver
	}
	var delivered atomic.Uint64
	recvAddr, closeRecv, err := startRecv(&delivered)
	if err != nil {
		return MemRow{}, err
	}
	send, err := transport.ListenTCP(1, "127.0.0.1:0")
	if err != nil {
		closeRecv()
		return MemRow{}, err
	}
	send.SetPeer(2, recvAddr)

	// Sender: bursts of Phase2-kind messages with fixed payloads, the
	// shape a follower's read loop sees at steady state. The burst slice
	// and payload are reused so the sender's own allocation cost stays
	// flat across modes. Sends are window-limited against the consumer —
	// the shape every real ring gives this path (core.RingOptions.Window)
	// — so the receive queue stays bounded and the measurement reflects
	// steady state rather than unbounded overload backlog growth.
	const burst = 64
	const window = 1024
	payload := make([]byte, memValueSize)
	msgs := make([]transport.Message, burst)
	for i := range msgs {
		msgs[i] = transport.Message{
			Kind:  transport.KindPhase2,
			To:    2,
			Ring:  1,
			Value: transport.Value{ID: uint64(i + 1), Data: payload},
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for seq-delivered.Load() > window {
				select {
				case <-stop:
					return
				default:
					time.Sleep(20 * time.Microsecond)
				}
			}
			for i := range msgs {
				seq++
				msgs[i].Seq = seq
				msgs[i].Instance = seq
			}
			if err := send.SendBatch(msgs); err != nil {
				return
			}
		}
	}()

	// Warm up (pool free lists fill, TCP windows open), then measure.
	time.Sleep(200 * time.Millisecond)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	startN := delivered.Load()
	start := time.Now()
	time.Sleep(o.Duration)
	elapsed := time.Since(start).Seconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := delivered.Load() - startN

	close(stop)
	wg.Wait()
	_ = send.Close()
	closeRecv()

	if n == 0 {
		return MemRow{}, fmt.Errorf("bench: mem %s delivered nothing", name)
	}
	return memRowFrom(name, n, elapsed, &before, &after), nil
}

// memPooledReceiver starts a TCPNode receiver and a consumer that drains
// its Recv, counting each message into delivered. The returned close
// function stops both.
func memPooledReceiver(delivered *atomic.Uint64) (string, func(), error) {
	recv, err := transport.ListenTCP(2, "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range recv.Recv() {
			// The consumer side of the ownership contract: drop the
			// block/payload refs once the message is consumed.
			m.ReleaseRefs()
			delivered.Add(1)
		}
	}()
	return recv.Addr(), func() { _ = recv.Close(); <-done }, nil
}

// memUnpooledReceiver is the pre-pool read path, the baseline of the TCP
// A/B: on its own listener, one length-prefix read, one fresh heap buffer
// and one decode per frame. It counts each frame where it decodes it, so
// unlike the pooled row it pays no mailbox push. The returned close
// function stops the listener and waits for the reader, which returns
// once the sender closes its connection.
func memUnpooledReceiver(delivered *atomic.Uint64) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var hdr [4]byte
		// The dialer opens with its process id; then length-prefixed frames.
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		for {
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			size := binary.LittleEndian.Uint32(hdr[:])
			if size == 0 || size > memMaxFrame {
				return
			}
			frame := make([]byte, size)
			if _, err := io.ReadFull(c, frame); err != nil {
				return
			}
			if _, err := transport.DecodeMessage(frame); err != nil {
				return
			}
			delivered.Add(1)
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); <-done }, nil
}

// memMaxFrame bounds one frame on the unpooled reader, as the transport
// bounds its own.
const memMaxFrame = 64 << 20

// memPipelineRun profiles one full-pipeline workload run: MemStats are
// snapshotted around the run, so setup and teardown allocations are
// charged to it — a deliberate overestimate that keeps the number honest.
// No GC is forced first: the malloc counters are monotonic regardless,
// and resetting the collector to a small live set would hand the run
// more GC cycles than the standalone delivery benchmark it is compared
// against (BENCH_delivery.json's batched row) pays.
func memPipelineRun(o Options, name string, run func() (DeliveryRow, error)) (MemRow, error) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	row, err := run()
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return MemRow{}, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r := memRowFrom(name, row.Executed, elapsed, &before, &after)
	r.MsgsPerS = row.MsgsPerS // the run's own measurement window, not ours
	return r, nil
}

// memWANRun profiles the delivery pipeline across the emulated EC2
// 4-region topology: WAN RTTs pace proposals, so this is the GC profile
// of a geo-replicated steady state rather than a saturated loopback.
func memWANRun(o Options) (MemRow, error) {
	return memPipelineRun(o, "wan-ec2", func() (DeliveryRow, error) {
		ringOpts := core.RingOptions{
			RetryInterval: 100 * time.Millisecond,
			Window:        256,
			DeliverBuffer: 4096,
		}
		d, err := newFlowDeployment(o, []transport.RingID{1}, ringOpts, func(int) core.BatchHandler {
			return func([]core.Delivery) {}
		})
		if err != nil {
			return DeliveryRow{}, err
		}
		defer d.close()

		stop := make(chan struct{})
		var wg sync.WaitGroup
		flowPump(d.nodes[0], 1, 4, stop, &wg)
		time.Sleep(200 * time.Millisecond)
		start := d.nodes[1].DeliveredCount()
		t0 := time.Now()
		time.Sleep(o.Duration)
		elapsed := time.Since(t0).Seconds()
		n := d.nodes[1].DeliveredCount() - start
		close(stop)
		wg.Wait()
		if n == 0 {
			return DeliveryRow{}, fmt.Errorf("bench: mem wan delivered nothing")
		}
		return DeliveryRow{Executed: n, MsgsPerS: float64(n) / elapsed}, nil
	})
}

// memRowFrom folds two MemStats snapshots into a row.
func memRowFrom(name string, n uint64, elapsed float64, before, after *runtime.MemStats) MemRow {
	pauses := pausesBetween(before, after)
	return MemRow{
		Workload:     name,
		MsgsPerS:     float64(n) / elapsed,
		AllocsPerMsg: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerMsg:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		GCCycles:     after.NumGC - before.NumGC,
		GCPauseP50Us: quantileUs(pauses, 0.50),
		GCPauseP99Us: quantileUs(pauses, 0.99),
		HeapInuseMB:  float64(after.HeapInuse) / (1 << 20),
		Delivered:    n,
	}
}

// pausesBetween extracts the GC pauses (ns) that happened between two
// snapshots from the PauseNs circular buffer (which keeps the last 256).
func pausesBetween(before, after *runtime.MemStats) []uint64 {
	n := int(after.NumGC - before.NumGC)
	if n > len(after.PauseNs) {
		n = len(after.PauseNs)
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, after.PauseNs[(int(after.NumGC)-1-i+len(after.PauseNs))%len(after.PauseNs)])
	}
	return out
}

func quantileUs(pauses []uint64, q float64) float64 {
	if len(pauses) == 0 {
		return 0
	}
	s := append([]uint64(nil), pauses...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1))]) / 1e3
}

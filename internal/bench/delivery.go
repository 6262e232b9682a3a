package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"amcast/internal/coord"
	"amcast/internal/core"
	"amcast/internal/netem"
	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// DeliveryMode names one configuration of the delivery-pipeline benchmark.
type DeliveryMode string

// Delivery benchmark modes.
const (
	// DeliveryPerMessage sets BatchOptions.MaxMessages = 1: the tightest
	// batching the refactored pipeline offers. Batch bounds hold at
	// consensus-instance granularity, so under this workload's 32 KB
	// message packing a "batch" is still one packed instance (~150
	// messages); the mode measures per-instance flushing, not the
	// seed's true per-message callbacks. The real before/after number
	// is SpeedupVsSeed, measured against a driver built at the seed
	// commit.
	DeliveryPerMessage DeliveryMode = "per-message"
	// DeliveryBatched uses the default batch bounds: the merge hands
	// batches of consecutive deliveries to the replica, which executes
	// them inline in delivery order, one Execute call per command.
	DeliveryBatched DeliveryMode = "batched"
)

// DeliveryRow is one mode's measurement.
type DeliveryRow struct {
	Mode DeliveryMode `json:"mode"`
	// MsgsPerS is delivered messages per wall-clock second.
	MsgsPerS float64 `json:"msgs_per_s"`
	// MsgsPerCPU is delivered messages per CPU second (user+system,
	// process-wide): the pipeline's efficiency, robust to scheduler
	// noise on small machines.
	MsgsPerCPU float64 `json:"msgs_per_cpu_s"`
	Mbps       float64 `json:"mbps"`
	Executed   uint64  `json:"executed"`
	Delivered  uint64  `json:"delivered"`
}

// Delivery benchmark workload shape.
const (
	deliveryThreads   = 10
	deliveryValueSize = 160
	deliveryWindow    = 1024 // in-flight commands per proposer thread
	learnerReplicas   = 8
)

// SeedBaseline records a measurement of the pre-refactor (seed) delivery
// pipeline on the same workload, taken with a driver built at the seed
// commit on the same host. The in-tree per-message mode is NOT that
// baseline: it is a thin adapter over the batched pipeline and shares its
// optimizations (ring-buffer dedup windows, pooled decision buffers,
// in-place batch decoding), so comparing against it understates the
// refactor.
type SeedBaseline struct {
	Commit   string  `json:"commit"`
	Pipeline string  `json:"pipeline"`
	MsgsPerS float64 `json:"msgs_per_s"`
}

// DeliveryResult aggregates the before/after comparison.
type DeliveryResult struct {
	Workload   string      `json:"workload"`
	DurationS  float64     `json:"duration_s"`
	PerMessage DeliveryRow `json:"per_message"`
	Batched    DeliveryRow `json:"batched"`
	// Speedup is batched vs the in-tree MaxMessages=1 mode. Both share
	// this tree's pipeline optimizations and both batch at instance
	// granularity under packing, so this is a lower bound on batching's
	// effect; SpeedupVsSeed is the before/after headline.
	Speedup float64 `json:"speedup"`
	// SeedBaseline/SpeedupVsSeed compare against the recorded
	// pre-refactor measurement when one is supplied (cmd/bench
	// -seed-baseline).
	SeedBaseline  *SeedBaseline `json:"seed_baseline,omitempty"`
	SpeedupVsSeed float64       `json:"speedup_vs_seed,omitempty"`
}

// DeliveryBench measures the ring → core → SMR delivery pipeline on the
// Figure 3-style workload — a single multicast group with three replica
// processes — driven open-loop so the delivery side, not client
// round-trips, is the bottleneck. Proposers flood small MRP-Store commands
// with the paper's 32 KB message packing; replicas execute them through
// the full smr.Replica stack (dedup, state machine, checkpoint
// accounting). It runs the workload twice, per-message and batched, and
// reports delivered-messages/sec for each.
func DeliveryBench(o Options) (DeliveryResult, error) {
	o = o.withDefaults()
	o.header("Delivery pipeline", "per-message vs batch-at-a-time execution (1 ring, 8 learner replicas, open-loop proposers)")
	o.printf("%-14s %14s %14s %10s\n", "mode", "msgs/s", "msgs/cpu-s", "Mbit/s")

	res := DeliveryResult{
		Workload:  "fig3-style single ring, 8 learner replicas, 10 open-loop proposers, 200 B commands, 32 KB packing; delivered msgs/s aggregated over replicas",
		DurationS: o.Duration.Seconds(),
	}
	for _, mode := range []DeliveryMode{DeliveryPerMessage, DeliveryBatched} {
		row, err := deliveryRun(o, mode)
		if err != nil {
			return res, err
		}
		switch mode {
		case DeliveryPerMessage:
			res.PerMessage = row
		case DeliveryBatched:
			res.Batched = row
		}
		o.printf("%-14s %14.0f %14.0f %10.2f\n", mode, row.MsgsPerS, row.MsgsPerCPU, row.Mbps)
	}
	if res.PerMessage.MsgsPerS > 0 {
		res.Speedup = res.Batched.MsgsPerS / res.PerMessage.MsgsPerS
	}
	o.printf("speedup: %.2fx\n", res.Speedup)
	return res, nil
}

// WriteJSON writes the result snapshot (for the CI trajectory).
func (r DeliveryResult) WriteJSON(path string) error {
	return writeResultJSON(path, r)
}

// deliveryRun measures one mode. The network is the zero-delay in-process
// fabric: with link emulation the proposal side throttles both modes
// identically and the delivery pipeline never saturates, which is the
// stage this benchmark isolates.
func deliveryRun(o Options, mode DeliveryMode) (DeliveryRow, error) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	// Two acceptors: one vote hop per instance keeps the coordinator's
	// window open long enough for 32 KB message packing to engage (a
	// zero-latency lone acceptor decides before proposals can queue),
	// while the per-instance consensus cost — identical in both modes —
	// stays small against the ring → core → SMR delivery path this
	// benchmark compares. The remaining members are learner-only
	// replicas: atomic multicast fans every message out to all
	// subscribers, so the delivery pipeline is the system's dominant
	// cost, as in a production deployment with many subscribers.
	members := []coord.Member{
		{ID: 1, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner},
		{ID: 2, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner},
	}
	for i := 3; i <= learnerReplicas; i++ {
		members = append(members, coord.Member{
			ID:    transport.ProcessID(i),
			Roles: coord.RoleProposer | coord.RoleLearner,
		})
	}
	if err := svc.CreateRing(1, members); err != nil {
		return DeliveryRow{}, err
	}

	// Replicas running the full SMR stack over MRP-Store state
	// machines. No response transport: the workload is open-loop, so the
	// measured path is exactly ring decide → merge → replica execute.
	replicas := make([]*smr.Replica, 0, learnerReplicas)
	nodes := make([]*core.Node, 0, learnerReplicas)
	for i := 0; i < learnerReplicas; i++ {
		router := transport.NewRouter(net.Attach(transport.ProcessID(i+1), netem.SiteLocal))
		cfg := core.Config{
			Self:   transport.ProcessID(i + 1),
			Router: router,
			Coord:  svc,
			Ring: core.RingOptions{
				RetryInterval: 100 * time.Millisecond,
				Window:        128,
				BatchBytes:    32 << 10,
			},
		}
		if mode == DeliveryPerMessage {
			cfg.Batch = core.BatchOptions{MaxMessages: 1}
		}
		node, err := core.New(cfg)
		if err != nil {
			return DeliveryRow{}, err
		}
		nodes = append(nodes, node)
		rep, err := smr.NewReplica(smr.ReplicaConfig{
			Self:      transport.ProcessID(i + 1),
			Partition: 1,
			Groups:    []transport.RingID{1},
			Node:      node,
			Service:   router.Service(),
			SM:        store.NewSM(),
		}, recovery.Checkpoint{})
		if err != nil {
			node.Stop()
			return DeliveryRow{}, err
		}
		replicas = append(replicas, rep)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	// Proposer deliveryThreads flooding single-key inserts, self-clocked against
	// the execution counter: each thread keeps a large window of commands
	// in flight — enough to saturate the delivery pipeline, small enough
	// that the coordinator never sheds (shed commands would waste
	// producer CPU and punch sequence gaps into the dedup windows).

	client, err := core.New(core.Config{
		Self:   transport.ProcessID(100),
		Router: transport.NewRouter(net.Attach(100, netem.SiteLocal)),
		Coord:  svc,
	})
	if err != nil {
		return DeliveryRow{}, err
	}
	defer client.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for t := 0; t < deliveryThreads; t++ {
		wg.Add(1)
		go func(clientID transport.ProcessID) {
			defer wg.Done()
			payload := make([]byte, deliveryValueSize)
			binary.LittleEndian.PutUint32(payload[:4], uint32(clientID))
			op := store.Op{Kind: store.OpInsert, Key: fmt.Sprintf("k%d", clientID), Value: payload}.Encode()
			seq := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq++
				if seq%64 == 0 {
					// Self-clocking: stay ~deliveryWindow commands
					// ahead of this thread's share of executions.
					for seq > replicas[0].ExecutedCount()/deliveryThreads+deliveryWindow {
						select {
						case <-stop:
							return
						case <-time.After(500 * time.Microsecond):
						}
					}
				}
				// The in-process transport passes slices by reference,
				// so each command needs its own encoding.
				cmd := smr.Command{Client: clientID, Seq: seq, Op: op}
				if err := client.Multicast(1, cmd.Encode()); err != nil {
					return
				}
			}
		}(transport.ProcessID(200 + t))
	}

	// Warm up, then measure delivered (executed) commands aggregated
	// over all replicas — atomic multicast's delivery throughput —
	// across the window.
	aggregate := func() (exec, deliv uint64) {
		for i, r := range replicas {
			exec += r.ExecutedCount()
			deliv += nodes[i].DeliveredCount()
		}
		return
	}
	time.Sleep(300 * time.Millisecond)
	startExec, startDeliv := aggregate()
	cpuBefore := cpuTime()
	start := time.Now()
	time.Sleep(o.Duration)
	elapsed := time.Since(start).Seconds()
	cpu := (cpuTime() - cpuBefore).Seconds()
	endExec, endDeliv := aggregate()
	execN := endExec - startExec
	delivN := endDeliv - startDeliv
	close(stop)
	wg.Wait()

	row := DeliveryRow{
		Mode:       mode,
		MsgsPerS:   float64(execN) / elapsed,
		MsgsPerCPU: float64(execN) / cpu,
		Mbps:       float64(execN) * deliveryValueSize * 8 / elapsed / 1e6,
		Executed:   execN,
		Delivered:  delivN,
	}
	if execN == 0 {
		return row, fmt.Errorf("bench: delivery %s executed nothing", mode)
	}
	return row, nil
}

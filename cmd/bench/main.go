// Command bench regenerates the paper's evaluation figures (Section 8)
// against this repository's implementation, plus the repository's own
// regression benchmarks.
//
// Usage:
//
//	bench -fig 3            # one figure (3..8)
//	bench -fig all          # every figure
//	bench -ablation all     # design-choice ablations (merge-M, skips,
//	                        # batching, global-ring)
//	bench -delivery         # delivery pipeline: per-message vs batched
//	bench -io               # acceptor I/O: per-put fsync vs group commit
//	bench -ckpt             # checkpoints: sync-blocking vs COW-async
//	bench -reconfig         # online reconfiguration: live split under load
//	bench -flow             # flow control: static vs adaptive λ,
//	                        # slow-replica isolation (EC2 WAN)
//	bench -exec             # reads: read-index local reads vs
//	                        # multicast reads
//	bench -chaos            # chaos campaigns: coordinator kills, rolling
//	                        # kills during a live split, WAN partition
//	                        # heal, disk-full acceptor
//	bench -obs              # tracing overhead: per-value tracing off vs
//	                        # 1% vs 100% sampling
//	bench -duration 5s -scale 0.5 -clients 100 -records 5000
//
// Each regression benchmark accepts -json FILE to snapshot its result
// (BENCH_delivery.json, BENCH_io.json, BENCH_ckpt.json,
// BENCH_reconfig.json, BENCH_flow.json, BENCH_exec.json,
// BENCH_chaos.json, BENCH_obs.json in CI).
//
// Scale < 1 shrinks emulated device and WAN latencies proportionally so
// runs finish quickly while preserving the ratios between configurations;
// scale=1 uses realistic 2014-era hardware numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"amcast/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "", "figure to regenerate: 3,4,5,6,7,8 or 'all'")
	ablation := flag.String("ablation", "", "ablation to run: merge-m, skip, batch, global-ring or 'all'")
	delivery := flag.Bool("delivery", false, "run the delivery-pipeline benchmark (per-message vs batched)")
	ioBench := flag.Bool("io", false, "run the acceptor I/O benchmark (per-put fsync vs group commit)")
	ckptBench := flag.Bool("ckpt", false, "run the checkpoint-pipeline benchmark (sync-seed vs COW-async)")
	reconfigBench := flag.Bool("reconfig", false, "run the online-reconfiguration benchmark (live partition split under load)")
	flowBench := flag.Bool("flow", false, "run the flow-control benchmark (static vs adaptive rate leveling, slow-replica isolation)")
	execBench := flag.Bool("exec", false, "run the read benchmark (read-index local reads vs multicast reads, colocated and geo)")
	chaosBench := flag.Bool("chaos", false, "run the chaos campaigns (failure detection, failover and recovery under injected faults)")
	obsBench := flag.Bool("obs", false, "run the tracing-overhead benchmark (per-value tracing off vs 1% vs 100% sampling)")
	memBench := flag.Bool("mem", false, "run the memory benchmark (allocs/msg and GC pauses: pooled vs pre-pool read path, fig3-style and WAN pipelines)")
	benchJSON := flag.String("json", "", "write the -delivery, -io, -ckpt, -reconfig, -flow, -exec, -chaos or -obs benchmark result to this JSON file")
	seedBaseline := flag.Float64("seed-baseline", 0, "recorded seed (pre-refactor) delivered msgs/s for the same workload; adds speedup_vs_seed to the JSON")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per configuration")
	scale := flag.Float64("scale", 0.25, "emulated latency scale (1.0 = realistic hardware)")
	clients := flag.Int("clients", 100, "maximum client threads")
	records := flag.Int("records", 2000, "YCSB database records")
	flag.Parse()

	o := bench.Options{
		Out:      os.Stdout,
		Duration: *duration,
		Scale:    *scale,
		Clients:  *clients,
		Records:  *records,
	}
	if *fig == "" && *ablation == "" && !*delivery && !*ioBench && !*ckptBench && !*reconfigBench && !*flowBench && !*execBench && !*chaosBench && !*obsBench && !*memBench {
		flag.Usage()
		return fmt.Errorf("pass -fig, -ablation, -delivery, -io, -ckpt, -reconfig, -flow, -exec, -chaos, -obs or -mem")
	}
	selected := 0
	for _, b := range []bool{*delivery, *ioBench, *ckptBench, *reconfigBench, *flowBench, *execBench, *chaosBench, *obsBench, *memBench} {
		if b {
			selected++
		}
	}
	if selected > 1 && *benchJSON != "" {
		return fmt.Errorf("-json targets one benchmark; pass exactly one of -delivery, -io, -ckpt, -reconfig, -flow, -exec, -chaos, -obs, -mem")
	}
	if selected == 0 && *benchJSON != "" {
		return fmt.Errorf("-json applies to the -delivery, -io, -ckpt, -reconfig, -flow, -exec, -chaos, -obs and -mem benchmarks only")
	}
	if !*delivery && *seedBaseline > 0 {
		return fmt.Errorf("-seed-baseline applies to the -delivery benchmark only")
	}

	if *delivery {
		res, err := bench.DeliveryBench(o)
		if err != nil {
			return err
		}
		if *seedBaseline > 0 {
			res.SeedBaseline = &bench.SeedBaseline{
				Commit:   "9613f2f (seed)",
				Pipeline: "per-message callbacks",
				MsgsPerS: *seedBaseline,
			}
			res.SpeedupVsSeed = res.Batched.MsgsPerS / *seedBaseline
			fmt.Printf("speedup vs seed baseline: %.2fx\n", res.SpeedupVsSeed)
		}
		if *benchJSON != "" {
			if err := res.WriteJSON(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
	}

	if *ioBench {
		res, err := bench.IOBench(o)
		if err != nil {
			return err
		}
		if *benchJSON != "" {
			if err := res.WriteJSON(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
	}

	if *ckptBench {
		res, err := bench.CkptBench(o)
		if err != nil {
			return err
		}
		if *benchJSON != "" {
			if err := res.WriteJSON(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
	}

	if *reconfigBench {
		res, err := bench.ReconfigBench(o)
		if err != nil {
			return err
		}
		if *benchJSON != "" {
			if err := res.WriteJSON(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
	}

	if *flowBench {
		res, err := bench.FlowBench(o)
		if err != nil {
			return err
		}
		if *benchJSON != "" {
			if err := res.WriteJSON(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
	}

	if *execBench {
		res, err := bench.ExecBench(o)
		if err != nil {
			return err
		}
		if *benchJSON != "" {
			if err := res.WriteJSON(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
	}

	if *chaosBench {
		res, err := bench.ChaosBench(o)
		if *benchJSON != "" {
			// Snapshot the reports even when a campaign failed its bar.
			if werr := res.WriteJSON(*benchJSON); werr != nil {
				return werr
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
		if err != nil {
			return err
		}
	}

	if *obsBench {
		res, err := bench.ObsBench(o)
		if err != nil {
			return err
		}
		if *benchJSON != "" {
			if err := res.WriteJSON(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
	}

	if *memBench {
		res, err := bench.MemBench(o)
		if err != nil {
			return err
		}
		if *benchJSON != "" {
			if err := res.WriteJSON(*benchJSON); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchJSON)
		}
	}

	runFig := func(name string) error {
		switch name {
		case "3":
			_, err := bench.Fig3(o)
			return err
		case "4":
			_, err := bench.Fig4(o)
			return err
		case "5":
			_, err := bench.Fig5(o)
			return err
		case "6":
			_, err := bench.Fig6(o)
			return err
		case "7":
			_, err := bench.Fig7(o)
			return err
		case "8":
			// The recovery timeline wants a longer window.
			o8 := o
			if o8.Duration < 10*time.Second {
				o8.Duration = 10 * time.Second
			}
			_, err := bench.Fig8(o8)
			return err
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
	}
	runAblation := func(name string) error {
		switch name {
		case "merge-m":
			_, err := bench.AblationMergeM(o)
			return err
		case "skip":
			_, err := bench.AblationSkip(o)
			return err
		case "batch":
			_, err := bench.AblationBatch(o)
			return err
		case "global-ring":
			_, err := bench.AblationGlobalRing(o)
			return err
		default:
			return fmt.Errorf("unknown ablation %q", name)
		}
	}

	switch *fig {
	case "":
	case "all":
		for _, f := range []string{"3", "4", "5", "6", "7", "8"} {
			if err := runFig(f); err != nil {
				return err
			}
		}
	default:
		if err := runFig(*fig); err != nil {
			return err
		}
	}
	switch *ablation {
	case "":
	case "all":
		for _, a := range []string{"merge-m", "skip", "batch", "global-ring"} {
			if err := runAblation(a); err != nil {
				return err
			}
		}
	default:
		if err := runAblation(*ablation); err != nil {
			return err
		}
	}
	return nil
}

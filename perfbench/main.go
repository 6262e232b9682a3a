// Command perfbench is the repository benchmark: three open-loop
// workloads over the Multi-Ring Paxos stack, each loading a different set
// of layers, with correctness checks on every output and per-layer
// probes measured from outside the program (see README.md).
//
//	go run . --workload multicast --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics, including
// a separate traced round for per-hop latency.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// rounds is the number of fresh deployments per run. Every round sets up
// from scratch and measures an equal share of --seconds, so setup_s and
// the latency percentiles are medians over deployments.
const rounds = 10

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tmpDir   string
}

// window is the measured duration of one round.
func (c config) window() time.Duration {
	return time.Duration(c.seconds) * time.Second / rounds
}

// workload runs one round: set up a fresh deployment, drive it for the
// round's window, check its outputs and tear it down. traced turns on
// span sampling for the window (the separate traced round).
type workload struct {
	why   string
	rate  float64 // ops per second offered by the open-loop generator
	round func(c config, round int, traced bool) (*roundResult, error)
}

var workloads = map[string]workload{
	"multicast":    {why: multicastWhy, rate: multicastRate, round: multicastRound},
	"kv-store":     {why: kvWhy, rate: kvRate, round: kvRound},
	"dlog-durable": {why: dlogWhy, rate: dlogRate, round: dlogRound},
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "multicast, kv-store or dlog-durable")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed generates the same ops")
	flag.IntVar(&c.seconds, "seconds", 20, "measured seconds per run, split evenly over the rounds")
	flag.IntVar(&traceFlag, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.StringVar(&c.tmpDir, "tmpdir", ".bench_build/tmp", "parent directory of the durable workload's WAL directories")
	flag.Parse()
	c.trace = traceFlag == 1
	w, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload multicast|kv-store|dlog-durable, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	out, err := run(c, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(c config, w workload) (output, error) {
	printMeta(c, w)
	var rs []*roundResult
	for i := 0; i < rounds; i++ {
		r, err := w.round(c, i, false)
		if err != nil {
			return output{}, fmt.Errorf("%s round %d: %w", c.workload, i, err)
		}
		fmt.Printf("round %d: setup %.3fs, %d/%d ops ok, p50 %.3f ms, p99 %.3f ms, %.1f us cpu/op, heap %.1f MB\n",
			i, r.setup.Seconds(), r.completed, r.attempted,
			quantileMs(r.lat, 0.50), quantileMs(r.lat, 0.99), r.cpuPerOpUs(), r.heapMB)
		rs = append(rs, r)
	}
	agg := aggregate(rs)
	out := output{Correct: agg.correct(), Attempted: agg.attempted, Failed: agg.failed}
	for _, p := range agg.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	var ms []named
	if c.trace {
		tr, err := w.round(c, rounds, true)
		if err != nil {
			return output{}, fmt.Errorf("%s traced round: %w", c.workload, err)
		}
		if !tr.correct() {
			out.Correct = false
			for _, p := range tr.problems {
				fmt.Println("CHECK FAILED (traced round):", p)
			}
		}
		ms = perLayer(agg, tr)
	} else {
		ms = endToEnd(agg)
	}
	out.Metrics = make(map[string]metric, len(ms))
	for _, m := range ms {
		out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return out, nil
}

// printMeta records the run's host and settings ahead of the results.
func printMeta(c config, w workload) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v rounds=%d rate=%.0f/s\n",
		c.workload, c.seed, c.seconds, c.trace, rounds, w.rate)
	fmt.Printf("meta commit=%s go=%s gomaxprocs=%d nproc=%d gogc=%s os=%s/%s\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gogc, runtime.GOOS, runtime.GOARCH)
	fmt.Printf("why: %s\n", w.why)
}

// named is one reported metric.
type named struct {
	name  string
	value float64
	unit  string
}

func sortNamed(ms []named) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
}

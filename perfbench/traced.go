package main

import (
	"fmt"
	"time"

	"amcast/internal/trace"
)

// Per-hop latency from the program's own spans, read in the traced round.
// Span names: submit (client root, covering submit to reply), forward,
// vote, wal-commit, decide (at the deciding acceptor), merge (at each
// learner) and apply (at each replica).

// hop is one reported per-hop distribution: its samples key and metric
// name prefix, reported in microseconds or milliseconds.
type hop struct {
	name   string
	micros bool
}

var hops = []hop{
	{"trace.submit_forward", false},
	{"trace.forward_decide", false},
	{"trace.wal_commit", true},
	{"core.merge_wait", false},
	{"smr.apply", true},
	{"smr.reply", false},
	{"trace.submit_reply", false},
}

// collectHops reads every trace the collector holds and records per-hop
// gaps into r.samples. Each gap runs from the earliest span of one hop to
// the earliest span of the next, except merge wait, which is measured at
// each learner from the value's decision to that learner's merge.
func collectHops(r *roundResult, col *trace.Collector) {
	ids := col.TraceIDs(0)
	for _, id := range ids {
		first := make(map[string]time.Time)
		var submitEnd time.Time
		var decide time.Time
		var merges []time.Time
		for _, s := range col.Trace(id) {
			if t, ok := first[s.Name]; !ok || s.Start.Before(t) {
				first[s.Name] = s.Start
			}
			switch s.Name {
			case "submit":
				submitEnd = s.Start.Add(s.Duration)
			case "wal-commit":
				r.samples["trace.wal_commit"] = append(r.samples["trace.wal_commit"], s.Duration)
			case "decide":
				decide = s.Start
			case "merge":
				merges = append(merges, s.Start)
			}
		}
		gap := func(key, from, to string) {
			a, okA := first[from]
			b, okB := first[to]
			if okA && okB {
				r.samples[key] = append(r.samples[key], b.Sub(a))
			}
		}
		gap("trace.submit_forward", "submit", "forward")
		gap("trace.forward_decide", "forward", "decide")
		gap("smr.apply", "merge", "apply")
		if !decide.IsZero() {
			for _, m := range merges {
				r.samples["core.merge_wait"] = append(r.samples["core.merge_wait"], m.Sub(decide))
			}
		}
		if apply, ok := first["apply"]; ok && !submitEnd.IsZero() {
			r.samples["smr.reply"] = append(r.samples["smr.reply"], submitEnd.Sub(apply))
		}
		if sub, ok := first["submit"]; ok {
			r.samples["trace.submit_reply"] = append(r.samples["trace.submit_reply"], submitEnd.Sub(sub))
		}
	}
	r.counts["trace.traces"] = float64(len(ids))
	// Recorders overwrite their oldest spans once full; a fill near
	// capacity means early traces may have lost hops.
	if recs := len(col.Recorders()); recs > 0 && col.SpanCount() > recs*trace.DefaultCapacity/2 {
		fmt.Printf("warning: span buffers over half full (%d spans in %d recorders); lower the sampling rate\n",
			col.SpanCount(), recs)
	}
}

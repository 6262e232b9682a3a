package storage

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// logModel is the Log contract as a plain map: the latest record of every
// retained instance, the trim watermark and the highest instance stored.
type logModel struct {
	recs    map[uint64][]byte
	trimmed uint64
	last    uint64
}

func (m *logModel) put(inst uint64, rec []byte) {
	if inst != metaInstance && inst <= m.trimmed {
		return // stale: already trimmed
	}
	m.recs[inst] = bytes.Clone(rec)
	if inst != metaInstance {
		m.last = max(m.last, inst)
	}
}

func (m *logModel) trim(upTo uint64) {
	if upTo <= m.trimmed {
		return
	}
	m.trimmed = upTo
	for inst := range m.recs {
		if inst != metaInstance && inst <= upTo {
			delete(m.recs, inst)
		}
	}
}

func (m *logModel) firstRetained() uint64 {
	if m.trimmed == 0 {
		return 0
	}
	return m.trimmed + 1
}

// contractInstances bounds the instances the fuzzer touches, so puts,
// rewrites and trims keep hitting the same keys.
const contractInstances = 48

// FuzzLogContract drives a MemLog and a FileWAL through one sequence of
// operations decoded from the input and checks both against logModel at
// every read the input asks for and over every instance at the end.
// Instances come out of order and repeat, key 0 is
// written between trims, and the FileWAL uses 128-byte segments (so
// records spread over many segments and trims delete some) and is closed
// and reopened whenever the input asks.
//
// Each operation takes three input bytes: an opcode, an instance and an
// argument (record length, batch shape). The seed corpus is in
// testdata/fuzz/FuzzLogContract.
func FuzzLogContract(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		// Buffered writes keep most steps off fsync, and make Get read
		// back records still in the write buffer.
		opts := WALOptions{Mode: SyncPeriodic, FlushInterval: time.Hour, MaxSegmentBytes: 128}
		wal, err := OpenWAL(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if wal != nil {
				_ = wal.Close()
			}
		}()
		mem := NewMemLog()
		model := &logModel{recs: make(map[uint64][]byte)}
		seq := 0
		record := func(arg byte) []byte {
			seq++
			rec := []byte(fmt.Sprintf("r%d:", seq))
			for len(rec) < int(arg%40) {
				rec = append(rec, byte(seq))
			}
			return rec
		}
		check := func(step int, inst uint64) {
			want, wantOK := model.recs[inst]
			for _, l := range []Log{mem, wal} {
				got, ok := l.Get(inst)
				if ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("step %d: %T.Get(%d) = %q, %v; model has %q, %v", step, l, inst, got, ok, want, wantOK)
				}
			}
		}
		for step := 0; len(ops) >= 3; step++ {
			code, inst, arg := ops[0]%8, uint64(ops[1]%contractInstances), ops[2]
			ops = ops[3:]
			switch code {
			case 0, 7: // Put; opcode 7 writes the pinned key 0
				if code == 7 {
					inst = metaInstance
				}
				rec := record(arg)
				model.put(inst, rec)
				for _, l := range []Log{mem, wal} {
					if err := l.Put(inst, rec); err != nil {
						t.Fatalf("step %d: %T.Put(%d): %v", step, l, inst, err)
					}
				}
			case 1: // PutBatch: 1–4 records stepping -2..+2 from inst
				var recs []Record
				stride := int(arg>>2)%5 - 2
				for k := 0; k <= int(arg%4); k++ {
					i := int(inst) + k*stride
					if i < 0 {
						break
					}
					recs = append(recs, Record{Instance: uint64(i), Data: record(arg)})
				}
				for _, r := range recs {
					model.put(r.Instance, r.Data)
				}
				for _, l := range []Log{mem, wal} {
					if err := l.PutBatch(recs); err != nil {
						t.Fatalf("step %d: %T.PutBatch: %v", step, l, err)
					}
				}
			case 2:
				check(step, inst)
			case 3:
				model.trim(inst)
				for _, l := range []Log{mem, wal} {
					if err := l.Trim(inst); err != nil {
						t.Fatalf("step %d: %T.Trim(%d): %v", step, l, inst, err)
					}
				}
			case 4:
				for _, l := range []Log{mem, wal} {
					if got := l.FirstRetained(); got != model.firstRetained() {
						t.Fatalf("step %d: %T.FirstRetained() = %d, want %d", step, l, got, model.firstRetained())
					}
				}
			case 5:
				for _, l := range []Log{mem, wal} {
					if got := l.LastInstance(); got != model.last {
						t.Fatalf("step %d: %T.LastInstance() = %d, want %d", step, l, got, model.last)
					}
				}
			case 6: // restart the FileWAL over its segments
				if err := wal.Close(); err != nil {
					t.Fatalf("step %d: close: %v", step, err)
				}
				if wal, err = OpenWAL(dir, opts); err != nil {
					t.Fatalf("step %d: reopen: %v", step, err)
				}
			}
		}
		for inst := uint64(0); inst < contractInstances; inst++ {
			check(-1, inst)
		}
		for _, l := range []Log{mem, wal} {
			if l.FirstRetained() != model.firstRetained() || l.LastInstance() != model.last {
				t.Fatalf("%T: FirstRetained %d LastInstance %d, want %d %d",
					l, l.FirstRetained(), l.LastInstance(), model.firstRetained(), model.last)
			}
		}
	})
}

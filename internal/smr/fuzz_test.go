package smr

import (
	"hash/crc32"
	"slices"
	"testing"

	"amcast/internal/transport"
)

// FuzzChunkAssembly drives the chunked-transfer reassembly with both
// honest and corrupted framing. The honest path must reassemble the
// original bytes; the corrupted path may error but must never panic or
// write out of bounds — the framing fields all come from a peer.
func FuzzChunkAssembly(f *testing.F) {
	f.Add([]byte("the quick brown fox"), uint16(4), byte(0))
	f.Add([]byte{}, uint16(1), byte(0))
	f.Add([]byte("corrupt me"), uint16(3), byte(7))
	f.Add([]byte("one"), uint16(64), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, chunkSize uint16, corrupt byte) {
		size := int(chunkSize)
		if size == 0 {
			size = 1
		}
		total := (len(data) + size - 1) / size
		if total == 0 {
			total = 1
		}
		crc := crc32.ChecksumIEEE(data)
		chunk := func(i int) transport.Message {
			off := i * size
			end := off + size
			if end > len(data) {
				end = len(data)
			}
			m := transport.Message{
				Kind:     transport.KindSnapshotChunk,
				Instance: uint64(off),
				Count:    uint32(total),
				Votes:    uint32(i),
				Ballot:   crc,
				Value:    transport.Value{ID: uint64(len(data))},
			}
			if off < len(data) {
				m.Payload = data[off:end]
			}
			return m
		}

		// Corrupt one framing field of one chunk, chosen by the fuzzer.
		mutate := func(m transport.Message) transport.Message {
			switch corrupt % 6 {
			case 1:
				m.Instance += uint64(corrupt)
			case 2:
				m.Votes += uint32(corrupt)
			case 3:
				m.Ballot ^= uint32(corrupt)
			case 4:
				m.Value.ID += uint64(corrupt)
			case 5:
				m.Count += uint32(corrupt)
			}
			return m
		}

		a := NewChunkAssembly(mutate(chunk(0)))
		if a == nil {
			if corrupt%6 == 0 {
				t.Fatalf("honest first chunk rejected (len=%d total=%d)", len(data), total)
			}
			return
		}
		var done bool
		var err error
		for i := 0; i < total; i++ {
			m := chunk(i)
			if i == int(corrupt)%total {
				m = mutate(m)
			}
			done, err = a.Add(m)
			if err != nil {
				return // corruption detected; that is the contract
			}
		}
		if corrupt%6 == 0 {
			// Honest transfer: must complete and reproduce the input.
			if !done {
				t.Fatalf("honest transfer of %d chunks never completed", total)
			}
			got := a.Bytes()
			if string(got) != string(data) {
				t.Fatalf("reassembly mismatch: got %d bytes, want %d", len(got), len(data))
			}
		}
	})
}

// FuzzDecodeDedup hardens the dedup-table decoder: arbitrary bytes must
// decode or error without panicking, and anything accepted must survive
// an encode/decode round trip with identical floors and executed seqs
// (the table is part of every checkpoint, so a lenient decoder would
// corrupt recovery).
func FuzzDecodeDedup(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeDedup(nil))
	f.Add(encodeDedup(map[transport.ProcessID]*clientWindow{
		3: newClientWindow(17),
		9: newClientWindow(0),
	}))
	sparse := newClientWindow(4)
	for _, s := range []uint64{6, 9, 4100} {
		sparse.record(s, nil)
	}
	f.Add(encodeDedup(map[transport.ProcessID]*clientWindow{5: sparse}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dedup, err := decodeDedup(data)
		if err != nil {
			return
		}
		enc := encodeDedup(dedup)
		dedup2, err := decodeDedup(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if len(dedup2) != len(dedup) {
			t.Fatalf("round trip changed table size: %d != %d", len(dedup2), len(dedup))
		}
		for c, w := range dedup {
			w2 := dedup2[c]
			if w2 == nil || w2.floor != w.floor {
				t.Fatalf("round trip changed client %d floor", c)
			}
			if !slices.Equal(w2.executedAbove(), w.executedAbove()) {
				t.Fatalf("round trip changed client %d executed seqs", c)
			}
		}
	})
}

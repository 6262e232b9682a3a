package ring

import (
	"encoding/binary"
	"maps"
	"slices"

	"amcast/internal/transport"
)

// Acceptor log records frame the vote an acceptor casts for an instance:
//
//	ballot(4) || EncodeBatch([{instance, value}])
//
// The instance is redundant with the log key but keeps records
// self-describing for offline inspection and WAL replay.

// acceptRecordSize is the exact encoded size of a vote record, so the hot
// path can encode into a pre-sized pooled buffer.
func acceptRecordSize(v transport.Value) int {
	return 4 + 4 + 8 + 8 + 1 + 4 + 4 + len(v.Data)
}

// appendAccept appends the durable record for a vote to buf (exactly
// acceptRecordSize bytes). The single-entry batch is encoded in place:
// votes carry the full proposal payload (32 KB packed instances), and an
// intermediate EncodeBatch buffer would double the copy on every
// acceptor's hot path.
//
//lint:deterministic
func appendAccept(buf []byte, ballot uint32, instance uint64, v transport.Value) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], ballot)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], 1) // batch length
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:8], instance)
	buf = append(buf, tmp[:8]...)
	return transport.AppendValue(buf, v)
}

// encodeAccept builds the durable record for a vote on the heap (tests
// and cold paths; recordVote encodes into a pooled buffer instead).
//
//lint:deterministic
func encodeAccept(ballot uint32, instance uint64, v transport.Value) []byte {
	return appendAccept(make([]byte, 0, acceptRecordSize(v)), ballot, instance, v)
}

// decodeAccept parses a record written by encodeAccept.
func decodeAccept(rec []byte) (ballot uint32, instance uint64, v transport.Value, err error) {
	if len(rec) < 4 {
		return 0, 0, transport.Value{}, transport.ErrShortMessage
	}
	ballot = binary.LittleEndian.Uint32(rec[:4])
	batch, err := transport.DecodeBatch(rec[4:])
	if err != nil {
		return 0, 0, transport.Value{}, err
	}
	if len(batch) != 1 {
		return 0, 0, transport.Value{}, transport.ErrShortMessage
	}
	return ballot, batch[0].Instance, batch[0].Value, nil
}

// A Phase 1B report is the reporting acceptors' vote records, each in the
// log's encoding (which carries the ballot) behind its length:
//
//	{ len(4) || ballot(4) || EncodeBatch([{instance, value}]) }...
//
// Each acceptor on the ring appends its votes to the report it forwards.

// appendReportVote appends one vote to a Phase 1B report.
//
//lint:deterministic
func appendReportVote(report []byte, ballot uint32, instance uint64, v transport.Value) []byte {
	report = binary.LittleEndian.AppendUint32(report, uint32(acceptRecordSize(v)))
	return appendAccept(report, ballot, instance, v)
}

// highestVotes decodes a Phase 1B report and keeps, per instance, the value
// voted at the highest ballot: Paxos lets a new coordinator re-propose only
// that value, because any value already chosen is the one every vote at a
// higher ballot carries. The result is in instance order.
func highestVotes(report []byte) ([]transport.InstanceValue, error) {
	type vote struct {
		ballot uint32
		value  transport.Value
	}
	best := make(map[uint64]vote)
	for len(report) > 0 {
		if len(report) < 4 || int(binary.LittleEndian.Uint32(report)) > len(report)-4 {
			return nil, transport.ErrShortMessage
		}
		size := 4 + int(binary.LittleEndian.Uint32(report))
		ballot, inst, v, err := decodeAccept(report[4:size])
		if err != nil {
			return nil, err
		}
		if b, ok := best[inst]; !ok || ballot > b.ballot {
			best[inst] = vote{ballot, v}
		}
		report = report[size:]
	}
	out := make([]transport.InstanceValue, 0, len(best))
	for _, inst := range slices.Sorted(maps.Keys(best)) {
		out = append(out, transport.InstanceValue{Instance: inst, Value: best[inst].value})
	}
	return out, nil
}

// promiseInstance is the reserved log key for the acceptor's highest
// promised ballot (persisted so a recovering acceptor does not betray its
// promises). Consensus instances start at 1, so key 0 is free.
const promiseInstance = 0

// encodePromise stores a promised ballot.
//
//lint:deterministic
func encodePromise(ballot uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], ballot)
	return buf[:]
}

// decodePromise reads a promised ballot.
func decodePromise(rec []byte) uint32 {
	if len(rec) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(rec[:4])
}

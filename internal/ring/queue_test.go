package ring

import (
	"testing"

	"amcast/internal/transport"
)

func TestProposalQueueFIFOAcrossGrowth(t *testing.T) {
	var q proposalQueue
	// Interleave pushes and pops so the head wraps while the buffer
	// grows; FIFO order must survive.
	next, want := uint64(0), uint64(0)
	for round := 0; round < 20; round++ {
		for i := 0; i < 37; i++ {
			next++
			q.push(transport.Value{ID: next})
		}
		for i := 0; i < 23; i++ {
			want++
			if got := q.pop(); got.ID != want {
				t.Fatalf("pop = %d, want %d", got.ID, want)
			}
		}
	}
	if q.len() != int(next-want) {
		t.Fatalf("len = %d, want %d", q.len(), next-want)
	}
	for q.len() > 0 {
		want++
		if got := q.pop(); got.ID != want {
			t.Fatalf("drain pop = %d, want %d", got.ID, want)
		}
	}
}

func TestProposalQueuePeekMatchesPop(t *testing.T) {
	var q proposalQueue
	q.push(transport.Value{ID: 1, Data: []byte("a")})
	q.push(transport.Value{ID: 2, Data: []byte("b")})
	if p := q.peek(); p.ID != 1 || string(p.Data) != "a" {
		t.Fatalf("peek = %+v", p)
	}
	if v := q.pop(); v.ID != 1 {
		t.Fatalf("pop = %d", v.ID)
	}
	if p := q.peek(); p.ID != 2 {
		t.Fatalf("peek after pop = %d", p.ID)
	}
}

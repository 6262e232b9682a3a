package ring

import (
	"fmt"
	"testing"
	"time"

	"amcast/internal/bufpool"
	"amcast/internal/coord"
	"amcast/internal/netem"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// TestRestartedAcceptorReportsLoggedVotes restarts an acceptor over a log
// that already holds a vote (the RetainLogs restart path) and checks that
// its Phase 1B report carries that vote. An acceptor that forgot votes
// cast before a restart could let a new coordinator overwrite a value
// that was already chosen.
func TestRestartedAcceptorReportsLoggedVotes(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	members := []coord.Member{
		{ID: 1, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner},
		{ID: 2, Roles: coord.RoleAcceptor},
	}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	log := storage.NewMemLog()
	v := transport.Value{ID: transport.MakeValueID(1, 1), Count: 1, Data: []byte("before-restart")}
	if err := log.Put(5, encodeAccept(1, 5, v)); err != nil {
		t.Fatal(err)
	}
	// Process 2 is played by the test: process 1 coordinates and sends
	// its Phase 1A, carrying its own Phase 1B report, to process 2.
	peer := net.Attach(2, netem.SiteLocal)
	n, err := New(Config{
		Ring:   1,
		Self:   1,
		Router: transport.NewRouter(net.Attach(1, netem.SiteLocal)),
		Coord:  svc,
		Log:    log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-peer.Recv():
			if m.Kind != transport.KindPhase1A {
				continue
			}
			report, err := highestVotes(m.Payload)
			if err != nil {
				t.Fatalf("decode Phase 1B report: %v", err)
			}
			for _, iv := range report {
				if iv.Instance == 5 && string(iv.Value.Data) == "before-restart" {
					return
				}
			}
			t.Fatalf("Phase 1B report %+v lacks the logged vote at instance 5", report)
		case <-deadline:
			t.Fatal("no Phase 1A from the restarted coordinator")
		}
	}
}

// TestPhase1ReproposesHighestBallot starts a coordinator whose log holds
// a vote for A at instance 5, cast at ballot 1, while its successor's log
// holds a vote for B at the same instance, cast at ballot 2. B may have
// been chosen at ballot 2 and A cannot have been, so Phase 1 must
// re-propose B: Paxos takes the value of the highest reported ballot, not
// the first value reported.
func TestPhase1ReproposesHighestBallot(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	svc := coord.NewService()
	var members []coord.Member
	logs := make(map[transport.ProcessID]*storage.MemLog)
	for id := transport.ProcessID(1); id <= 3; id++ {
		members = append(members, coord.Member{ID: id, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner})
		logs[id] = storage.NewMemLog()
	}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	// Two coordinator terms (ballots 1 and 2) came before this one: raise
	// the ring's config version, the next coordinator's ballot, to 3.
	svc.MarkDown(3)
	svc.MarkUp(3)
	vote := func(id transport.ProcessID, ballot uint32, inst uint64, data string) {
		t.Helper()
		vid := transport.MakeValueID(transport.ProcessID(ballot), uint32(inst)) // unique per vote
		v := transport.Value{ID: vid, Count: 1, Data: []byte(data)}
		if err := logs[id].Put(inst, encodeAccept(ballot, inst, v)); err != nil {
			t.Fatal(err)
		}
	}
	// Instances 1-4 were decided at ballot 1; the coordinator re-proposes
	// them from its own log.
	for inst := uint64(1); inst <= 4; inst++ {
		vote(1, 1, inst, fmt.Sprintf("v%d", inst))
	}
	vote(1, 1, 5, "A")
	vote(2, 2, 5, "B")
	if err := logs[2].Put(promiseInstance, encodePromise(2)); err != nil {
		t.Fatal(err)
	}
	nodes := make(map[transport.ProcessID]*Node)
	for id := transport.ProcessID(3); id >= 1; id-- {
		n, err := New(Config{
			Ring:          1,
			Self:          id,
			Router:        transport.NewRouter(net.Attach(id, netem.SiteLocal)),
			Coord:         svc,
			Log:           logs[id],
			RetryInterval: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes[id] = n
	}
	for _, d := range collect(t, nodes[3], 5, 5*time.Second) {
		if d.Instance == 5 {
			if string(d.Value.Data) != "B" {
				t.Fatalf("instance 5 decided %q, want B (the ballot-2 vote)", d.Value.Data)
			}
			return
		}
	}
	t.Fatal("instance 5 was not among the first five deliveries")
}

// TestAcceptorsPinNoDecidedPayloads drives more than 10k instances
// through a TCP ring that never trims. The TCP path interns every inbound
// value into a pooled buffer, so a buffer an acceptor kept per vote would
// stay outstanding. Once everything is delivered, the outstanding buffers
// must fit within one pipeline window while the logs hold every vote.
func TestAcceptorsPinNoDecidedPayloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		procs    = 3
		proposed = 10500
		// Proposals are fair-lossy: a few may be dropped while the TCP
		// connections come up, and nothing here retries them.
		decided = 10100
		window  = 256
	)
	svc := coord.NewService()
	var members []coord.Member
	tcp := make([]*transport.TCPNode, procs)
	for i := range tcp {
		id := transport.ProcessID(i + 1)
		members = append(members, coord.Member{ID: id, Roles: coord.RoleProposer | coord.RoleAcceptor | coord.RoleLearner})
		tn, err := transport.ListenTCP(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tcp[i] = tn
	}
	for _, a := range tcp {
		for _, b := range tcp {
			if a != b {
				a.SetPeer(b.ID(), b.Addr())
			}
		}
	}
	if err := svc.CreateRing(1, members); err != nil {
		t.Fatal(err)
	}
	before := bufpool.Outstanding()
	nodes := make([]*Node, procs)
	logs := make([]*storage.MemLog, procs)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Stop()
			}
		}
		for _, tn := range tcp {
			_ = tn.Close()
		}
	}()
	for i := range nodes {
		logs[i] = storage.NewMemLog()
		n, err := New(Config{
			Ring:   1,
			Self:   transport.ProcessID(i + 1),
			Router: transport.NewRouter(tcp[i]),
			Coord:  svc,
			Log:    logs[i],
			Window: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	go func() {
		for i := 0; i < proposed; i++ {
			_ = nodes[1].Propose([]byte(fmt.Sprintf("value-%05d", i)))
		}
	}()
	for _, n := range nodes {
		collect(t, n, decided, 60*time.Second)
	}
	// The coordinator and its successor form the voting majority; the
	// third process only learns the decisions.
	for i, l := range logs[:2] {
		if l.Len() < decided {
			t.Fatalf("process %d logged %d votes, want >= %d", i+1, l.Len(), decided)
		}
	}
	// Burst and batch references are dropped asynchronously once the
	// last frames are flushed and consumed; wait for them to settle.
	deadline := time.Now().Add(10 * time.Second)
	for bufpool.Outstanding()-before > window {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers outstanding after %d decided instances, want <= %d",
				bufpool.Outstanding()-before, decided, window)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

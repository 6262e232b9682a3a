package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amcast/internal/netem"
	"amcast/internal/store"
)

// TestReplicasStayByteIdentical runs a partitioned store with a global
// ring under concurrent YCSB-A-ish traffic (updates, inserts, deletes,
// scans through the global ring) while a background goroutine forces
// checkpoints mid-stream. After quiescing, every replica of a partition
// must hold byte-identical state: the checkpoint captures taken between
// batches must not perturb execution.
func TestReplicasStayByteIdentical(t *testing.T) {
	d := NewDeployment(nil)
	defer d.Close()
	c, err := d.StartStore(StoreOptions{
		Partitions: 2, Replicas: 3, Global: true, Ring: fastRing(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for !stop.Load() {
			for p := 1; p <= 2; p++ {
				for r := 1; r <= 3; r++ {
					c.Server(p, r).Replica().ForceCheckpoint()
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		sc, cl, err := c.NewClient(netem.SiteLocal)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(w int, sc *store.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("eq%03d", rng.Intn(60))
				var err error
				switch rng.Intn(10) {
				case 0:
					err = sc.Delete(k)
					if err != nil {
						err = nil // deleting an absent key fails by status, not transport
					}
				case 1:
					_, err = sc.Scan("eq000", "eq999")
				default:
					err = upsert(sc, k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w, sc)
	}
	wg.Wait()
	stop.Store(true)
	ckptWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Wait for every replica of each partition to converge on replica 1's
	// exact state bytes.
	for p := 1; p <= 2; p++ {
		want := func() []byte { return c.Server(p, 1).SM().Snapshot() }
		for r := 2; r <= 3; r++ {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if bytes.Equal(want(), c.Server(p, r).SM().Snapshot()) {
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
			if !bytes.Equal(want(), c.Server(p, r).SM().Snapshot()) {
				t.Fatalf("partition %d replica %d state diverged from replica 1", p, r)
			}
		}
	}
}

// upsert inserts k, or updates it if it already exists. Another worker's
// Delete can remove k between the failed Insert and the Update, which
// then rightly reports not-found: that case inserts again. Any other
// error is returned.
func upsert(sc *store.Client, k string, v []byte) error {
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if sc.Insert(k, v) == nil {
			return nil
		}
		err = sc.Update(k, v)
		if err == nil || !strings.HasSuffix(err.Error(), store.StatusNotFound.String()) {
			return err
		}
	}
	return err
}

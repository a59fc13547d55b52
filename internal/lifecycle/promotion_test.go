package lifecycle

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/serve"
)

// TestTornPromotion is the satellite proof that promotion is atomic from a
// request's point of view: while clients hammer decides (with harvesting
// and the shadow tap enabled), the manager promotes alternating admit-all
// (odd versions) and decline-all (even versions) champions through its
// real promotion path. Every verdict must be consistent with the version
// that answered it — an inconsistent pair means a batch observed a
// half-swapped challenger.
func TestTornPromotion(t *testing.T) {
	admitAll := trainChampion(t, worldSamples(23, 2400, 2, false), trainCfg(23))
	admitAll.SetThreshold(2)
	declineAll := cloneWithThreshold(t, admitAll, -1)

	tgt := &fakeTarget{}
	mgr, err := New(managerCfg(23, 2), admitAll, tgt)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(admitAll, serve.Config{
		Shards:        4,
		QueueLen:      4096,
		BreakerWindow: -1,
		Completions:   mgr.Harvester(),
		Decisions:     mgr.Harvester(),
	})
	// Rewire the manager at the real server (fakeTarget only validated
	// counting; promotion must go through the server's atomic swap here).
	mgr.Retarget(srv)

	addr := "unix:" + filepath.Join(t.TempDir(), "lifecycle.sock")
	l, err := serve.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	const clients, perClient = 4, 400
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := serve.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				if i%3 == 0 {
					if err := c.Complete(uint32(ci), 150_000, i%16, 8192); err != nil {
						errs <- err
						return
					}
				}
				v, err := c.Decide(uint32(ci), i%16, 4096)
				if err != nil {
					errs <- fmt.Errorf("client %d decide %d: %w", ci, i, err)
					return
				}
				if v.Flags != 0 {
					errs <- fmt.Errorf("client %d decide %d degraded (flags %#x)", ci, i, v.Flags)
					return
				}
				// Version 1 (initial) and every odd promotion are
				// admit-all; even versions decline everything. A mismatch
				// is a torn promotion.
				if want := v.ModelVersion%2 == 1; v.Admit != want {
					errs <- fmt.Errorf("client %d decide %d: version %d answered admit=%v",
						ci, i, v.ModelVersion, v.Admit)
					return
				}
			}
		}(ci)
	}

	// Promote continuously through the manager while the clients hammer.
	promoDone := make(chan struct{})
	go func() {
		defer close(promoDone)
		for i := 0; i < 60; i++ {
			if i%2 == 0 {
				mgr.Promote(declineAll)
			} else {
				mgr.Promote(admitAll)
			}
		}
	}()
	wg.Wait()
	<-promoDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if st := mgr.Stats(); st.Promotions != 60 {
		t.Fatalf("manager recorded %d promotions, want 60", st.Promotions)
	}
	// Harvesting rode along: completions were sunk and decisions tapped
	// while promotions churned.
	if st := mgr.Stats(); st.Harvested == 0 || st.Tapped == 0 {
		t.Fatalf("harvest hooks silent under load: %+v", st)
	}
}

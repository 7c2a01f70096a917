package wire

import (
	"sync"
	"testing"
)

// TestLinkDialRaceSingleLink pins the daemon.link fix: the dial happens
// outside linkMu (so one slow peer cannot stall every other sender), and
// concurrent callers racing the first dial must all end up on ONE cached
// link — the losers close their own connections and adopt the winner's.
// Two live links to the same peer would split ack routing across
// connections: a sender parked on link A's expect channel never hears an
// ack that arrives on link B.
func TestLinkDialRaceSingleLink(t *testing.T) {
	cl := newCluster(t, 2)
	d := cl.hosts[0].incarnation()

	const callers = 50
	start := make(chan struct{})
	links := make([]*link, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			links[i], errs[i] = d.link(1)
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: link(1) failed: %v", i, errs[i])
		}
		if links[i] == nil {
			t.Fatalf("caller %d: link(1) returned nil without error", i)
		}
		if links[i] != links[0] {
			t.Fatalf("caller %d got a different link than caller 0: ack routing is split across connections", i)
		}
	}

	d.linkMu.Lock()
	cached := len(d.links)
	d.linkMu.Unlock()
	if cached != 1 {
		t.Fatalf("daemon caches %d links to its single peer, want 1", cached)
	}
}

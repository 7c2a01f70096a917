package wire

import (
	"sync"
	"testing"
)

// TestPeerDialRaceSingleConn: concurrent senders racing the first use of
// a peer all end up on ONE cached connection, and that connection dials
// once. The cache is filled under linkMu without dialing, and the
// ctlConn's dial is single-flight, so no caller dials while holding
// linkMu (one slow peer cannot stall every other sender) and no loser's
// connection has to be closed. Each caller then ships one hop over it.
func TestPeerDialRaceSingleConn(t *testing.T) {
	cl := newCluster(t, 2)
	d := cl.hosts[0].incarnation()

	const callers = 50
	start := make(chan struct{})
	conns := make([]*ctlConn, callers)
	errs := make([]error, callers)
	acked := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if conns[i], errs[i] = d.peer(1); errs[i] == nil {
				acked[i] = d.deliver(1, &agentMsg{ID: 7<<40 | uint64(i), Hop: 1, Behavior: "persistDone"}, 0)
			}
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: peer(1) failed: %v", i, errs[i])
		}
		if conns[i] != conns[0] {
			t.Fatalf("caller %d got a different connection than caller 0", i)
		}
		if !acked[i] {
			t.Fatalf("caller %d: the hop was not acknowledged", i)
		}
	}
	d.linkMu.Lock()
	cached := len(d.links)
	d.linkMu.Unlock()
	if cached != 1 {
		t.Fatalf("daemon caches %d connections to its single peer, want 1", cached)
	}
	if got := cl.Metrics().Snapshot().Counter(MetricLinkDials); got != 1 {
		t.Fatalf("%d dials to the single peer, want 1", got)
	}
}

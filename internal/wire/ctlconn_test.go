package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// The pipelined control connection against a scripted peer: a listener
// that decodes request frames and answers them — or pointedly does not —
// the way each test says. A reply echoes its request's Name, so a caller
// can tell its own reply from a neighbour's. Everything here waits on
// events (a frame was read, a connection ended, a call returned);
// patience is the only clock, and it bounds how long a wait may hang
// before the test fails, never how long a passing run takes.

const patience = 10 * time.Second

// scriptedPeer serves each accepted connection with script, which gets
// the connection's index in accept order.
type scriptedPeer struct {
	addr string
	ln   net.Listener
	wg   sync.WaitGroup
	mu   sync.Mutex
	open []net.Conn
}

func newScriptedPeer(t *testing.T, script func(idx int, conn net.Conn, r *bufio.Reader)) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{addr: ln.Addr().String(), ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for idx := 0; ; idx++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.open = append(p.open, conn)
			p.mu.Unlock()
			p.wg.Add(1)
			go func(idx int) {
				defer p.wg.Done()
				defer conn.Close()
				script(idx, conn, bufio.NewReader(conn))
			}(idx)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, conn := range p.open {
			conn.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

// echo answers one request the way a daemon answers a GetVar, carrying
// the request's Name back.
func echo(conn net.Conn, req *envelope) error {
	f, err := encodeFrame(&envelope{Kind: msgVar, Name: req.Name})
	if err != nil {
		return err
	}
	defer f.release()
	_, err = conn.Write(f.bytes())
	return err
}

// echoAll answers every request on the connection, in order.
func echoAll(conn net.Conn, r *bufio.Reader) {
	for {
		req, err := readFrame(r)
		if err != nil || echo(conn, req) != nil {
			return
		}
	}
}

// echoOne answers the connection's next request and reports whether it
// could. The scripts that misbehave do it after one honest answer: the
// test's warmUp call, which makes the misbehaving connection the client's
// live one before the burst starts — concurrent callers on a cold client
// would each dial, and all but one of those connections are dropped
// unused.
func echoOne(conn net.Conn, r *bufio.Reader) bool {
	req, err := readFrame(r)
	return err == nil && echo(conn, req) == nil
}

func warmUp(t *testing.T, c *ctlConn) {
	t.Helper()
	if _, err := c.roundTrip(&envelope{Kind: msgGetVar, Name: "warm-up"}, patience); err != nil {
		t.Fatalf("warm-up round trip: %v", err)
	}
}

// awaitEvent receives from ch or fails the test after patience.
func awaitEvent[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(patience):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// call is one round trip's outcome, for callers running off the test
// goroutine.
type call struct {
	name  string
	reply *envelope
	err   error
}

func goCall(c *ctlConn, name string, timeout time.Duration, out chan<- call) {
	go func() {
		reply, err := c.roundTrip(&envelope{Kind: msgGetVar, Name: name}, timeout)
		out <- call{name, reply, err}
	}()
}

func TestCtlConnConcurrentCallersGetTheirOwnReplies(t *testing.T) {
	peer := newScriptedPeer(t, func(_ int, conn net.Conn, r *bufio.Reader) { echoAll(conn, r) })
	c := &ctlConn{addr: peer.addr}
	defer c.close()
	const callers, rounds = 64, 4
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				name := fmt.Sprintf("caller-%d-round-%d", i, k)
				reply, err := c.roundTrip(&envelope{Kind: msgGetVar, Name: name}, patience)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if reply.Name != name {
					t.Errorf("%s received the reply to %q", name, reply.Name)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestCtlConnPeerCloseFailsEveryCallerInFlight(t *testing.T) {
	const burst, answered = 8, 3
	peer := newScriptedPeer(t, func(idx int, conn net.Conn, r *bufio.Reader) {
		if idx > 0 || !echoOne(conn, r) {
			echoAll(conn, r)
			return
		}
		// The first connection, once warm, takes the whole burst in,
		// answers the first few, and hangs up on the rest.
		var reqs []*envelope
		for len(reqs) < burst {
			req, err := readFrame(r)
			if err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		for _, req := range reqs[:answered] {
			if echo(conn, req) != nil {
				return
			}
		}
	})
	c := &ctlConn{addr: peer.addr}
	defer c.close()
	warmUp(t, c)
	// The callers' own timeout is far beyond the test's patience: one that
	// waited it out instead of failing with the connection fails the test.
	out := make(chan call, burst)
	for i := 0; i < burst; i++ {
		goCall(c, fmt.Sprintf("burst-%d", i), 10*patience, out)
	}
	ok := 0
	for i := 0; i < burst; i++ {
		r := awaitEvent(t, out, "a caller of the interrupted burst to return")
		if r.err != nil {
			continue
		}
		ok++
		if r.reply.Name != r.name {
			t.Errorf("%s received the reply to %q", r.name, r.reply.Name)
		}
	}
	if ok != answered {
		t.Fatalf("%d of %d callers succeeded; the peer answered %d before hanging up", ok, burst, answered)
	}
	reply, err := c.roundTrip(&envelope{Kind: msgGetVar, Name: "after"}, patience)
	if err != nil {
		t.Fatalf("the call after the hang-up did not redial: %v", err)
	}
	if reply.Name != "after" {
		t.Fatalf("redialed call received the reply to %q", reply.Name)
	}
}

func TestCtlConnTimeoutTearsDownAndRecovers(t *testing.T) {
	got := make(chan string, 8)
	hungUp := make(chan struct{})
	peer := newScriptedPeer(t, func(idx int, conn net.Conn, r *bufio.Reader) {
		if idx > 0 || !echoOne(conn, r) {
			echoAll(conn, r)
			return
		}
		// The first connection, once warm, reads and never answers.
		for {
			req, err := readFrame(r)
			if err != nil {
				close(hungUp)
				return
			}
			got <- req.Name
		}
	})
	c := &ctlConn{addr: peer.addr}
	defer c.close()
	warmUp(t, c)
	out := make(chan call, 3)
	goCall(c, "patient-1", 10*patience, out)
	goCall(c, "patient-2", 10*patience, out)
	awaitEvent(t, got, "the peer to read the first patient request")
	awaitEvent(t, got, "the peer to read the second patient request")
	// Both neighbours are in flight; now the caller that gives up.
	if _, err := c.roundTrip(&envelope{Kind: msgGetVar, Name: "hasty"}, 20*time.Millisecond); err == nil {
		t.Fatal("a round trip to a silent peer succeeded")
	}
	for i := 0; i < 2; i++ {
		if r := awaitEvent(t, out, "a neighbour of the timed-out caller to fail"); r.err == nil {
			t.Fatalf("%s got a reply from a peer that sent none", r.name)
		}
	}
	awaitEvent(t, hungUp, "the silent connection to be torn down")
	reply, err := c.roundTrip(&envelope{Kind: msgGetVar, Name: "later"}, patience)
	if err != nil {
		t.Fatalf("the call after the teardown did not recover: %v", err)
	}
	if reply.Name != "later" {
		t.Fatalf("recovered call received the reply to %q", reply.Name)
	}
}

func TestCtlConnCloseIsTerminalAndWaitsForReader(t *testing.T) {
	accepted := make(chan struct{}, 4)
	got := make(chan string, 1)
	peer := newScriptedPeer(t, func(_ int, conn net.Conn, r *bufio.Reader) {
		accepted <- struct{}{}
		for {
			req, err := readFrame(r)
			if err != nil {
				return
			}
			got <- req.Name // and never answer
		}
	})
	c := &ctlConn{addr: peer.addr}
	out := make(chan call, 1)
	goCall(c, "in-flight", 10*patience, out)
	awaitEvent(t, accepted, "the peer to accept the connection")
	awaitEvent(t, got, "the peer to read the request")

	closed := make(chan struct{})
	go func() {
		c.close()
		close(closed)
	}()
	awaitEvent(t, closed, "close() to return with its reader parked on a silent peer")
	if r := awaitEvent(t, out, "the in-flight caller to fail"); !errors.Is(r.err, errCtlClosed) {
		t.Fatalf("in-flight caller's error = %v, want the connection-closed error", r.err)
	}
	exited := make(chan struct{})
	go func() {
		c.readers.Wait()
		close(exited)
	}()
	awaitEvent(t, exited, "the reader goroutine to have exited")

	if _, err := c.roundTrip(&envelope{Kind: msgGetVar, Name: "late"}, patience); !errors.Is(err, errCtlClosed) {
		t.Fatalf("round trip after close() = %v, want the connection-closed error", err)
	}
	select {
	case <-accepted:
		t.Fatal("a round trip after close() redialed the peer")
	default:
	}
	c.close() // idempotent
}

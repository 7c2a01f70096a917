package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Options configures an in-process cluster's chaos layer. The zero value
// gives a plain, fault-free cluster — the behavior of NewCluster. Every
// other runtime value is a constant (below); the plan carries the only
// timings a chaos run tunes.
type Options struct {
	// Fault injects a deterministic chaos plan into every hop send:
	// drops, duplicates, delays, and daemon kills. Its RetryTimeout is the
	// hop ack timeout, and its RestartDelay how long a killed daemon stays
	// down. A plan that schedules kills also starts the supervisor, which
	// restarts dead daemons from their checkpoints. Nil injects nothing.
	Fault *fault.Plan
	// Tracer, if non-nil, receives hop/drop/retry/kill/recover events
	// with wall-clock timestamps in seconds since cluster start (it
	// must be safe for concurrent use; internal/trace.Recorder is).
	Tracer trace.Tracer
}

// The runtime's fixed timings, the ones process hosts and front-end
// clients always run. A fault plan's RetryTimeout replaces
// defaultAckTimeout on an in-process cluster.
const (
	defaultAckTimeout = 500 * time.Millisecond // a hop's ack, and a daemon's control reply to another daemon
	retryBackoff      = 5 * time.Millisecond   // the first resend backoff, doubling per attempt ...
	maxRetryBackoff   = 250 * time.Millisecond // ... up to this
	heartbeatInterval = 100 * time.Millisecond // the liveness prober's period; a ping gets four to answer
	controlTimeout    = 2 * time.Second        // a client's control round trip; generous, as a daemon syncs before replying
	drainTimeout      = 10 * time.Second       // a msgDrain evacuation, unless the frame sets its own
	dedupRetain       = 1024                   // retired dedup entries a node keeps before evicting the oldest
)

// ackTimeout is the hop ack timeout: the plan's RetryTimeout when it sets
// one, defaultAckTimeout otherwise.
func (o *Options) ackTimeout() time.Duration {
	if o.Fault != nil && o.Fault.RetryTimeout > 0 {
		return secondsToDuration(o.Fault.RetryTimeout)
	}
	return defaultAckTimeout
}

// traceSink stamps wire runtime events with wall-clock seconds since
// cluster start and forwards them to the configured tracer.
type traceSink struct {
	tracer trace.Tracer
	epoch  time.Time
}

func (ts *traceSink) record(kind trace.TraceKind, job uint64, agent string, from, to int, bytes int64, label string) {
	if ts == nil || ts.tracer == nil {
		return
	}
	now := time.Since(ts.epoch).Seconds()
	ts.tracer.Record(trace.TraceEvent{Kind: kind, Job: job, Agent: agent, From: from, To: to,
		Label: label, Bytes: bytes, Start: now, End: now})
}

// Cluster is n Hosts in one address space on loopback TCP, driven through
// the same RemoteCluster client — and therefore the same control frames,
// the same termination detector, the same cancellation re-delivery, the
// same liveness prober — as a cluster of daemon processes. What it adds is
// only what is genuinely in-process: constructing the hosts on pre-bound
// ports, restarting a daemon the prober finds dead under a fault plan (on
// its surviving node state, the way an operator respawns a crashed
// process), and surfacing the daemons' asynchronous errors to whoever is
// waiting on the cluster.
type Cluster struct {
	*RemoteCluster
	hosts []*Host

	closeOnce sync.Once
}

// ctlConn is a lazily redialed, pipelined connection to one daemon: any
// number of callers have a round trip in flight on it at once. It carries
// the coordinator's control frames and, between daemons, every frame one
// daemon sends another — hops and control alike (daemon.peer). A caller
// writes its request frame and then waits for the reply on a channel of
// its own; one reader goroutine per live connection hands each frame it
// reads to the oldest caller still waiting.
//
// Matching replies to requests by position needs no request id because
// of the daemon's side of the contract: daemon.handle serves one inbound
// connection with a sequential loop that writes exactly one reply per
// request, in arrival order — a hop's ack included. (msgShutdown is
// answered by closing the connection, which is the failure path below and
// ends the sequence.)
//
// Any read or write error, an undecodable reply, or one caller's timeout
// tears the connection down and fails every round trip in flight on it —
// after a lost reply the positions no longer line up, so no neighbour's
// reply can be trusted. The next round trip redials, reaching the
// daemon's current incarnation after a restart. An explicit close() is
// terminal instead: a round trip racing or following it fails and never
// redials. The zero value with addr set is ready to use.
type ctlConn struct {
	addr  string
	met   *wireMetrics     // nil on the one-shot and peer connections, which report no control metrics
	dials *metrics.Counter // counts every dial when set (a daemon's peer connections: wire.links.dials)

	mu      sync.Mutex // guards cur, dialing and closed; never held across I/O
	cur     *ctlPipe
	dialing *ctlDial // the dial in flight, which every caller that finds no pipe waits for
	closed  bool
	readers sync.WaitGroup // the reader goroutines close() waits for
}

// ctlDial is one dial of a ctlConn; done closes once p or err is set.
type ctlDial struct {
	done chan struct{}
	p    *ctlPipe
	err  error
}

// ctlReply is what a waiting caller receives: the reply frame's
// undecoded body in a pooled buffer, or why there will be none.
type ctlReply struct {
	body *[]byte
	err  error
}

// ctlPipe is one live connection of a ctlConn.
type ctlPipe struct {
	conn net.Conn
	// wmu makes "join the FIFO, then write" one step, so the FIFO's order
	// is the order the requests reach the daemon.
	wmu sync.Mutex
	// pmu guards the FIFO separately, so the reader never waits behind a
	// writer stalled on a full socket.
	pmu sync.Mutex
	// fifo holds the callers awaiting a reply, oldest first; a nil entry
	// is a duplicate copy's slot, whose reply is read and discarded.
	fifo []chan ctlReply
	dead error // why the pipe was torn down; once set the FIFO stays empty
}

// A failed round trip's error tells its caller what happened, through
// errors.Is: errCtlTimeout, its own reply did not come in time;
// errCtlTornDown, the connection failed under it (a neighbour's timeout,
// a read error, an undecodable reply, close); errCtlClosed, close() came
// first. Any other error is a failed dial or write.
var (
	errCtlClosed   = errors.New("control connection is closed")
	errCtlTimeout  = errors.New("no reply in time")
	errCtlTornDown = errors.New("torn down")
)

// roundTrip sends one control frame and returns its reply, or fails
// within about timeout (a dial, when one is needed, is given the same
// allowance first).
func (c *ctlConn) roundTrip(env *envelope, timeout time.Duration) (*envelope, error) {
	f, err := encodeFrame(env)
	if err != nil {
		return nil, err
	}
	defer f.release()
	return c.roundTripFrame(f.bytes(), 0, timeout)
}

// roundTripFrame is roundTrip on an already-encoded frame, which a hop's
// sender keeps across its retries. extra duplicate copies of the frame —
// the fault plan's Dup — follow it back to back, each taking a FIFO slot
// whose reply is discarded; the caller gets the first copy's reply.
func (c *ctlConn) roundTripFrame(frame []byte, extra int, timeout time.Duration) (*envelope, error) {
	if c.met != nil {
		start := time.Now()
		c.met.ctlInflight.Add(1)
		defer func() {
			c.met.ctlInflight.Add(-1)
			c.met.ctlRoundTrip.Observe(time.Since(start).Microseconds())
		}()
	}
	p, err := c.pipe(timeout)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	ch := make(chan ctlReply, 1)
	if err := p.send(frame, extra, ch, deadline); err != nil {
		c.drop(p, err)
		return nil, err
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		reply, err := decodeBody(*r.body)
		putBodyBuf(r.body)
		if err != nil {
			return nil, c.drop(p, err)
		}
		return reply, nil
	case <-timer.C:
		// The neighbours fail with the teardown, not with this timeout.
		c.drop(p, fmt.Errorf("a caller waited %v for its reply", timeout))
		return nil, fmt.Errorf("wire: no reply from %s within %v: %w", c.addr, timeout, errCtlTimeout)
	}
}

// pipe returns the live connection, dialing when there is none. One
// caller dials, outside c.mu; callers arriving while that dial is in
// flight wait for it, within their own timeout, and adopt its pipe or
// fail with its error — so a cold connection under a burst is dialed
// once, not once per caller.
func (c *ctlConn) pipe(timeout time.Duration) (*ctlPipe, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: %w", c.addr, errCtlClosed)
	}
	if p := c.cur; p != nil {
		c.mu.Unlock()
		return p, nil
	}
	if d := c.dialing; d != nil {
		c.mu.Unlock()
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-d.done:
			return d.p, d.err
		case <-timer.C:
			return nil, fmt.Errorf("wire: dial %s: no connection within %v", c.addr, timeout)
		}
	}
	d := &ctlDial{done: make(chan struct{})}
	c.dialing = d
	c.mu.Unlock()

	if c.dials != nil {
		c.dials.Inc()
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(d.done)
	c.dialing = nil
	switch {
	case err != nil:
		d.err = err
	case c.closed:
		conn.Close()
		d.err = fmt.Errorf("wire: %s: %w", c.addr, errCtlClosed)
	default:
		d.p = &ctlPipe{conn: conn}
		c.cur = d.p
		// Registered under the lock that close() sets closed under, so its
		// Wait cannot miss this reader.
		c.readers.Add(1)
		go c.read(d.p)
	}
	return d.p, d.err
}

// send queues ch for the next unclaimed reply, and a discard slot for
// each of the extra copies, and writes the request 1+extra times.
func (p *ctlPipe) send(frame []byte, extra int, ch chan ctlReply, deadline time.Time) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.pmu.Lock()
	if err := p.dead; err != nil {
		p.pmu.Unlock()
		return err
	}
	p.fifo = append(p.fifo, ch)
	for i := 0; i < extra; i++ {
		p.fifo = append(p.fifo, nil)
	}
	p.pmu.Unlock()
	if err := p.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	for i := 0; i <= extra; i++ {
		//lint:ignore lockorder wmu exists so that FIFO order is wire order, which holding it across the write IS; the write is deadline-bounded, and a contender stalls only on its own peer's connection.
		if _, err := p.conn.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// read is the pipe's reader goroutine: every frame goes to the oldest
// waiting caller, undecoded, so the reader is back on the socket while
// the caller decodes. It exits when the connection fails or is closed.
func (c *ctlConn) read(p *ctlPipe) {
	defer c.readers.Done()
	r := bufio.NewReader(p.conn)
	for {
		body, err := readFrameBody(r)
		if err != nil {
			c.drop(p, err)
			return
		}
		p.pmu.Lock()
		waiting := len(p.fifo)
		var ch chan ctlReply
		if waiting > 0 {
			ch, p.fifo = p.fifo[0], p.fifo[1:]
		}
		p.pmu.Unlock()
		switch {
		case waiting == 0:
			putBodyBuf(body)
			c.drop(p, fmt.Errorf("wire: unsolicited frame from %s", c.addr))
			return
		case ch == nil: // a duplicate copy's reply
			putBodyBuf(body)
		default:
			ch <- ctlReply{body: body} // buffered, and handed to exactly once
		}
	}
}

// drop retires p as the live connection (the next round trip redials)
// and fails every caller in flight on it. It is idempotent, and returns
// the error those callers were failed with.
func (c *ctlConn) drop(p *ctlPipe, err error) error {
	c.mu.Lock()
	if c.cur == p {
		c.cur = nil
	}
	c.mu.Unlock()
	p.pmu.Lock()
	if p.dead != nil {
		p.pmu.Unlock()
		return p.dead
	}
	dead := fmt.Errorf("wire: control connection to %s %w: %w", c.addr, errCtlTornDown, err)
	waiting := p.fifo
	p.dead, p.fifo = dead, nil
	p.pmu.Unlock()
	p.conn.Close() // unblocks the reader
	for _, ch := range waiting {
		if ch != nil {
			ch <- ctlReply{err: dead}
		}
	}
	return dead
}

// close tears the connection down for good and returns once its reader
// goroutine (and any retired connection's) has exited.
func (c *ctlConn) close() {
	c.mu.Lock()
	c.closed = true
	p := c.cur
	c.mu.Unlock()
	if p != nil {
		c.drop(p, errCtlClosed)
	}
	c.readers.Wait()
}

// NewCluster starts n daemons listening on ephemeral loopback ports — a
// plain cluster with no fault injection and no recovery.
func NewCluster(n int) (*Cluster, error) { return NewClusterOpts(n, Options{}) }

// NewClusterOpts starts a cluster with an explicit chaos configuration.
func NewClusterOpts(n int, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wire: cluster size %d must be positive", n)
	}
	if opts.Fault != nil {
		for _, k := range opts.Fault.Kills {
			if k.Node < 0 || k.Node >= n {
				return nil, fmt.Errorf("wire: fault plan kills node %d of %d", k.Node, n)
			}
		}
	}
	// Bind every port first: the static peer list must be complete before
	// any daemon starts.
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range listeners[:i] {
				ln.Close()
			}
			return nil, fmt.Errorf("wire: listen: %w", err)
		}
		listeners[i], peers[i] = ln, ln.Addr().String()
	}
	// The hosts and the client share one error channel, one trace clock
	// and one metric registry, so the cluster reports as a unit.
	cl := &Cluster{}
	errs := make(chan error, n)
	sink := &traceSink{tracer: opts.Tracer, epoch: time.Now()}
	reg := metrics.NewRegistry()
	met := newWireMetrics(reg)
	for i, ln := range listeners {
		h := &Host{ID: i, Addr: peers[i], node: newNodeState(i, met, dedupRetain),
			members: newMembership(peers), opts: opts, reg: reg, errs: errs, sink: sink}
		h.serve(ln) // a fresh node has nothing to replay, so nothing to fail
		cl.hosts = append(cl.hosts, h)
	}
	rc, err := newRemoteCluster(peers, reg)
	if err != nil {
		cl.Close()
		return nil, err
	}
	rc.errs = errs
	cl.RemoteCluster = rc
	if opts.Fault != nil && len(opts.Fault.Kills) > 0 {
		rc.down = cl.restart
		rc.startProber()
	}
	return cl, nil
}

// JobsTracked reports how many job namespaces currently hold counter
// state on any node — the figure bounded by ReleaseJob.
func (cl *Cluster) JobsTracked() int {
	total := 0
	for _, h := range cl.hosts {
		total += h.node.jobsTracked()
	}
	return total
}

// restart is the prober's down hook: it terminates node i's daemon
// incarnation (idempotent, so racing an injected kill is harmless), keeps
// it down for the plan's restart delay, then rebinds the node's address
// and serves a fresh incarnation from the host's node state, which
// replays every checkpointed agent. Stopping the prober abandons the wait.
func (cl *Cluster) restart(i int) {
	h := cl.hosts[i]
	h.incarnation().terminate()
	select {
	case <-time.After(secondsToDuration(h.opts.Fault.RestartDelayOrDefault())):
	case <-cl.hbStop:
		return
	}
	ln, err := listenReuse(h.Addr)
	if err == nil {
		var replayed int
		if replayed, err = h.serve(ln); err == nil {
			h.sink.record(trace.TraceRecover, 0, "", i, i, 0, fmt.Sprintf("%d agents replayed", replayed))
			return
		}
	}
	select {
	case h.errs <- fmt.Errorf("wire: restart daemon %d: %w", i, err):
	default:
	}
}

// Close shuts every daemon down and releases the sockets. It is
// idempotent and safe to call from any number of goroutines
// concurrently (a server's signal handler racing its main path, say):
// the first caller performs the shutdown, every later or concurrent
// caller returns after it has begun.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		// Best-effort protocol shutdown over the control connections (which
		// stops the prober first, so no restart races the teardown), then
		// terminate in-process (covers daemons with broken control links).
		if cl.RemoteCluster != nil {
			cl.Shutdown()
		}
		for _, h := range cl.hosts {
			h.Close()
		}
	})
}

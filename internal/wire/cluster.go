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
	"repro/internal/navp"
)

// Options configures a cluster's fault-tolerance layer. The zero value
// gives a plain, fault-free cluster with conservative timeouts — the
// behavior of NewCluster.
type Options struct {
	// Fault injects a deterministic chaos plan into every hop send:
	// drops, duplicates, delays, and daemon kills. Nil injects nothing.
	Fault *fault.Plan
	// Recover enables heartbeat failure detection and automatic daemon
	// restart with checkpoint replay. It is implied when Fault schedules
	// kills; without it a dead daemon stays dead.
	Recover bool
	// AckTimeout is how long a sender waits for a hop acknowledgement
	// before retrying (default 500ms).
	AckTimeout time.Duration
	// RetryBackoff is the initial resend backoff, doubling per attempt up
	// to MaxRetryBackoff (defaults 5ms and 250ms).
	RetryBackoff, MaxRetryBackoff time.Duration
	// HeartbeatInterval is the monitor's ping period (default 25ms).
	HeartbeatInterval time.Duration
	// RestartDelay is how long a dead daemon stays down before the
	// monitor restarts it (default: the fault plan's RestartDelay, or
	// 50ms without a plan).
	RestartDelay time.Duration
	// Tracer, if non-nil, receives hop/drop/retry/kill/recover events
	// with wall-clock timestamps in seconds since cluster start (it
	// must be safe for concurrent use; internal/trace.Recorder is).
	Tracer navp.Tracer
	// Metrics, if non-nil, receives the runtime's counters, gauges, and
	// histograms (see metrics.go for the names). Nil creates a private
	// registry, readable via Cluster.Metrics — instrumentation is always
	// on; it costs one atomic op per event.
	Metrics *metrics.Registry
	// DedupRetain is the per-node high-water mark for retired dedup
	// entries: how many (agent, hop) pairs a node keeps after their
	// checkpoints retire before evicting the oldest (default 1024).
	DedupRetain int
	// DrainTimeout bounds a msgDrain evacuation: how long a draining
	// daemon waits for its resident agents to ship out before giving up
	// (default 10s; a msgDrain frame can override per request).
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&o.AckTimeout, 500*time.Millisecond)
	def(&o.RetryBackoff, 5*time.Millisecond)
	def(&o.MaxRetryBackoff, 250*time.Millisecond)
	def(&o.HeartbeatInterval, 25*time.Millisecond)
	def(&o.DrainTimeout, 10*time.Second)
	if o.RestartDelay <= 0 {
		if o.Fault != nil {
			o.RestartDelay = secondsToDuration(o.Fault.RestartDelayOrDefault())
		} else {
			o.RestartDelay = 50 * time.Millisecond
		}
	}
	if o.Fault != nil && len(o.Fault.Kills) > 0 {
		o.Recover = true
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	if o.DedupRetain <= 0 {
		o.DedupRetain = 1024
	}
	return o
}

// traceSink stamps wire runtime events with wall-clock seconds since
// cluster start and forwards them to the configured tracer.
type traceSink struct {
	tracer navp.Tracer
	epoch  time.Time
}

func (ts *traceSink) record(kind navp.TraceKind, job uint64, agent string, from, to int, bytes int64, label string) {
	if ts == nil || ts.tracer == nil {
		return
	}
	now := time.Since(ts.epoch).Seconds()
	ts.tracer.Record(navp.TraceEvent{Kind: kind, Job: job, Agent: agent, From: from, To: to,
		Label: label, Bytes: bytes, Start: now, End: now})
}

// Cluster is n Hosts in one address space on loopback TCP, driven through
// the same RemoteCluster client — and therefore the same control frames,
// the same termination detector, the same cancellation re-delivery — as a
// cluster of daemon processes. What it adds is only what is genuinely
// in-process: constructing the hosts on pre-bound ports, supervising them
// under a fault plan (restart a killed daemon on its surviving node state,
// the way an operator respawns a crashed process), and surfacing the
// daemons' asynchronous errors to whoever is waiting on the cluster.
type Cluster struct {
	*RemoteCluster
	opts  Options
	hosts []*Host

	closeOnce   sync.Once
	monitorStop chan struct{}
	monitorDone chan struct{}
}

// ctlConn is a lazily redialed, pipelined control connection to one
// daemon: any number of callers have a round trip in flight on it at
// once. A caller writes its request frame and then waits for the reply
// on a channel of its own; one reader goroutine per live connection
// hands each frame it reads to the oldest caller still waiting.
//
// Matching replies to requests by position needs no request id because
// of the daemon's side of the contract: daemon.handle serves one inbound
// connection with a sequential loop that writes exactly one reply per
// request, in arrival order. (msgShutdown is answered by closing the
// connection, which is the failure path below and ends the sequence.)
//
// Any read or write error, an undecodable reply, or one caller's timeout
// tears the connection down and fails every round trip in flight on it —
// after a lost reply the positions no longer line up, so no neighbour's
// reply can be trusted. The next round trip redials, reaching the
// daemon's current incarnation after a restart. An explicit close() is
// terminal instead: a round trip racing or following it fails and never
// redials. The zero value with addr set is ready to use.
type ctlConn struct {
	addr string
	met  *wireMetrics // nil on the one-shot connections, which report nothing

	mu      sync.Mutex // guards cur and closed; never held across I/O
	cur     *ctlPipe
	closed  bool
	readers sync.WaitGroup // the reader goroutines close() waits for
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
	pmu  sync.Mutex
	fifo []chan ctlReply // callers awaiting a reply, oldest first
	dead error           // why the pipe was torn down; once set the FIFO stays empty
}

var errCtlClosed = errors.New("control connection is closed")

// roundTrip sends one control frame and returns its reply, or fails
// within about timeout (a dial, when one is needed, is given the same
// allowance first).
func (c *ctlConn) roundTrip(env *envelope, timeout time.Duration) (*envelope, error) {
	f, err := encodeFrame(env)
	if err != nil {
		return nil, err
	}
	defer f.release()
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
	if err := p.send(f.bytes(), ch, deadline); err != nil {
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
			c.drop(p, err)
		}
		return reply, err
	case <-timer.C:
		err := fmt.Errorf("wire: no reply from %s within %v", c.addr, timeout)
		c.drop(p, err)
		return nil, err
	}
}

// pipe returns the live connection, dialing when there is none. The dial
// happens outside c.mu (as in daemon.link): concurrent callers may both
// dial, and the loser closes its connection and adopts the winner's.
func (c *ctlConn) pipe(timeout time.Duration) (*ctlPipe, error) {
	c.mu.Lock()
	p, closed := c.cur, c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("wire: %s: %w", c.addr, errCtlClosed)
	}
	if p != nil {
		return p, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, fmt.Errorf("wire: %s: %w", c.addr, errCtlClosed)
	}
	if c.cur != nil {
		conn.Close()
		return c.cur, nil
	}
	p = &ctlPipe{conn: conn}
	c.cur = p
	// Registered under the lock that close() sets closed under, so its
	// Wait cannot miss this reader.
	c.readers.Add(1)
	go c.read(p)
	return p, nil
}

// send queues ch for the next unclaimed reply and writes the request.
func (p *ctlPipe) send(frame []byte, ch chan ctlReply, deadline time.Time) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.pmu.Lock()
	if err := p.dead; err != nil {
		p.pmu.Unlock()
		return err
	}
	p.fifo = append(p.fifo, ch)
	p.pmu.Unlock()
	if err := p.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	//lint:ignore lockorder wmu exists so that FIFO order is wire order, which holding it across the write IS (the link.writeFrame invariant); the write is deadline-bounded, and a contender stalls only on its own daemon's control channel.
	_, err := p.conn.Write(frame)
	return err
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
		var ch chan ctlReply
		if len(p.fifo) > 0 {
			ch, p.fifo = p.fifo[0], p.fifo[1:]
		}
		p.pmu.Unlock()
		if ch == nil {
			putBodyBuf(body)
			c.drop(p, fmt.Errorf("wire: unsolicited frame from %s", c.addr))
			return
		}
		ch <- ctlReply{body: body} // buffered, and handed to exactly once
	}
}

// drop retires p as the live connection (the next round trip redials)
// and fails every caller in flight on it. It is idempotent.
func (c *ctlConn) drop(p *ctlPipe, err error) {
	c.mu.Lock()
	if c.cur == p {
		c.cur = nil
	}
	c.mu.Unlock()
	p.pmu.Lock()
	if p.dead != nil {
		p.pmu.Unlock()
		return
	}
	dead := fmt.Errorf("wire: control connection to %s torn down: %w", c.addr, err)
	waiting := p.fifo
	p.dead, p.fifo = dead, nil
	p.pmu.Unlock()
	p.conn.Close() // unblocks the reader
	for _, ch := range waiting {
		ch <- ctlReply{err: dead}
	}
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

// NewClusterOpts starts a cluster with an explicit fault-tolerance
// configuration.
func NewClusterOpts(n int, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wire: cluster size %d must be positive", n)
	}
	opts = opts.withDefaults()
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
	// The hosts share one error channel, one trace clock and one set of
	// metric handles, so the cluster reports as a unit.
	cl := &Cluster{opts: opts}
	errs := make(chan error, n)
	sink := &traceSink{tracer: opts.Tracer, epoch: time.Now()}
	met := newWireMetrics(opts.Metrics)
	for i, ln := range listeners {
		h := &Host{ID: i, Addr: peers[i], node: newNodeState(i, met, opts.DedupRetain),
			members: newMembership(peers), opts: opts, errs: errs, sink: sink}
		h.serve(ln) // a fresh node has nothing to replay, so nothing to fail
		cl.hosts = append(cl.hosts, h)
	}
	// The control round-trip timeout stays the client's generous default,
	// not the hop AckTimeout a chaos test shortens: a killed daemon refuses
	// the dial at once either way, and a loaded one deserves the patience.
	rc, err := StaticCluster(peers, RemoteOptions{
		Metrics: opts.Metrics, Heartbeat: opts.Recover, HeartbeatInterval: opts.HeartbeatInterval,
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	rc.errs = errs
	cl.RemoteCluster = rc
	if opts.Recover {
		cl.monitorStop = make(chan struct{})
		cl.monitorDone = make(chan struct{})
		go cl.monitor()
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

// monitor is the fault plan's supervisor: ping every daemon each
// interval and restart the dead ones on their surviving node state.
func (cl *Cluster) monitor() {
	defer close(cl.monitorDone)
	tick := time.NewTicker(cl.opts.HeartbeatInterval)
	defer tick.Stop()
	hb := make([]*ctlConn, len(cl.hosts))
	for i, h := range cl.hosts {
		hb[i] = &ctlConn{addr: h.Addr}
	}
	defer func() {
		for _, c := range hb {
			c.close()
		}
	}()
	for {
		select {
		case <-cl.monitorStop:
			return
		case <-tick.C:
		}
		for i := range cl.hosts {
			select {
			case <-cl.monitorStop:
				return
			default:
			}
			d := cl.hosts[i].incarnation()
			if !d.dead.Load() {
				if reply, err := hb[i].roundTrip(&envelope{Kind: msgPing}, cl.opts.HeartbeatInterval*4); err == nil && reply.Kind == msgPong {
					continue
				}
				// Unreachable: declare it dead. (terminate is idempotent,
				// so racing an in-progress kill is harmless.)
				d.terminate()
			}
			cl.restart(i)
		}
	}
}

// restart brings node i's daemon back after RestartDelay: rebind the
// node's address and serve a fresh incarnation from the host's node
// state, which replays every checkpointed agent.
func (cl *Cluster) restart(i int) {
	select {
	case <-time.After(cl.opts.RestartDelay):
	case <-cl.monitorStop:
		return
	}
	h := cl.hosts[i]
	ln, err := listenReuse(h.Addr)
	if err == nil {
		var replayed int
		if replayed, err = h.serve(ln); err == nil {
			h.sink.record(navp.TraceRecover, 0, "", i, i, 0, fmt.Sprintf("%d agents replayed", replayed))
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
		// The supervisor first, so no restart races the teardown.
		if cl.monitorStop != nil {
			close(cl.monitorStop)
			<-cl.monitorDone
		}
		// Best-effort protocol shutdown over the control connections, then
		// terminate in-process (covers daemons with broken control links).
		if cl.RemoteCluster != nil {
			cl.Shutdown()
		}
		for _, h := range cl.hosts {
			h.Close()
		}
	})
}

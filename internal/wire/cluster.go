package wire

import (
	"bufio"
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

// ctlConn is the coordinator's lazily redialed connection to one
// daemon. The mutex serializes round trips: with a scheduler on top,
// Wait and any number of concurrent WaitJob pollers share these
// connections.
type ctlConn struct {
	mu     sync.Mutex
	addr   string
	conn   net.Conn
	r      *bufio.Reader
	closed bool
}

// roundTrip sends one control frame and reads the reply. Any failure
// closes the connection so the next call redials (reaching the daemon's
// current incarnation after a restart) — except an explicit close(),
// which is terminal: a round trip racing or following Close must fail,
// not resurrect the connection.
func (c *ctlConn) roundTrip(env *envelope, timeout time.Duration) (*envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("wire: control connection to %s is closed", c.addr)
	}
	if c.conn == nil {
		//lint:ignore lockorder c.mu exists to serialize whole round trips on this one connection, dial included; every wait under it is deadline-bounded, and a contender stalls only on its own daemon's control channel.
		conn, err := net.DialTimeout("tcp", c.addr, timeout)
		if err != nil {
			return nil, err
		}
		c.conn = conn
		c.r = bufio.NewReader(conn)
	}
	fail := func(err error) (*envelope, error) {
		c.conn.Close()
		c.conn, c.r = nil, nil
		return nil, err
	}
	f, err := encodeFrame(env)
	if err != nil {
		return nil, err
	}
	defer f.release()
	deadline := time.Now().Add(timeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		return fail(err)
	}
	//lint:ignore lockorder the write-then-read round trip must be atomic per connection or replies interleave across callers; SetDeadline above bounds both waits.
	if _, err := c.conn.Write(f.bytes()); err != nil {
		return fail(err)
	}
	//lint:ignore lockorder second half of the serialized round trip; deadline-bounded like the write.
	reply, err := readFrame(c.r)
	if err != nil {
		return fail(err)
	}
	c.conn.SetDeadline(time.Time{})
	return reply, nil
}

func (c *ctlConn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
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

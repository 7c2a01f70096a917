package wire

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// A Host is one node's MESSENGERS daemon — normally its own OS process,
// the deployment shape the paper assumes; an in-process Cluster is N of
// them in one address space. The durable half of the node (counters,
// checkpoints, variables, cancellation marks) lives in a state directory
// on the host's disk; the daemon incarnation is disposable, and kill -9
// merely forces the next incarnation to reload snapshot and log and replay
// its checkpointed agents — exactly what the in-process supervisor does
// after an injected kill, minus the reload.
//
// Membership is discovered one of two ways:
//
//   - Static: every host is handed the same seed list (ParseSeeds) and
//     its own index in it. Identity is positional and permanent.
//   - Join: a host dials any live member with msgJoin carrying its
//     advertised address and is assigned the next index. Assignment is
//     serialized through node 0 (non-zero members forward the join), so
//     concurrent joins through different members cannot collide on an
//     index; node 0 broadcasts the grown list. Rejoining with the same
//     address reclaims the same index, which is what keeps checkpointed
//     destinations meaningful across restarts.

// HostConfig configures one daemon process.
type HostConfig struct {
	// Listen is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// port).
	Listen string
	// Advertise is the address peers dial; defaults to the bound listen
	// address (correct on one machine; multi-machine deployments set it).
	Advertise string
	// Peers is the full static seed list; Node is this host's index in
	// it. Mutually exclusive with Join.
	Peers []string
	Node  int
	// Join is the address of any live member to join through. The host's
	// node id is assigned by the cluster.
	Join string
	// StateDir is where the node persists its snapshot and log (one
	// daemon per directory; a second is refused); empty disables
	// persistence (a kill then loses the node, which only tests want).
	StateDir string
	// Options carries the wire runtime knobs (timeouts, metrics, fault
	// plan). The zero value gets the same defaults as NewCluster.
	Options Options
}

// Host is one node's handle: the durable node state plus the daemon
// incarnation currently serving it. A process host has exactly one
// incarnation for its lifetime; an in-process Cluster's supervisor
// starts a fresh one on the same node state after each injected kill.
type Host struct {
	ID   int
	Addr string

	node    *nodeState
	members *membership
	opts    Options
	errs    chan error
	sink    *traceSink

	mu     sync.Mutex
	daemon *daemon // current incarnation
}

// StartHost binds the listener, resolves membership (static or join),
// reloads any persisted node state, starts serving, and replays
// checkpointed agents. The returned handle outlives nothing: when the
// process dies, only the state directory remains.
func StartHost(cfg HostConfig) (*Host, error) {
	if cfg.Join != "" && len(cfg.Peers) > 0 {
		return nil, fmt.Errorf("wire: host config has both a join target and a static peer list")
	}
	opts := cfg.Options.withDefaults()
	ln, err := listenReuse(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: host listen %s: %w", cfg.Listen, err)
	}
	fail := func(err error) (*Host, error) {
		ln.Close()
		return nil, err
	}
	addr := cfg.Advertise
	if addr == "" {
		addr = ln.Addr().String()
	}
	if err := validateAddr(addr); err != nil {
		return fail(err)
	}

	var members *membership
	id := cfg.Node
	switch {
	case cfg.Join != "":
		id, members, err = joinCluster(cfg.Join, addr, opts.AckTimeout)
		if err != nil {
			return fail(err)
		}
	case len(cfg.Peers) > 0:
		if err := validateMembers(cfg.Peers); err != nil {
			return fail(err)
		}
		if id < 0 || id >= len(cfg.Peers) {
			return fail(fmt.Errorf("wire: host node %d not in a seed list of %d", id, len(cfg.Peers)))
		}
		members = newMembership(cfg.Peers)
	default:
		// Bootstrap: the first host of a cluster starts as its sole
		// member (node 0); everyone else joins through it.
		id = 0
		members = newMembership([]string{addr})
	}

	node := newNodeState(id, newWireMetrics(opts.Metrics), opts.DedupRetain)
	if cfg.StateDir != "" {
		if _, err := newPersister(cfg.StateDir, node); err != nil {
			return fail(err)
		}
	}

	h := &Host{ID: id, Addr: addr, node: node, members: members, opts: opts,
		errs: make(chan error, 16), sink: &traceSink{tracer: opts.Tracer, epoch: time.Now()}}
	if _, err := h.serve(ln); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// serve starts a fresh daemon incarnation on ln over the host's node
// state and replays every checkpointed agent from its last completed
// hop — the recovery half of application-initiated checkpointing,
// whether the previous incarnation died with its process (the node
// state was just reloaded from disk) or was killed in-process by a
// fault plan (the node state never left memory). It returns how many
// agents it replayed.
func (h *Host) serve(ln net.Listener) (int, error) {
	d := newDaemon(h.ID, h.members, ln, h.node, &h.opts, h.errs, h.sink)
	h.mu.Lock()
	h.daemon = d
	h.mu.Unlock()
	go d.serve()
	msgs, err := h.node.replayMessages()
	if err != nil {
		return 0, err
	}
	for _, msg := range msgs {
		d.startStep(msg, true)
	}
	// A drain interrupted by the death resumes where its durable flags
	// left it: still-draining replayed agents evacuate themselves
	// through the dispatch prologue above, and the background drain
	// drives the evacuated → absorb → drained tail. An already-drained
	// image comes back as a tombstone shell (the evacuated flag makes
	// accept refuse) and just re-announces its departure.
	if h.node.isDraining() && !h.node.isDrained() {
		go func() {
			if err := d.drain(h.opts.DrainTimeout); err != nil {
				d.fail(err)
			}
		}()
	} else if h.node.isDrained() {
		d.broadcast(&envelope{Kind: msgLeave, Node: d.id})
	}
	return len(msgs), nil
}

// incarnation returns the daemon currently serving the node.
func (h *Host) incarnation() *daemon {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.daemon
}

// joinCluster performs the join handshake against any live member.
func joinCluster(target, addr string, timeout time.Duration) (int, *membership, error) {
	c := &ctlConn{addr: target}
	defer c.close()
	reply, err := c.roundTrip(&envelope{Kind: msgJoin, Addr: addr}, timeout)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: join %s: %w", target, err)
	}
	switch reply.Kind {
	case msgMembers:
		if reply.You < 0 || reply.You >= len(reply.Members) {
			return 0, nil, fmt.Errorf("wire: join %s assigned id %d of %d", target, reply.You, len(reply.Members))
		}
		return reply.You, newMembership(reply.Members), nil
	case msgOK:
		return 0, nil, fmt.Errorf("wire: join %s refused: %s", target, reply.Err)
	default:
		return 0, nil, fmt.Errorf("wire: join %s: unexpected %s reply", target, reply.Kind)
	}
}

// listenReuse binds a TCP listener. A respawned host rebinding its old
// address can race the kernel's release of the dead process's socket,
// so non-ephemeral binds retry briefly.
func listenReuse(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err == nil || strings.HasSuffix(addr, ":0") {
		return ln, err
	}
	for attempt := 0; attempt < 400; attempt++ {
		time.Sleep(5 * time.Millisecond)
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
	}
	return nil, err
}

// WaitShutdown blocks until the daemon terminates (msgShutdown, kill)
// or fails, returning the failure.
func (h *Host) WaitShutdown() error {
	select {
	case <-h.incarnation().stopped:
		return nil
	case err := <-h.errs:
		return err
	}
}

// Metrics exposes the host's metric registry.
func (h *Host) Metrics() *metrics.Registry { return h.opts.Metrics }

// Close terminates the daemon incarnation and releases the state
// directory (its log descriptor and lock), so the node's next
// incarnation — in this process or another — can claim it. The state
// directory — the node — survives.
func (h *Host) Close() {
	h.incarnation().terminate()
	h.node.persist.close()
}

// Environment-variable configuration for re-exec'd host processes. A
// parent (paperbench, a test binary) sets HostModeEnv and spawns its own
// executable; the child detects the marker first thing in main (or
// TestMain) and becomes a daemon instead of a benchmark or test run.
const (
	HostModeEnv = "NAVP_HOST_MODE" // "1" switches the process into host mode
	hostEnvList = "NAVP_HOST_LISTEN"
	hostEnvAdv  = "NAVP_HOST_ADVERTISE"
	hostEnvNode = "NAVP_HOST_NODE"
	hostEnvSeed = "NAVP_HOST_PEERS"
	hostEnvJoin = "NAVP_HOST_JOIN"
	hostEnvDir  = "NAVP_HOST_STATE"
)

// hostAnnouncePrefix starts the one line a host-mode process prints on
// stdout once it serves; parents scan for it to learn the bound address.
const hostAnnouncePrefix = "NAVPHOST "

// HostEnv renders a config as the environment entries SpawnHost passes
// to a child process.
func HostEnv(cfg HostConfig) []string {
	env := []string{
		HostModeEnv + "=1",
		hostEnvList + "=" + cfg.Listen,
	}
	if cfg.Advertise != "" {
		env = append(env, hostEnvAdv+"="+cfg.Advertise)
	}
	if len(cfg.Peers) > 0 {
		env = append(env,
			hostEnvSeed+"="+strings.Join(cfg.Peers, ","),
			hostEnvNode+"="+strconv.Itoa(cfg.Node))
	}
	if cfg.Join != "" {
		env = append(env, hostEnvJoin+"="+cfg.Join)
	}
	if cfg.StateDir != "" {
		env = append(env, hostEnvDir+"="+cfg.StateDir)
	}
	return env
}

// HostMode reports whether this process was spawned as a daemon host.
func HostMode() bool { return os.Getenv(HostModeEnv) == "1" }

// RunHostFromEnv builds a HostConfig from the environment, runs the
// daemon, prints the announce line, and blocks until shutdown. It is the
// entire main() of a re-exec'd host process; the exit code is 0 on
// graceful shutdown and 1 on failure.
func RunHostFromEnv() int {
	cfg := HostConfig{
		Listen:    os.Getenv(hostEnvList),
		Advertise: os.Getenv(hostEnvAdv),
		Join:      os.Getenv(hostEnvJoin),
		StateDir:  os.Getenv(hostEnvDir),
	}
	if s := os.Getenv(hostEnvSeed); s != "" {
		peers, err := ParseSeeds(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.Peers = peers
		n, err := strconv.Atoi(os.Getenv(hostEnvNode))
		if err != nil {
			fmt.Fprintf(os.Stderr, "wire: bad %s: %v\n", hostEnvNode, err)
			return 1
		}
		cfg.Node = n
	}
	h, err := StartHost(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%snode=%d addr=%s\n", hostAnnouncePrefix, h.ID, h.Addr)
	os.Stdout.Sync()
	if err := h.WaitShutdown(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

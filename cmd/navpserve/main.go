// Command navpserve is the NavP serving stack. It runs in three modes:
//
// In-process (the default): a wire cluster, the multi-tenant job
// scheduler, and the HTTP serving API in one process.
//
//	navpserve                                  # 4 PEs, :8080
//	navpserve -nodes 8 -workers 16 -queue 128
//	navpserve -fault 'seed=7,drop=0.02,kill=1@100'   # serve under chaos
//
// Daemon (-daemon): one node's MESSENGERS daemon as its own OS process,
// persisting to a state directory and discovered by its peers through a
// static seed list or by joining any live member:
//
//	navpserve -daemon -listen 127.0.0.1:9000 -state /var/lib/navp/n0
//	navpserve -daemon -listen 127.0.0.1:9001 -state /var/lib/navp/n1 \
//	          -join 127.0.0.1:9000
//	navpserve -daemon -listen 127.0.0.1:9001 -seeds @cluster.seeds -node 1
//
// Front-end (-connect or -seeds without -daemon): the scheduler and
// HTTP API in this process, jobs executing across the remote daemons:
//
//	navpserve -connect 127.0.0.1:9000          # discover members via one
//	navpserve -seeds @cluster.seeds            # or take the static list
//
// Elastic operations (see DESIGN.md §16): a daemon started with -join
// becomes placeable after POST /cluster/refresh on the front-end, and
//
//	navpserve -drain 2 -connect 127.0.0.1:9000            # shrink: evacuate node 2
//	navpserve -drain 2 -drain-stop -seeds @cluster.seeds  # ...and stop its process
//
// evacuates a member through live agent migration before it leaves.
//
// The API (see DESIGN.md §12-13, §16 and the README's Serving section):
//
//	POST /jobs                submit a job (JSON body)
//	GET  /jobs                list retained jobs
//	GET  /jobs/{id}           job status
//	GET  /jobs/{id}/result    result, exactly once
//	POST /jobs/{id}/cancel    cancel/evict
//	POST /jobs/{id}/suspend   preempt: checkpoint agents, release worker
//	POST /jobs/{id}/resume    requeue a suspended job
//	GET  /cluster/nodes       placeable (live, undrained) node set
//	POST /cluster/drain       ?node=N[&timeout_ms=M] evacuate a member
//	POST /cluster/refresh     adopt daemons that joined mid-run
//	GET  /metrics             wire.* + sched.* registry snapshot
//	     /debug/pprof/...     pprof
//
// SIGINT/SIGTERM drain gracefully: admission stops, queued jobs are
// evicted, running jobs finish, then the cluster shuts down.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/wire"
)

func main() {
	// In-process and front-end serving.
	nodes := flag.Int("nodes", 4, "cluster size (PEs), in-process mode")
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	workers := flag.Int("workers", 8, "concurrent jobs")
	queue := flag.Int("queue", 64, "admission queue depth (backpressure beyond it)")
	chaos := flag.String("fault", "", "fault plan spec, e.g. 'seed=7,drop=0.02,dup=1,kill=1@100' (in-process mode)")
	connect := flag.String("connect", "", "front-end mode: discover the cluster through one live daemon")

	// Daemon mode and shared membership flags.
	daemon := flag.Bool("daemon", false, "run one daemon host process instead of the serving front-end")
	listen := flag.String("listen", "127.0.0.1:9000", "daemon TCP listen address")
	advertise := flag.String("advertise", "", "address peers dial (defaults to the bound listen address)")
	join := flag.String("join", "", "daemon mode: address of any live member to join through")
	seeds := flag.String("seeds", "", "static seed list: comma-separated addresses, or @file (one per line)")
	node := flag.Int("node", 0, "this daemon's index in the static seed list")
	state := flag.String("state", "", "daemon state directory (empty disables persistence)")

	// Operator commands against a live cluster.
	drain := flag.Int("drain", -1, "drain this node (evacuate its agents to the survivors, absorb its counters, leave the membership), then exit; needs -connect or -seeds")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "evacuation deadline for -drain")
	drainStop := flag.Bool("drain-stop", false, "with -drain: also ask the drained daemon's process to exit")
	flag.Parse()

	var err error
	switch {
	case *chaos != "" && (*drain >= 0 || *daemon || *connect != "" || *seeds != ""):
		err = fmt.Errorf("navpserve: -fault applies only to in-process mode")
	case *drain >= 0:
		err = runDrain(*connect, *seeds, *drain, *drainTimeout, *drainStop)
	case *daemon:
		err = runDaemon(*listen, *advertise, *join, *seeds, *node, *state)
	case *connect != "" || *seeds != "":
		err = runFrontend(*connect, *seeds, *addr, *workers, *queue)
	default:
		err = runInProcess(*nodes, *addr, *workers, *queue, *chaos)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// loadSeeds resolves the -seeds flag: a literal comma-separated list,
// or @path naming a seed file (one address per line, '#' comments).
func loadSeeds(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	text := spec
	if strings.HasPrefix(spec, "@") {
		b, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("navpserve: seed file: %w", err)
		}
		text = string(b)
	}
	return wire.ParseSeeds(text)
}

// runDaemon is the -daemon mode: one node's daemon process, alive until
// a shutdown frame or a signal.
func runDaemon(listen, advertise, join, seedSpec string, node int, state string) error {
	if join != "" && seedSpec != "" {
		return fmt.Errorf("navpserve: -join and -seeds are mutually exclusive")
	}
	peers, err := loadSeeds(seedSpec)
	if err != nil {
		return err
	}
	h, err := wire.StartHost(wire.HostConfig{
		Listen: listen, Advertise: advertise,
		Join: join, Peers: peers, Node: node,
		StateDir: state,
	})
	if err != nil {
		return err
	}
	fmt.Printf("navpserve: daemon node %d serving on %s (state %q)\n", h.ID, h.Addr, state)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errs := make(chan error, 1)
	go func() { errs <- h.WaitShutdown() }()
	select {
	case sig := <-sigs:
		fmt.Printf("navpserve: daemon node %d: %v — stopping\n", h.ID, sig)
		h.Close()
		<-errs
		return nil
	case err := <-errs:
		return err
	}
}

// dialRemote resolves -connect/-seeds into a remote cluster client.
func dialRemote(connect, seedSpec string, opts wire.RemoteOptions) (*wire.RemoteCluster, error) {
	switch {
	case connect != "" && seedSpec != "":
		return nil, fmt.Errorf("navpserve: -connect and -seeds are mutually exclusive")
	case connect != "":
		return wire.DialCluster(connect, opts)
	case seedSpec != "":
		peers, err := loadSeeds(seedSpec)
		if err != nil {
			return nil, err
		}
		return wire.StaticCluster(peers, opts)
	default:
		return nil, fmt.Errorf("navpserve: need -connect or -seeds to reach the cluster")
	}
}

// runDrain is the -drain operator command: evacuate one member's agents
// into the survivors through live migration, absorb its counter history,
// and remove it from the membership — the elastic shrink step. With
// -drain-stop the drained daemon's process is also asked to exit.
func runDrain(connect, seedSpec string, node int, timeout time.Duration, stop bool) error {
	rc, err := dialRemote(connect, seedSpec, wire.RemoteOptions{})
	if err != nil {
		return err
	}
	defer rc.Close()
	if err := rc.DrainNode(node, timeout); err != nil {
		return fmt.Errorf("navpserve: drain node %d: %w", node, err)
	}
	fmt.Printf("navpserve: node %d drained (%d members remain placeable)\n", node, len(rc.LiveNodes()))
	if stop {
		if err := rc.ShutdownNode(node); err != nil {
			return fmt.Errorf("navpserve: stop drained node %d: %w", node, err)
		}
		fmt.Printf("navpserve: node %d asked to exit\n", node)
	}
	return nil
}

// runFrontend serves HTTP over a cluster of remote daemon processes.
func runFrontend(connect, seedSpec, addr string, workers, queue int) error {
	rc, err := dialRemote(connect, seedSpec, wire.RemoteOptions{Heartbeat: true})
	if err != nil {
		return err
	}
	fmt.Printf("navpserve: front-end over %d daemons (%s)\n", rc.Size(), strings.Join(rc.Members(), " "))
	return serve(rc, rc.Close, addr, workers, queue)
}

// runInProcess is the single-process stack: the daemons are hosts in
// this address space, driven through the same client as remote ones.
func runInProcess(nodes int, addr string, workers, queue int, chaos string) error {
	var plan *fault.Plan
	if chaos != "" {
		var err error
		if plan, err = fault.Parse(chaos); err != nil {
			return err
		}
	}
	cl, err := wire.NewClusterOpts(nodes, wire.Options{Fault: plan})
	if err != nil {
		return err
	}
	fmt.Printf("navpserve: %d in-process PEs\n", nodes)
	if plan != nil {
		fmt.Printf("navpserve: serving under fault plan %v\n", plan)
	}
	return serve(cl, cl.Close, addr, workers, queue)
}

// serve is the front end of both modes: the scheduler and its HTTP API
// over backend, beside the backend registry's /metrics and pprof.
// closeBackend runs on every exit path, after the scheduler has stopped.
func serve(backend sched.Backend, closeBackend func(), addr string, workers, queue int) error {
	defer closeBackend()
	s, err := sched.New(sched.Config{Cluster: backend, Workers: workers, QueueDepth: queue})
	if err != nil {
		return err
	}
	mux := wire.DebugHandler(backend.Metrics())
	sched.NewServer(s).Register(mux)
	fmt.Printf("navpserve: %d workers, queue %d\n", workers, queue)
	return serveHTTP(mux, addr, s.Close)
}

// serveHTTP runs the API listener until a signal or a server error,
// then drains: stop accepting HTTP first, then the caller's teardown
// (the scheduler; the cluster closes after it). Teardowns are
// idempotent, so racing a second signal's impatient operator is safe.
func serveHTTP(mux *http.ServeMux, addr string, drain func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	errs := make(chan error, 1)
	go func() { errs <- srv.Serve(ln) }()
	fmt.Printf("navpserve: listening on http://%s\n", ln.Addr())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Printf("navpserve: %v — draining\n", sig)
	case err := <-errs:
		if err != nil && err != http.ErrServerClosed {
			return err
		}
	}
	srv.Close()
	drain()
	fmt.Println("navpserve: drained")
	return nil
}

package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// scratchRoot is where state directories go: inside the working
// directory, so a run touches nothing outside its checkout.
const scratchRoot = ".bench_build/navpbench"

// cluster is n daemon OS processes (this binary re-executed in host
// mode), their state directories, and a client for them.
type cluster struct {
	dir string
	rc  *wire.RemoteCluster

	mu    sync.Mutex
	procs []*wire.HostProc
}

// janitor knows every live cluster, so that the exits that skip the
// deferred calls — a signal, the workload deadline — still leave no
// daemon and no state directory behind.
var janitor struct {
	mu   sync.Mutex
	live map[*cluster]bool
}

func janitorAdd(c *cluster) {
	janitor.mu.Lock()
	if janitor.live == nil {
		janitor.live = map[*cluster]bool{}
	}
	janitor.live[c] = true
	janitor.mu.Unlock()
}

func janitorDrop(c *cluster) {
	janitor.mu.Lock()
	delete(janitor.live, c)
	janitor.mu.Unlock()
}

// killEverything SIGKILLs every daemon of every live cluster, waits for
// each to be reaped, and removes the state directories.
func killEverything() {
	janitor.mu.Lock()
	var all []*cluster
	for c := range janitor.live {
		all = append(all, c)
	}
	janitor.mu.Unlock()
	for _, c := range all {
		c.kill()
	}
}

// startCluster spawns n daemons with state directories (node 0
// bootstraps on an ephemeral port, the rest join through it) and dials
// them with the liveness prober on.
func startCluster(n int) (*cluster, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	janitorAdd(c)
	for i := 0; i < n; i++ {
		cfg := wire.HostConfig{
			Listen:   "127.0.0.1:0",
			StateDir: filepath.Join(dir, fmt.Sprintf("node%d", i)),
		}
		if i > 0 {
			cfg.Join = c.procs[0].Addr
		}
		p, err := wire.SpawnHost(cfg)
		if err != nil {
			c.kill()
			return nil, fmt.Errorf("spawn daemon %d: %w", i, err)
		}
		c.mu.Lock()
		c.procs = append(c.procs, p)
		c.mu.Unlock()
	}
	rc, err := wire.DialCluster(c.procs[0].Addr, wire.RemoteOptions{Heartbeat: true})
	if err != nil {
		c.kill()
		return nil, err
	}
	c.rc = rc
	if rc.Size() != n {
		c.kill()
		return nil, fmt.Errorf("cluster assembled %d of %d daemons", rc.Size(), n)
	}
	return c, nil
}

// daemons is the current incarnation of every daemon.
func (c *cluster) daemons() []*wire.HostProc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*wire.HostProc(nil), c.procs...)
}

// close shuts the daemons down in order, kills any that linger, and
// removes the state directories.
func (c *cluster) close() {
	if c.rc != nil {
		c.rc.Shutdown()
	}
	for _, p := range c.daemons() {
		if _, exited := p.Wait(2 * time.Second); !exited {
			p.Kill9()
		}
	}
	os.RemoveAll(c.dir)
	janitorDrop(c)
}

// kill is close without the courtesy.
func (c *cluster) kill() {
	for _, p := range c.daemons() {
		p.Kill9()
	}
	if c.rc != nil {
		c.rc.Close()
	}
	os.RemoveAll(c.dir)
	janitorDrop(c)
}

// respawnLast kills the last daemon with SIGKILL, leaves it dead for
// the given window, and respawns it from its state directory; it
// returns how long Respawn took.
func (c *cluster) respawnLast(dead time.Duration) (time.Duration, error) {
	c.mu.Lock()
	last := len(c.procs) - 1
	victim := c.procs[last]
	c.mu.Unlock()
	victim.Kill9()
	time.Sleep(dead)
	start := time.Now()
	p, err := victim.Respawn(c.rc.Members())
	took := time.Since(start)
	if err != nil {
		return took, fmt.Errorf("respawn daemon %d: %w", victim.ID, err)
	}
	c.mu.Lock()
	c.procs[last] = p
	c.mu.Unlock()
	return took, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil // a state file renamed away mid-walk is not an error
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// procUsage is what /proc says the child processes have used so far.
type procUsage struct {
	cpu   time.Duration // utime + stime
	wchar int64         // bytes passed to write(2) and friends
}

// childUsage sums /proc/<pid>/stat and /proc/<pid>/io over this
// process's children — the daemons, which are its only children. ok is
// false when it found none: no child is alive, or /proc is absent.
func childUsage() (u procUsage, ok bool) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return u, false
	}
	self := os.Getpid()
	const tick = time.Second / 100 // USER_HZ
	found := false
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// The command name, field 2, may hold spaces and parentheses;
		// the fields after its closing parenthesis do not.
		paren := bytes.LastIndexByte(stat, ')')
		if paren < 0 {
			continue
		}
		f := bytes.Fields(stat[paren+1:])
		if len(f) < 13 {
			continue
		}
		if ppid, _ := strconv.Atoi(string(f[1])); ppid != self {
			continue
		}
		utime, _ := strconv.ParseInt(string(f[11]), 10, 64)
		stime, _ := strconv.ParseInt(string(f[12]), 10, 64)
		u.cpu += time.Duration(utime+stime) * tick
		if io, err := os.ReadFile(filepath.Join("/proc", e.Name(), "io")); err == nil {
			for _, line := range bytes.Split(io, []byte("\n")) {
				if rest, ok := bytes.CutPrefix(line, []byte("wchar: ")); ok {
					n, _ := strconv.ParseInt(string(bytes.TrimSpace(rest)), 10, 64)
					u.wchar += n
				}
			}
		}
		found = true
	}
	return u, found
}

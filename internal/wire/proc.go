package wire

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// HostProc is a daemon running as a real child OS process, spawned by
// re-executing the current binary with HostModeEnv set. It is the
// test-and-benchmark harness for multi-host clusters: paperbench and the
// cross-process chaos tests spawn themselves as daemons, so no separate
// binary has to be built or shipped.
type HostProc struct {
	ID   int
	Addr string

	cfg  HostConfig
	cmd  *exec.Cmd
	done chan error
}

// SpawnHost re-executes the current binary as a daemon host and waits
// for its announce line. extraEnv entries (KEY=VALUE) are appended after
// the host config — a test binary, for instance, needs its own marker to
// route main into host mode.
func SpawnHost(cfg HostConfig, extraEnv ...string) (*HostProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("wire: spawn host: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(append(os.Environ(), HostEnv(cfg)...), extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("wire: spawn host: %w", err)
	}
	p := &HostProc{cfg: cfg, cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()

	id, addr, err := scanAnnounce(stdout)
	if err != nil {
		p.Kill9()
		return nil, err
	}
	p.ID, p.Addr = id, addr
	// Keep draining stdout so the child never blocks on a full pipe.
	go io.Copy(io.Discard, stdout)
	return p, nil
}

// scanAnnounce reads lines until the host's announce line appears.
func scanAnnounce(r io.Reader) (int, string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, hostAnnouncePrefix) {
			continue
		}
		var id int = -1
		var addr string
		for _, f := range strings.Fields(line[len(hostAnnouncePrefix):]) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			switch k {
			case "node":
				n, err := strconv.Atoi(v)
				if err != nil {
					return 0, "", fmt.Errorf("wire: bad announce line %q: %v", line, err)
				}
				id = n
			case "addr":
				addr = v
			}
		}
		if id < 0 || addr == "" {
			return 0, "", fmt.Errorf("wire: incomplete announce line %q", line)
		}
		return id, addr, nil
	}
	if err := sc.Err(); err != nil {
		return 0, "", fmt.Errorf("wire: reading host announce: %w", err)
	}
	return 0, "", fmt.Errorf("wire: host exited before announcing")
}

// Kill9 delivers SIGKILL — the chaos action. The address space dies with
// whatever it held; only the state directory survives. Idempotent, so a
// test cleanup can sweep processes the test already killed.
func (p *HostProc) Kill9() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	err := <-p.done
	p.done <- err // keep Kill9/Wait re-callable
}

// Signal forwards a signal to the child (SIGTERM for a shutdown the
// child may handle).
func (p *HostProc) Signal(sig syscall.Signal) error {
	if p.cmd.Process == nil {
		return fmt.Errorf("wire: host process not started")
	}
	return p.cmd.Process.Signal(sig)
}

// Wait blocks until the child exits, up to timeout, returning its exit
// error (nil for exit 0; SIGKILL yields a non-nil error, which callers
// that killed on purpose ignore).
func (p *HostProc) Wait(timeout time.Duration) (error, bool) {
	select {
	case err := <-p.done:
		p.done <- err // keep Wait/Kill9 re-callable
		return err, true
	case <-time.After(timeout):
		return nil, false
	}
}

// Respawn starts a fresh process for the same node: same advertised
// address (rebinding it), same state directory, static identity. This is
// the operator restarting a crashed host; the new incarnation reloads
// snapshot and log and replays its checkpointed agents. The dead
// process must have been reaped (Kill9 waits for that): its lock on the
// state directory goes with it, and a live holder refuses the respawn.
func (p *HostProc) Respawn(peers []string, extraEnv ...string) (*HostProc, error) {
	cfg := p.cfg
	cfg.Listen = p.Addr
	cfg.Advertise = p.Addr
	cfg.Join = ""
	cfg.Peers = peers
	cfg.Node = p.ID
	return SpawnHost(cfg, extraEnv...)
}

package wire

import (
	"fmt"
	"net"
	"strings"
	"sync"
)

// membership is a cluster's node-id → address table. For an in-process
// Cluster it is fixed at construction; for multi-host deployments it
// grows as daemons join, and every daemon of the cluster shares one
// logical view of it (propagated by msgMembers broadcasts).
//
// The table is grow-only with a stability invariant: once index i maps
// to an address, that mapping never changes — node identity is the
// index, and checkpointed agents carry destinations by index, so a
// remapping would teleport replayed agents onto the wrong host. A
// departed member (msgLeave) is tombstoned, not removed, for the same
// reason.
type membership struct {
	mu    sync.RWMutex
	addrs []string
	down  []bool // leave tombstones, indexed like addrs
}

func newMembership(addrs []string) *membership {
	m := &membership{
		addrs: append([]string(nil), addrs...),
		down:  make([]bool, len(addrs)),
	}
	return m
}

// size returns the membership's current node count (tombstones included:
// a departed node still occupies its index).
func (m *membership) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.addrs)
}

// addr returns node i's address, or an error when i is out of range or
// the member has announced its departure.
func (m *membership) addr(i int) (string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i < 0 || i >= len(m.addrs) {
		return "", fmt.Errorf("wire: no member %d in a cluster of %d", i, len(m.addrs))
	}
	if m.down[i] {
		return "", fmt.Errorf("wire: member %d (%s) has left the cluster", i, m.addrs[i])
	}
	return m.addrs[i], nil
}

// addrAny returns node i's address even when the member has announced
// its departure. The sender-side hop path dials departed members on
// purpose: an evacuated node keeps serving as a tombstone shell that
// settles duplicate acks and refuses fresh frames (DESIGN.md §16), and
// only a refusal — or a failed dial — licenses a reroute.
func (m *membership) addrAny(i int) (string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i < 0 || i >= len(m.addrs) {
		return "", fmt.Errorf("wire: no member %d in a cluster of %d", i, len(m.addrs))
	}
	return m.addrs[i], nil
}

// nextLive returns the first member after `from` (wrapping, excluding
// `exclude`) that has not left the cluster, or -1 when none exists. It
// is the deterministic stand-in picker for reroutes and drains; the
// caller pins the choice before shipping anything to it.
func (m *membership) nextLive(from, exclude int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.addrs)
	for off := 1; off <= n; off++ {
		i := ((from+off)%n + n) % n
		if i == exclude {
			continue
		}
		if !m.down[i] {
			return i
		}
	}
	return -1
}

// list returns a copy of the address table in node-id order.
func (m *membership) list() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.addrs...)
}

// add registers an address, returning its node id. Joining with an
// address already in the table is idempotent and returns the existing
// id (how a restarted daemon reclaims its identity), and clears any
// leave tombstone.
func (m *membership) add(addr string) (int, error) {
	if err := validateAddr(addr); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, a := range m.addrs {
		if a == addr {
			m.down[i] = false
			return i, nil
		}
	}
	m.addrs = append(m.addrs, addr)
	m.down = append(m.down, false)
	return len(m.addrs) - 1, nil
}

// update merges a membership list received from a peer. The stability
// invariant is enforced, not assumed: an update that would remap an
// existing index is rejected wholesale, so a confused (or hostile) peer
// cannot teleport agents. A shorter list than ours is a stale view and
// is ignored without error.
func (m *membership) update(addrs []string) error {
	for _, a := range addrs {
		if err := validateAddr(a); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, a := range m.addrs {
		if i < len(addrs) && addrs[i] != a {
			return fmt.Errorf("wire: membership update remaps node %d from %s to %s", i, a, addrs[i])
		}
	}
	for i := len(m.addrs); i < len(addrs); i++ {
		m.addrs = append(m.addrs, addrs[i])
		m.down = append(m.down, false)
	}
	return nil
}

// leave tombstones member i. Unknown indices are ignored (a departure
// notice can race the join broadcast that would have introduced it).
func (m *membership) leave(i int) {
	m.mu.Lock()
	if i >= 0 && i < len(m.down) {
		m.down[i] = true
	}
	m.mu.Unlock()
}

// left reports whether member i has announced its departure.
func (m *membership) left(i int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return i >= 0 && i < len(m.down) && m.down[i]
}

// validateAddr enforces the address form the membership protocol
// accepts: a non-empty host:port with a non-empty port, as dialable by
// net.Dial. (The host may be a name; it is not resolved here.)
func validateAddr(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("wire: bad member address %q: %w", addr, err)
	}
	if host == "" || port == "" {
		return fmt.Errorf("wire: bad member address %q: empty host or port", addr)
	}
	if strings.ContainsAny(addr, " \t\r\n#,") {
		return fmt.Errorf("wire: bad member address %q: whitespace or separator", addr)
	}
	return nil
}

// validateMembers checks a msgMembers payload: every address well
// formed, no duplicates (two ids dialing the same daemon would split
// one node's identity in two).
func validateMembers(addrs []string) error {
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		if err := validateAddr(a); err != nil {
			return err
		}
		if j, dup := seen[a]; dup {
			return fmt.Errorf("wire: members %d and %d share address %q", j, i, a)
		}
		seen[a] = i
	}
	return nil
}

// ParseSeeds parses a seed list — the static-membership file handed to
// every daemon of a multi-host cluster, and the -join/-seeds flag
// syntax. Addresses are separated by newlines or commas; blank entries
// and '#' comments are ignored. Each address must be host:port. The
// result preserves order (order is node identity in static mode) and
// rejects duplicates.
func ParseSeeds(text string) ([]string, error) {
	var out []string
	for _, line := range strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ',' }) {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		out = append(out, line)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("wire: seed list is empty")
	}
	if err := validateMembers(out); err != nil {
		return nil, err
	}
	return out, nil
}

// FormatSeeds renders a seed list in the file form ParseSeeds reads,
// one address per line.
func FormatSeeds(addrs []string) string {
	return strings.Join(addrs, "\n") + "\n"
}

package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Node-state persistence for multi-host daemons.
//
// An in-process Cluster's hosts keep their durable state (nodeState) in
// the test's memory, so an injected daemon kill loses nothing. A real
// per-host daemon process has no such refuge: kill -9 takes the address
// space with it. The persister is the node's "local disk" from
// the MESSENGERS architecture — the whole nodeState image (counters,
// dedup table, checkpoint store, node variables, cancellation marks,
// allocator high-water marks) is written as one gob snapshot with an
// atomic tmp+rename, and a respawned daemon process reloads it and
// replays the checkpointed agents, exactly as the in-process monitor
// replays them after an injected kill.
//
// Ordering is what makes this correct rather than best-effort: a daemon
// syncs *before* externalizing the effect of a mutation — before the
// hop acknowledgement leaves for an accepted agent, before the msgOK
// reply to a control write. A crash between mutation and sync is then
// indistinguishable from a crash before the mutation: the sender never
// saw the ack and retries; the coordinator never saw the ok and
// retries. Syncs after internal transitions (checkpoint retirement,
// completion) are only promptness — losing one re-runs a step from its
// hop boundary, which the replay contract already tolerates.

// stateFileName is the snapshot file inside a host's -state directory.
const stateFileName = "node-state.gob"

// persister serializes snapshot writes for one node.
type persister struct {
	mu   sync.Mutex
	dir  string
	path string
}

func newPersister(dir string) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wire: state dir: %w", err)
	}
	return &persister{dir: dir, path: filepath.Join(dir, stateFileName)}, nil
}

// persistedCkpt is a checkpoint record in the snapshot schema (exported
// fields for gob).
type persistedCkpt struct {
	ID       uint64
	Behavior string
	Hop, Job uint64
	State    []byte
}

// persistedRetired mirrors dedupRetired with exported fields.
type persistedRetired struct{ ID, Hop uint64 }

// persistedState is the on-disk image of one nodeState. Schema guards
// reloads across binary revisions.
type persistedState struct {
	Schema                            int
	Node                              int
	Created, Finished, Sent, Received int64
	PerJob                            map[uint64]counters
	LastHop                           map[uint64]uint64
	NextAgent                         uint64
	Arrivals                          int64
	Retired                           []persistedRetired
	Ckpts                             []persistedCkpt
	Vars                              map[string][]byte // name → gob(stateBox)
	Cancelled                         []uint64

	// Schema 2: migration and elasticity (DESIGN.md §16). Destination
	// pins must be durable before the first ship, freeze marks must
	// survive a crash, and the drain flags sequence a resumable
	// evacuate → absorb → leave.
	Migrations   map[uint64]int
	Reroutes     map[uint64]int
	Frozen       []uint64
	Draining     bool
	Evacuated    bool
	Drained      bool
	Absorbed     []int
	AbsorbTarget int
}

const persistSchema = 2

// saveLocked writes one snapshot atomically: full write to a temp file
// in the same directory, rename over the previous image. A process kill
// at any point leaves either the old or the new complete snapshot.
//
// Durability is scoped to process-level crashes (kill -9, panic): the
// write and rename land in the page cache, which survives the death of
// the process but not of the machine. A power loss can roll a node back
// to an earlier snapshot even though acks externalized since — fsyncing
// the temp file and directory on every sync would close that hole at
// the cost of a disk flush per accepted hop, which the recovery tests
// (all process-granularity) don't need. See DESIGN.md §13.2.
//
// Callers hold p.mu; sync() holds it across export+save so images reach
// disk in the order they were captured.
func (p *persister) saveLocked(img *persistedState) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return fmt.Errorf("wire: encode state snapshot: %w", err)
	}
	tmp := p.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p.path)
}

// load reads the last snapshot; ok is false when none exists (a fresh
// host).
func (p *persister) load() (*persistedState, bool, error) {
	data, err := os.ReadFile(p.path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	img := new(persistedState)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(img); err != nil {
		return nil, false, fmt.Errorf("wire: decode state snapshot: %w", err)
	}
	if img.Schema != persistSchema {
		return nil, false, fmt.Errorf("wire: state snapshot schema %d, want %d", img.Schema, persistSchema)
	}
	return img, true, nil
}

// export captures the node's current image. Each lock domain (nodeState,
// vars, cancels) is snapshotted consistently with itself; cross-domain
// skew is harmless because every domain only ever gets *newer* (see the
// ordering argument above).
func (ns *nodeState) export() (*persistedState, error) {
	img := &persistedState{
		Schema:  persistSchema,
		PerJob:  map[uint64]counters{},
		LastHop: map[uint64]uint64{},
		Vars:    map[string][]byte{},
	}
	ns.mu.Lock()
	img.Node = ns.id
	img.Created, img.Finished, img.Sent, img.Received = ns.created, ns.finished, ns.sent, ns.received
	for job, c := range ns.perJob {
		img.PerJob[job] = *c
	}
	for id, hop := range ns.lastHop {
		img.LastHop[id] = hop
	}
	img.NextAgent, img.Arrivals = ns.nextAgent, ns.arrivals
	for _, r := range ns.retired[ns.retiredHead:] {
		img.Retired = append(img.Retired, persistedRetired{ID: r.id, Hop: r.hop})
	}
	for id, c := range ns.ckpt {
		img.Ckpts = append(img.Ckpts, persistedCkpt{
			ID: id, Behavior: c.behavior, Hop: c.hop, Job: c.job,
			State: append([]byte(nil), c.state...),
		})
	}
	img.Migrations = make(map[uint64]int, len(ns.migrations))
	for id, dst := range ns.migrations {
		img.Migrations[id] = dst
	}
	img.Reroutes = make(map[uint64]int, len(ns.reroutes))
	for id, dst := range ns.reroutes {
		img.Reroutes[id] = dst
	}
	for job := range ns.frozen {
		img.Frozen = append(img.Frozen, job)
	}
	img.Draining, img.Evacuated, img.Drained = ns.draining, ns.evacuated, ns.drained
	for src := range ns.absorbed {
		img.Absorbed = append(img.Absorbed, src)
	}
	img.AbsorbTarget = ns.absorbTarget
	ns.mu.Unlock()
	vars, err := ns.vars.export()
	if err != nil {
		return nil, err
	}
	img.Vars = vars
	img.Cancelled = ns.cancels.export()
	return img, nil
}

// restore installs a loaded image into a fresh nodeState (before any
// daemon serves it). The metric gauges are advanced to match, so a
// restarted host's /metrics reflects its reloaded footprint.
func (ns *nodeState) restore(img *persistedState) error {
	ns.mu.Lock()
	ns.created, ns.finished, ns.sent, ns.received = img.Created, img.Finished, img.Sent, img.Received
	for job, c := range img.PerJob {
		cc := c
		ns.perJob[job] = &cc
		ns.met.jobsTracked.Add(1)
	}
	for id, hop := range img.LastHop {
		ns.setLastHop(id, hop)
	}
	ns.nextAgent, ns.arrivals = img.NextAgent, img.Arrivals
	for _, r := range img.Retired {
		ns.retired = append(ns.retired, dedupRetired{id: r.ID, hop: r.Hop})
	}
	for _, c := range img.Ckpts {
		ns.putCkpt(c.ID, &checkpoint{behavior: c.Behavior, hop: c.Hop, job: c.Job, state: c.State})
	}
	for id, dst := range img.Migrations {
		ns.migrations[id] = dst
	}
	for id, dst := range img.Reroutes {
		ns.reroutes[id] = dst
	}
	for _, job := range img.Frozen {
		ns.frozen[job] = struct{}{}
	}
	ns.draining, ns.evacuated, ns.drained = img.Draining, img.Evacuated, img.Drained
	for _, src := range img.Absorbed {
		ns.absorbed[src] = true
	}
	ns.absorbTarget = img.AbsorbTarget
	ns.mu.Unlock()
	if err := ns.vars.restore(img.Vars); err != nil {
		return err
	}
	for _, job := range img.Cancelled {
		ns.cancels.cancel(job)
	}
	return nil
}

// sync persists the node's current image when persistence is enabled.
// Failures are returned so daemons can fail loudly: silently serving
// unpersisted acks would forfeit the recovery guarantee.
//
// The persister mutex is held across export AND save. Exporting outside
// it would let two concurrent syncs interleave — goroutine A captures an
// image, B captures a newer one and saves it, B's caller externalizes an
// ack, then A saves its stale image over B's — and a kill -9 after that
// would lose acknowledged work. Serializing capture-with-write makes the
// on-disk image monotone: whatever snapshot rename lands last observed
// every mutation any earlier sync's caller went on to acknowledge.
//
//navplint:fact sync
func (ns *nodeState) sync() error {
	if ns.persist == nil {
		return nil
	}
	ns.persist.mu.Lock()
	defer ns.persist.mu.Unlock()
	img, err := ns.export()
	if err != nil {
		return err
	}
	return ns.persist.saveLocked(img)
}

// export renders the variable table as name → gob(stateBox) bytes.
func (s *store) export() (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.m))
	for name, v := range s.m {
		b, err := encodeState(v)
		if err != nil {
			return nil, fmt.Errorf("wire: persist variable %q: %w", name, err)
		}
		out[name] = b
	}
	return out, nil
}

// restore loads an exported variable table.
func (s *store) restore(vars map[string][]byte) error {
	for name, b := range vars {
		v, err := decodeState(b)
		if err != nil {
			return fmt.Errorf("wire: restore variable %q: %w", name, err)
		}
		s.set(name, v)
	}
	return nil
}

// export lists the cancelled namespaces.
func (cs *cancelSet) export() []uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]uint64, 0, len(cs.m))
	for job := range cs.m {
		out = append(out, job)
	}
	return out
}

package wire

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// loadState opens dir as node id and replays it into a fresh nodeState;
// the directory is released when the test ends.
func loadState(t testing.TB, dir string, id, retain int) *nodeState {
	t.Helper()
	ns, err := tryLoadState(dir, id, retain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.persist.close)
	return ns
}

func tryLoadState(dir string, id, retain int) (*nodeState, error) {
	ns := newNodeState(id, newWireMetrics(metrics.NewRegistry()), retain)
	if _, err := newPersister(dir, ns); err != nil {
		return nil, err
	}
	return ns, nil
}

// compact forces the compaction a sync triggers past the log threshold.
func (ns *nodeState) compact() error {
	p := ns.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed == nil {
		p.failed = ns.compactLocked()
	}
	return p.failed
}

// nodeImage is a nodeState's durable image in comparable form: what a
// reload must reproduce, no more (positions inside the in-memory retired
// slice, parked agents and dirty sets are not part of it).
type nodeImage struct {
	Totals                       counters
	PerJob                       map[uint64]counters
	LastHop                      map[uint64]uint64
	Ckpt                         map[uint64]checkpoint
	NextAgent                    uint64
	Arrivals                     int64
	RetiredHead                  uint64 // queue position of the oldest live entry
	Retired                      []dedupRetired
	Migrations, Reroutes         map[uint64]int
	Frozen, Cancelled            map[uint64]struct{}
	Draining, Evacuated, Drained bool
	Absorbed                     map[int]bool
	AbsorbTarget                 int
	Vars                         map[string]any
}

func imageOf(ns *nodeState) nodeImage {
	img := nodeImage{
		PerJob: map[uint64]counters{}, LastHop: map[uint64]uint64{}, Ckpt: map[uint64]checkpoint{},
		Migrations: map[uint64]int{}, Reroutes: map[uint64]int{},
		Frozen: map[uint64]struct{}{}, Cancelled: map[uint64]struct{}{},
		Absorbed: map[int]bool{}, Vars: map[string]any{}, Retired: []dedupRetired{},
	}
	ns.mu.Lock()
	img.Totals = counters{Created: ns.created, Finished: ns.finished, Sent: ns.sent, Received: ns.received}
	for job, c := range ns.perJob {
		img.PerJob[job] = *c
	}
	for id, hop := range ns.lastHop {
		img.LastHop[id] = hop
	}
	for id, c := range ns.ckpt {
		img.Ckpt[id] = checkpoint{behavior: c.behavior, hop: c.hop, job: c.job, state: append([]byte{}, c.state...)}
	}
	img.NextAgent, img.Arrivals = ns.nextAgent, ns.arrivals
	img.RetiredHead = ns.retiredBase + uint64(ns.retiredHead)
	img.Retired = append(img.Retired, ns.retired[ns.retiredHead:]...)
	for id, dst := range ns.migrations {
		img.Migrations[id] = dst
	}
	for id, dst := range ns.reroutes {
		img.Reroutes[id] = dst
	}
	for job := range ns.frozen {
		img.Frozen[job] = struct{}{}
	}
	img.Draining, img.Evacuated, img.Drained = ns.draining, ns.evacuated, ns.drained
	for src := range ns.absorbed {
		img.Absorbed[src] = true
	}
	img.AbsorbTarget = ns.absorbTarget
	ns.mu.Unlock()
	ns.vars.mu.Lock()
	for name, v := range ns.vars.m {
		img.Vars[name] = v
	}
	ns.vars.mu.Unlock()
	ns.cancels.mu.Lock()
	for job := range ns.cancels.m {
		img.Cancelled[job] = struct{}{}
	}
	ns.cancels.mu.Unlock()
	return img
}

// copyDir copies a state directory's files (not its LOCK) into dst.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == lockFileName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// reloadImage replays dir into a fresh node and returns its image,
// releasing the directory again.
func reloadImage(t testing.TB, dir string, id, retain int) nodeImage {
	t.Helper()
	ns, err := tryLoadState(dir, id, retain)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.persist.close()
	return imageOf(ns)
}

// mutatorScript drives every durable mutator of a nodeState from one
// seeded source. It owns no model: residents are read back from the
// node, so dup, stale and refused transitions come up by themselves.
type mutatorScript struct {
	rng *rand.Rand
	ns  *nodeState
	n   int
}

func (s *mutatorScript) resident() (uint64, *checkpoint, bool) {
	s.ns.mu.Lock()
	defer s.ns.mu.Unlock()
	ids := make([]uint64, 0, len(s.ns.ckpt))
	for id := range s.ns.ckpt {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return 0, nil, false
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	id := ids[s.rng.Intn(len(ids))]
	c := *s.ns.ckpt[id]
	return id, &c, true
}

// step performs one random durable mutation and names it.
func (s *mutatorScript) step() string {
	ns, rng := s.ns, s.rng
	s.n++
	job := uint64(1 + rng.Intn(3))
	state := &walkerState{Name: fmt.Sprint("w", s.n), Route: []int{s.n % 3}}
	switch op := rng.Intn(23); op {
	case 0, 1, 2:
		ns.inject(&agentMsg{ID: ns.newAgentID(), Job: job, Behavior: "walker", State: state})
		return "inject"
	case 3, 4:
		// A fresh arrival from another node's allocator.
		id := uint64(7)<<40 | uint64(1+rng.Intn(6))
		ns.accept(&agentMsg{ID: id, Hop: uint64(1 + rng.Intn(4)), Job: job, Behavior: "walker", State: state})
		return "accept"
	case 5:
		if id, c, ok := s.resident(); ok {
			ns.accept(&agentMsg{ID: id, Hop: c.hop, Job: c.job, Behavior: c.behavior, State: state})
			return "accept-dup"
		}
	case 6:
		if id, c, ok := s.resident(); ok {
			ns.accept(&agentMsg{ID: id, Hop: c.hop + 2, Job: c.job, Behavior: c.behavior, State: state})
			return "accept-return"
		}
	case 7:
		if id, c, ok := s.resident(); ok {
			ns.rehop(&agentMsg{ID: id, Hop: c.hop, Job: c.job, Behavior: c.behavior, State: state})
			return "rehop"
		}
	case 8, 9:
		if id, c, ok := s.resident(); ok {
			ns.ackDelivered(id, c.hop)
			return "ackDelivered"
		}
	case 10, 11, 12:
		if id, c, ok := s.resident(); ok {
			ns.complete(id, c.hop)
			return "complete"
		}
	case 13, 14:
		name := fmt.Sprintf("j%d:v%d", job, rng.Intn(4))
		vals := []any{int64(s.n), fmt.Sprint("s", s.n), []float64{float64(s.n), 0.5}, []byte{byte(s.n), 1}}
		ns.vars.set(name, vals[rng.Intn(len(vals))])
		return "set"
	case 15:
		ns.vars.deletePrefix(fmt.Sprintf("j%d:", job))
		return "deletePrefix"
	case 16:
		ns.cancels.cancel(job)
		return "cancel"
	case 17:
		ns.releaseJob(job)
		ns.cancels.release(job)
		return "release"
	case 18:
		if rng.Intn(2) == 0 {
			ns.freeze(job)
			return "freeze"
		}
		ns.thaw(job)
		return "thaw"
	case 19:
		if id, _, ok := s.resident(); ok {
			if rng.Intn(2) == 0 {
				ns.pinReroute(id, rng.Intn(3))
				return "pinReroute"
			}
			ns.assignMigration(id, rng.Intn(3))
			return "assignMigration"
		}
	case 20:
		switch rng.Intn(4) {
		case 0:
			ns.setDraining(rng.Intn(2) == 0)
		case 1:
			ns.setEvacuated(rng.Intn(3) == 0)
		case 2:
			ns.pinAbsorbTarget(func() int { return rng.Intn(3) })
		default:
			if rng.Intn(8) == 0 {
				ns.setDrained()
			}
		}
		return "drain-phase"
	case 21:
		ns.absorb(3+rng.Intn(3), counters{Created: 2, Finished: 2, Sent: 5, Received: 5},
			map[uint64]counters{job: {Created: 2, Finished: 2}})
		return "absorb"
	}
	ns.newAgentID()
	return "newAgentID"
}

// TestSyncCrashEquivalence is the persister's contract as a property:
// at every sync() return, a kill -9 (a copy of the directory) reloads to
// exactly the in-memory durable image of that instant — and a kill that
// tears the last record at any byte reloads to exactly the image of the
// previous sync, never to a partial batch.
func TestSyncCrashEquivalence(t *testing.T) {
	seeds, steps := 4, 60
	if testing.Short() {
		seeds, steps = 2, 30
	}
	const node, retain = 2, 3
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			dir, crash := t.TempDir(), filepath.Join(t.TempDir(), "crash")
			live := loadState(t, dir, node, retain)
			script := &mutatorScript{rng: rand.New(rand.NewSource(seed)), ns: live}
			prev := imageOf(live) // the image an empty directory reloads to
			var trail []string
			for i := 0; i < steps; i++ {
				// Several mutations may share a batch; retirements that are
				// evicted again before the batch is cut must replay too.
				for n := 1 + script.rng.Intn(4); n > 0; n-- {
					trail = append(trail, script.step())
				}
				gen, before := live.persist.gen, live.persist.logBytes
				if script.rng.Intn(12) == 0 {
					trail = append(trail, "compact")
					if err := live.compact(); err != nil {
						t.Fatal(err)
					}
				} else if err := live.sync(); err != nil {
					t.Fatal(err)
				}
				want := imageOf(live)
				copyDir(t, dir, crash)
				if got := reloadImage(t, crash, node, retain); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %v:\nreloaded %+v\nin memory %+v", trail, got, want)
				}
				if live.persist.gen == gen {
					// Tear the batch this sync appended at every byte.
					logName := filepath.Base(live.persist.logPath(gen))
					full, err := os.ReadFile(filepath.Join(dir, logName))
					if err != nil {
						t.Fatal(err)
					}
					if int64(len(full)) != live.persist.logBytes {
						t.Fatalf("log is %d bytes, persister counts %d", len(full), live.persist.logBytes)
					}
					for cut := before; cut < int64(len(full)); cut++ {
						if err := os.WriteFile(filepath.Join(crash, logName), full[:cut], 0o644); err != nil {
							t.Fatal(err)
						}
						if got := reloadImage(t, crash, node, retain); !reflect.DeepEqual(got, prev) {
							t.Fatalf("after %v, log cut at byte %d of %d (record starts at %d):\nreloaded %+v\nprevious sync %+v",
								trail, cut, len(full), before, got, prev)
						}
						if info, err := os.Stat(filepath.Join(crash, logName)); err != nil || info.Size() != before {
							t.Fatalf("torn tail not truncated: log is %d bytes after reload, want %d (%v)", info.Size(), before, err)
						}
					}
				}
				prev = want
			}
		})
	}
}

// TestCompactionCrash kills a compaction on either side of its commit
// point (the snapshot rename) and requires the image to survive both.
func TestCompactionCrash(t *testing.T) {
	const node, retain = 1, 4
	dir := t.TempDir()
	live := loadState(t, dir, node, retain)
	script := &mutatorScript{rng: rand.New(rand.NewSource(42)), ns: live}
	for i := 0; i < 60; i++ {
		script.step()
		if err := live.sync(); err != nil {
			t.Fatal(err)
		}
		if i == 30 { // so the compaction below starts from a snapshot, not from none
			if err := live.compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := imageOf(live)
	before := filepath.Join(t.TempDir(), "before")
	copyDir(t, dir, before)
	oldLog := filepath.Base(live.persist.logPath(live.persist.gen))
	if err := live.compact(); err != nil {
		t.Fatal(err)
	}
	newLog := filepath.Base(live.persist.logPath(live.persist.gen))
	if _, err := os.Stat(filepath.Join(dir, oldLog)); !os.IsNotExist(err) {
		t.Fatalf("compaction left the superseded generation %s behind (%v)", oldLog, err)
	}
	cp := func(from, name, to, as string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, as), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Killed after the rename, before the new log exists and the old one
	// is removed: new snapshot, old generation's log still lying there.
	after := filepath.Join(t.TempDir(), "after")
	copyDir(t, dir, after)
	os.Remove(filepath.Join(after, newLog))
	cp(before, oldLog, after, oldLog)
	if got := reloadImage(t, after, node, retain); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash after the snapshot rename:\nreloaded %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(filepath.Join(after, oldLog)); !os.IsNotExist(err) {
		t.Fatalf("stale generation %s survived the reopen (%v)", oldLog, err)
	}

	// Killed before the rename: the old pair is intact beside a partial
	// temp file and (had the order been the reverse) a premature new log.
	cp(dir, snapshotName, before, snapshotName+".tmp")
	cp(dir, newLog, before, newLog)
	if err := os.Truncate(filepath.Join(before, snapshotName+".tmp"), 100); err != nil {
		t.Fatal(err)
	}
	if got := reloadImage(t, before, node, retain); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash before the snapshot rename:\nreloaded %+v\nwant %+v", got, want)
	}
	for _, name := range []string{snapshotName + ".tmp", newLog} {
		if _, err := os.Stat(filepath.Join(before, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the reopen (%v)", name, err)
		}
	}
}

// TestCompactionTriggersByLogSize pins the automatic trigger: appends
// past the threshold fold the log into a new snapshot generation, and
// the state survives it.
func TestCompactionTriggersByLogSize(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	ns := newNodeState(0, newWireMetrics(reg), 8)
	p, err := newPersister(dir, ns)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	blob := make([]byte, 300<<10)
	for i := 0; i < 5; i++ {
		blob[0] = byte(i)
		ns.vars.set("blob", blob)
		if err := ns.sync(); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricPersistCompactions); got != 1 {
		t.Fatalf("%s = %d after 1.5 MB of appends, want 1", MetricPersistCompactions, got)
	}
	// The fourth blob crossed 1 MiB and was folded into the snapshot; the
	// fifth is the new generation's only batch.
	if p.gen != 1 || p.logBytes > 310<<10 || p.snapBytes < 300<<10 {
		t.Fatalf("after compaction: generation %d, log %d bytes, snapshot %d bytes", p.gen, p.logBytes, p.snapBytes)
	}
	if got := snap.Gauge(MetricPersistLogBytes); got != p.logBytes {
		t.Fatalf("%s = %d, persister counts %d", MetricPersistLogBytes, got, p.logBytes)
	}
	if got := snap.Counter(MetricPersistBatchBytes); got < 5*300<<10 {
		t.Fatalf("%s = %d, want at least the five blobs", MetricPersistBatchBytes, got)
	}
	if h := snap.Histograms[MetricPersistSyncUS]; h.Count != 5 {
		t.Fatalf("%s observed %d syncs, want 5", MetricPersistSyncUS, h.Count)
	}
	want := imageOf(ns)
	p.close()
	if got := reloadImage(t, dir, 0, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("image after automatic compaction:\nreloaded %+v\nwant %+v", got, want)
	}
}

// TestNoDirtyTrackingWithoutPersist: an in-process node (no state
// directory) must not pay for, or accumulate, dirty keys.
func TestNoDirtyTrackingWithoutPersist(t *testing.T) {
	ns := newNodeState(0, newWireMetrics(nil), 4)
	script := &mutatorScript{rng: rand.New(rand.NewSource(9)), ns: ns}
	for i := 0; i < 400; i++ {
		script.step()
		if err := ns.sync(); err != nil {
			t.Fatal(err)
		}
	}
	if ns.dirty != nil || ns.vars.dirty != nil || ns.cancels.dirty != nil {
		t.Fatal("a node without a persister allocated dirty sets")
	}
	if n := ns.seq.Load(); n != 0 {
		t.Fatalf("mutation sequence advanced to %d without a persister", n)
	}
}

func init() {
	Register("persistDone", func(ctx *Ctx) Verdict { return ctx.Done() })
}

// logStat is what a write to the state log would change.
type logStat struct {
	size  int64
	mtime time.Time
}

func statLog(t *testing.T, h *Host) logStat {
	t.Helper()
	p := h.node.persist
	p.mu.Lock()
	path := p.logPath(p.gen)
	p.mu.Unlock()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return logStat{info.Size(), info.ModTime()}
}

// TestDuplicateAndRefusedFramesWriteNothing pins the coalescing the
// daemon's unconditional pre-ack sync relies on: a duplicate hop frame,
// and a fresh frame refused by an evacuated shell, mutate nothing and
// therefore must not touch the log.
func TestDuplicateAndRefusedFramesWriteNothing(t *testing.T) {
	h, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c := &ctlConn{addr: h.Addr}
	defer c.close()
	quiet := func() logStat {
		t.Helper()
		waitFor(t, "the node to settle", func() bool {
			p := h.node.persist
			p.mu.Lock()
			defer p.mu.Unlock()
			return h.node.pendingCheckpoints() == 0 && p.covered == h.node.seq.Load()
		})
		st := statLog(t, h)
		time.Sleep(20 * time.Millisecond) // so a write would move the mtime visibly
		return st
	}
	hop := func(id uint64) ackMsg {
		t.Helper()
		rep, err := c.roundTrip(&envelope{Kind: msgAgent,
			Agent: &agentMsg{ID: id, Hop: 1, Job: 5, Behavior: "persistDone"}}, waitTimeout)
		if err != nil || rep.Kind != msgAck {
			t.Fatalf("hop frame reply = (%+v, %v)", rep, err)
		}
		return rep.Ack
	}

	empty := statLog(t, h)
	const agent = 9<<40 | 1
	if ack := hop(agent); ack.Dup || ack.Refused {
		t.Fatalf("first delivery acked %+v", ack)
	}
	settled := quiet()
	if settled.size <= empty.size {
		t.Fatalf("accepting an agent appended nothing: log %d → %d bytes", empty.size, settled.size)
	}
	if ack := hop(agent); !ack.Dup {
		t.Fatalf("redelivery acked %+v, want Dup", ack)
	}
	if got := statLog(t, h); got != settled {
		t.Fatalf("a duplicate frame wrote to the log: %+v → %+v", settled, got)
	}
	for _, read := range []*envelope{
		{Kind: msgGetVar, Name: "absent"},
		{Kind: msgSnapshot, Job: 5},
		{Kind: msgPing},
	} {
		if _, err := c.roundTrip(read, waitTimeout); err != nil {
			t.Fatalf("%s: %v", read.Kind, err)
		}
		if got := statLog(t, h); got != settled {
			t.Fatalf("a %s frame wrote to the log: %+v → %+v", read.Kind, settled, got)
		}
	}

	h.node.setEvacuated(true)
	if err := h.node.sync(); err != nil {
		t.Fatal(err)
	}
	settled = quiet()
	if ack := hop(9<<40 | 2); !ack.Refused {
		t.Fatalf("evacuated shell acked %+v, want Refused", ack)
	}
	if got := statLog(t, h); got != settled {
		t.Fatalf("a refused frame wrote to the log: %+v → %+v", settled, got)
	}
}

// TestEveryReplyIsDurable: the reply to every mutating frame is an
// acknowledgement, so a copy of the state directory taken the moment the
// reply arrives — what a kill -9 right then would leave — must already
// hold the frame's change.
func TestEveryReplyIsDurable(t *testing.T) {
	dir := t.TempDir()
	h, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c := &ctlConn{addr: h.Addr}
	defer c.close()
	crash := filepath.Join(t.TempDir(), "crash")
	const hopped = 9<<40 | 1
	cases := []struct {
		frame *envelope
		reply string
		holds func(img nodeImage) bool
	}{
		{&envelope{Kind: msgAgent, Agent: &agentMsg{ID: hopped, Hop: 1, Job: 5, Behavior: "persistDone"}}, msgAck,
			func(img nodeImage) bool {
				dedup := img.LastHop[hopped] == 1
				for _, r := range img.Retired {
					dedup = dedup || r == dedupRetired{hopped, 1}
				}
				return img.Totals.Received == 1 && dedup
			}},
		{&envelope{Kind: msgInject, Job: 6, Agent: &agentMsg{Behavior: "persistDone"}}, msgOK,
			func(img nodeImage) bool { return img.Totals.Created == 1 && img.NextAgent == 1 }},
		{&envelope{Kind: msgSetVar, Name: "v:a", Value: &stateBox{V: int64(42)}}, msgOK,
			func(img nodeImage) bool { return img.Vars["v:a"] == int64(42) }},
		{&envelope{Kind: msgClear, Name: "v:"}, msgOK,
			func(img nodeImage) bool { _, ok := img.Vars["v:a"]; return !ok }},
		{&envelope{Kind: msgFreeze, Job: 13}, msgOK,
			func(img nodeImage) bool { _, ok := img.Frozen[13]; return ok }},
		{&envelope{Kind: msgThaw, Job: 13}, msgOK,
			func(img nodeImage) bool { _, ok := img.Frozen[13]; return !ok }},
		{&envelope{Kind: msgCancel, Job: 14}, msgOK,
			func(img nodeImage) bool { _, ok := img.Cancelled[14]; return ok }},
		{&envelope{Kind: msgFree, Job: 14}, msgOK,
			func(img nodeImage) bool { _, ok := img.Cancelled[14]; return !ok }},
		{&envelope{Kind: msgAbsorb, Node: 3, Counters: counters{Created: 4, Finished: 4}}, msgOK,
			func(img nodeImage) bool { return img.Absorbed[3] && img.Totals.Created >= 1+4 }},
	}
	for _, tc := range cases {
		rep, err := c.roundTrip(tc.frame, waitTimeout)
		if err != nil || rep.Kind != tc.reply || rep.Err != "" {
			t.Fatalf("%s: reply (%+v, %v), want %s", tc.frame.Kind, rep, err, tc.reply)
		}
		copyDir(t, dir, crash)
		if img := reloadImage(t, crash, h.ID, dedupRetain); !tc.holds(img) {
			t.Fatalf("%s was acknowledged, but the image a kill -9 leaves lacks it: %+v", tc.frame.Kind, img)
		}
	}
}

// TestStateDirHeldByOneDaemon: a second daemon on a live directory is
// refused with an error naming it; Close (like a kill -9) frees it.
func TestStateDirHeldByOneDaemon(t *testing.T) {
	dir := t.TempDir()
	h, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, err = StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dir})
	if err == nil {
		t.Fatal("a second daemon opened a live state directory")
	}
	if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "another daemon") {
		t.Fatalf("refusal does not name the directory and the conflict: %v", err)
	}
	h.Close()
	h.Close() // idempotent
	h2, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatalf("state directory not released by Close: %v", err)
	}
	h2.Close()
	// The directory still knows whose it is.
	if _, err := tryLoadState(dir, 1, 8); err == nil || !strings.Contains(err.Error(), "belongs to node 0") {
		t.Fatalf("node 1 claiming node 0's directory: %v", err)
	}
}

// scriptedDir writes a state directory with a snapshot and several log
// batches, returning the log's path and the image after the snapshot
// and after each batch (so images[i] is the image a log holding its
// first i batches reloads to) with the log offsets the batches end at.
func scriptedDir(t testing.TB, dir string, node, retain int) (logPath string, images []nodeImage, ends []int64) {
	t.Helper()
	live := loadState(t, dir, node, retain)
	script := &mutatorScript{rng: rand.New(rand.NewSource(7)), ns: live}
	for i := 0; i < 12; i++ {
		script.step()
	}
	if err := live.compact(); err != nil {
		t.Fatal(err)
	}
	images, ends = append(images, imageOf(live)), append(ends, live.persist.logBytes)
	for len(images) < 6 {
		script.step()
		script.step()
		if err := live.sync(); err != nil {
			t.Fatal(err)
		}
		if live.persist.logBytes > ends[len(ends)-1] {
			images, ends = append(images, imageOf(live)), append(ends, live.persist.logBytes)
		}
	}
	logPath = live.persist.logPath(live.persist.gen)
	live.persist.close()
	return logPath, images, ends
}

// TestDamagedStateRefused: damage that is not a torn tail — and state
// this binary does not read — stops the daemon with an error naming
// the file and the offset, instead of serving a fresh or partial node.
func TestDamagedStateRefused(t *testing.T) {
	const node, retain = 0, 4
	master := t.TempDir()
	logPath, images, ends := scriptedDir(t, master, node, retain)
	logName := filepath.Base(logPath)
	pristine, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() string {
		dir := filepath.Join(t.TempDir(), "d")
		copyDir(t, master, dir)
		return dir
	}
	refused := func(dir string, parts ...string) {
		t.Helper()
		_, err := tryLoadState(dir, node, retain)
		if err == nil {
			t.Fatalf("damaged directory loaded; want a refusal mentioning %q", parts)
		}
		for _, part := range parts {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("refusal %q does not mention %q", err, part)
			}
		}
		if strings.Contains(err.Error(), "\n") {
			t.Fatalf("refusal is not one line: %q", err)
		}
	}

	// A flipped byte in the middle of the log: checksum failure with
	// valid records behind it.
	dir := fresh()
	bad := append([]byte(nil), pristine...)
	bad[ends[1]+recHeaderLen+2] ^= 0x40
	os.WriteFile(filepath.Join(dir, logName), bad, 0o644)
	refused(dir, logName, fmt.Sprintf("offset %d", ends[1]), "checksum", "schema 3")

	// The same flip in the LAST record is indistinguishable from a torn
	// write: dropped and truncated, the earlier batches stand.
	dir = fresh()
	bad = append([]byte(nil), pristine...)
	last := len(ends) - 2
	bad[ends[last]+recHeaderLen+2] ^= 0x40
	os.WriteFile(filepath.Join(dir, logName), bad, 0o644)
	if got := reloadImage(t, dir, node, retain); !reflect.DeepEqual(got, images[last]) {
		t.Fatalf("bad tail record:\nreloaded %+v\nwant %+v", got, images[last])
	}
	if info, _ := os.Stat(filepath.Join(dir, logName)); info.Size() != ends[last] {
		t.Fatalf("bad tail not truncated: %d bytes, want %d", info.Size(), ends[last])
	}

	// A record of a kind this binary does not know, correctly framed.
	dir = fresh()
	rec, start := beginRecord(nil, uint64(len(images)))
	rec[start+recHeaderLen] = 9
	endRecord(rec, start)
	os.WriteFile(filepath.Join(dir, logName), append(append([]byte(nil), pristine...), rec...), 0o644)
	refused(dir, logName, fmt.Sprintf("offset %d", len(pristine)), "unknown record kind 9")

	// A batch missing from the middle: the next one does not continue.
	dir = fresh()
	gap := append(append([]byte(nil), pristine[:ends[1]]...), pristine[ends[2]:]...)
	os.WriteFile(filepath.Join(dir, logName), gap, 0o644)
	refused(dir, logName, fmt.Sprintf("offset %d", ends[1]), "should follow")

	// A damaged snapshot is never a torn write (it was renamed whole).
	dir = fresh()
	snap, _ := os.ReadFile(filepath.Join(dir, snapshotName))
	os.WriteFile(filepath.Join(dir, snapshotName), snap[:len(snap)-3], 0o644)
	refused(dir, snapshotName, "damaged snapshot")

	// The parent revision's whole-image file, and a future schema.
	dir = fresh()
	os.WriteFile(filepath.Join(dir, legacyStateName), []byte("gob"), 0o644)
	refused(dir, legacyStateName, "schema-2", "offset 0")
	dir = fresh()
	bad = append([]byte(nil), pristine...)
	bad[len(fileMagic)] = logSchema + 1
	os.WriteFile(filepath.Join(dir, logName), bad, 0o644)
	refused(dir, logName, "schema 4", "schema 3")

	// StartHost surfaces the refusal rather than serving a fresh node.
	if _, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dir}); err == nil {
		t.Fatal("StartHost served a directory of another schema")
	}
}

// TestReplayedBatchesCounted: a reloading host reports how much log it
// replayed.
func TestReplayedBatchesCounted(t *testing.T) {
	dir := t.TempDir()
	_, images, _ := scriptedDir(t, dir, 0, 4)
	reg := metrics.NewRegistry()
	p, err := newPersister(dir, newNodeState(0, newWireMetrics(reg), 4))
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if got, want := reg.Snapshot().Counter(MetricPersistReplayed), int64(len(images)-1); got != want {
		t.Fatalf("%s = %d, want %d", MetricPersistReplayed, got, want)
	}
}

// FuzzLogReplay feeds arbitrary bytes to recovery as the log behind a
// valid snapshot: a prefix of the real log followed by junk, raw and —
// so the batch decoder sees hostile operations too — framed with a
// correct length and checksum. Recovery must never panic; when it
// accepts the raw form, the image is the one after some prefix of the
// real batches: junk is dropped whole or refused, never partly applied.
func FuzzLogReplay(f *testing.F) {
	const node, retain = 0, 4
	master := f.TempDir()
	logPath, images, ends := scriptedDir(f, master, node, retain)
	logName := filepath.Base(logPath)
	pristine, err := os.ReadFile(logPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(len(pristine)), []byte{})
	f.Add(uint16(ends[2]), []byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4})
	f.Add(uint16(ends[1]+5), []byte("navplog"))
	f.Add(uint16(ends[3]), pristine[ends[3]:ends[4]-1])
	f.Add(uint16(ends[0]), []byte{recBatch, 1, domCkpt << 1, 5, 3, 'a', 'b', 'c', 1, 1, 0})
	f.Add(uint16(ends[0]), []byte{recBatch, 1, domRetired << 1, 0xff, 0xff, 3, 1, 1, domMeta << 1, 1, 1, 1, 1, 1, 1, 0, 1, 0xff, 0xff, 0x7f})
	f.Add(uint16(0), []byte{})
	crash := filepath.Join(f.TempDir(), "crash")
	f.Fuzz(func(t *testing.T, cut uint16, junk []byte) {
		keep := int(cut) % (len(pristine) + 1)
		for _, framed := range []bool{false, true} {
			tail := junk
			if framed {
				rec := append(make([]byte, recHeaderLen), junk...)
				endRecord(rec, 0)
				tail = rec
			}
			copyDir(t, master, crash)
			data := append(append([]byte(nil), pristine[:keep]...), tail...)
			if err := os.WriteFile(filepath.Join(crash, logName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			ns, err := tryLoadState(crash, node, retain)
			if err != nil {
				continue // refused: a one-line error, not a fresh node
			}
			got := imageOf(ns)
			ns.persist.close()
			if framed {
				continue // a well-framed batch is the log's to apply; only panics count
			}
			ok := false
			for _, img := range images {
				ok = ok || reflect.DeepEqual(got, img)
			}
			if !ok {
				t.Fatalf("log[:%d] + %d junk bytes recovered an image no prefix of the batches produces:\n%+v", keep, len(junk), got)
			}
		}
	})
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Node-state persistence for multi-host daemons.
//
// An in-process Cluster's hosts keep their durable state (nodeState) in
// the test's memory, so an injected daemon kill loses nothing. A real
// per-host daemon process has no such refuge: kill -9 takes the address
// space with it. The persister is the node's "local disk" from the
// MESSENGERS architecture, and it costs what changed, not what exists:
// the state directory holds a snapshot and an append-only log,
//
//	LOCK            flock'd by the one daemon serving the directory
//	snapshot        file header + one batch holding every key
//	log.<gen>       file header + the batches appended since
//
// and sync() appends ONE batch record carrying only the keys dirtied
// since the previous batch. A batch is a list of keyed puts and deletes
// over the domains nodeState already has — ckpt/<agent>, hop/<agent>,
// job/<namespace> counters, var/<name>, cancel/<job>, frozen/<job>,
// mig/<agent>, reroute/<agent>, absorbed/<node>, retired/<position>
// (the dedup queue, appended by position) and one meta key (totals,
// allocator, arrival clock, drain flags, queue head). Records describe
// state, not operations, so replay is idempotent by construction and no
// mutator needs a replay mode. A record is framed
//
//	len uint32 | crc32c(payload) uint32 | payload
//
// and leaves in a single write(2) on a descriptor opened once.
//
// Recovery loads the snapshot, applies the log's batches in order, and
// stops at the first short or CRC-failing record: a torn tail is what a
// kill -9 mid-write leaves, it was never acknowledged, and it is
// physically truncated before the first new append. Damage anywhere
// else — a bad record with more log behind it, an unknown record kind,
// a batch that does not continue the previous one, a whole-image file
// of an earlier schema — refuses the start with an error naming file,
// offset and schema; silently serving a fresh node over a damaged
// directory would forfeit every guarantee below.
//
// Compaction keeps the log (and so the restart time) bounded: once it
// outgrows compactThreshold, the full image is written as one batch
// through the same codec into snapshot.tmp, renamed over the snapshot,
// and a new log generation begins. The snapshot header names the
// generation that continues it, so a crash anywhere in that sequence
// leaves exactly one consistent (snapshot, log) pair; stale generations
// and temp files are removed on open.
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
//
// Durability is scoped to process-level crashes (kill -9, panic): an
// append lands in the page cache, which survives the death of the
// process but not of the machine. A power loss can roll a node back to
// an earlier batch even though acks externalized since; an fsync per
// batch would close that hole at the price of a disk flush per accepted
// hop, which the recovery tests (all process-granularity) don't need.
// See DESIGN.md §13.2.

const (
	logSchema       = 3
	lockFileName    = "LOCK"
	snapshotName    = "snapshot"
	logFilePrefix   = "log."
	legacyStateName = "node-state.gob" // the schema-2 whole-image snapshot of earlier revisions

	fileMagic     = "navplog"
	fileHeaderLen = len(fileMagic) + 1 + 8 + 8 // magic | schema | generation | node
	recHeaderLen  = 8                          // len uint32 | crc32c uint32

	recBatch byte = 1 // the only record kind
)

// Key domains of a batch. An operation's tag byte is dom<<1, with the
// low bit set for a delete.
const (
	domMeta byte = iota
	domCkpt
	domHop
	domJob
	domMig
	domReroute
	domFrozen
	domAbsorbed
	domRetired
	domCancel
	domVar
)

// compactThreshold is the log size that triggers compaction: a fixed
// multiple of the last snapshot with a floor, so a small node does not
// compact every few batches and a large one amortizes each rewrite of
// its image over four images' worth of appends.
func compactThreshold(snapBytes int64) int64 {
	return max(1<<20, 4*snapBytes)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recKey names one durable key of the nodeState or cancelSet lock
// domains; variables are keyed by name in the store's own set.
type recKey struct {
	dom byte
	id  uint64
}

var metaKey = recKey{dom: domMeta}

// dirtySet is the set of keys one lock domain changed since the last
// batch. A nil set is persistence switched off: marking is a no-op, so
// in-process clusters pay nothing and accumulate nothing. mark is called
// with the domain's mutex held, and bumps the node's mutation sequence
// under that same mutex — which is what lets sync() conclude, from the
// sequence alone, that a batch captured after a mutation contains it.
type dirtySet[K comparable] struct {
	seq  *atomic.Uint64
	keys map[K]struct{}
}

func newDirtySet[K comparable](seq *atomic.Uint64) *dirtySet[K] {
	return &dirtySet[K]{seq: seq, keys: map[K]struct{}{}}
}

func (d *dirtySet[K]) mark(k K) {
	if d == nil {
		return
	}
	d.keys[k] = struct{}{}
	d.seq.Add(1)
}

// persister owns one state directory: the directory lock, the append
// descriptor of the current log generation, and the mutation sequence
// the log covers.
type persister struct {
	mu        sync.Mutex
	dir       string
	lock      *os.File // flock'd LOCK file; nil once closed
	log       *os.File
	gen       uint64
	next      uint64 // index of the next batch
	covered   uint64 // every mutation numbered <= covered is on disk
	logBytes  int64
	snapBytes int64
	buf       []byte // batch scratch, reused across syncs
	failed    error  // sticky: after a failed append nothing may follow the damage
}

// recycle keeps a batch buffer for the next sync unless one huge batch
// (a 4 MiB variable, a snapshot) grew it past what is worth parking.
func (p *persister) recycle(buf []byte) {
	p.buf = nil
	if cap(buf) <= maxPooledBuf {
		p.buf = buf[:0]
	}
}

var errPersisterClosed = errors.New("wire: state directory closed")

// newPersister claims dir for this process and replays it into ns — a
// fresh nodeState nothing serves yet — leaving ns tracking its dirty
// keys and the persister ready to append. Two daemons appending to one
// log would interleave records, so the claim is an exclusive flock: a
// second daemon is refused, kill -9 releases the lock with the process,
// and Host.Close releases it for a same-process restart.
func newPersister(dir string, ns *nodeState) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wire: state dir: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wire: state dir: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("wire: state dir %s is held by another daemon (flock %s: %v)", dir, lockFileName, err)
	}
	p := &persister{dir: dir, lock: lock}
	if err := p.load(ns); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// close releases the log descriptor and the directory lock. Zombie steps
// of the closed host that still reach sync() fail instead of appending
// to a directory the next incarnation may already own.
func (p *persister) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lock == nil {
		return
	}
	if p.log != nil {
		p.log.Close()
	}
	p.lock.Close() // closing the descriptor drops the flock
	p.lock = nil
	p.failed = errPersisterClosed
}

func (p *persister) logPath(gen uint64) string {
	return filepath.Join(p.dir, logFilePrefix+strconv.FormatUint(gen, 10))
}

func appendFileHeader(buf []byte, gen uint64, node int) []byte {
	buf = append(buf, fileMagic...)
	buf = append(buf, logSchema)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	return binary.LittleEndian.AppendUint64(buf, uint64(node))
}

// parseFileHeader checks a snapshot or log file's header against this
// binary's schema and the node claiming the directory.
func parseFileHeader(path string, data []byte, node int) (gen uint64, err error) {
	if len(data) < fileHeaderLen || string(data[:len(fileMagic)]) != fileMagic {
		return 0, fmt.Errorf("wire: %s: offset 0: not a schema-%d state file", path, logSchema)
	}
	if s := data[len(fileMagic)]; s != logSchema {
		return 0, fmt.Errorf("wire: %s: offset %d: schema %d, this daemon reads schema %d", path, len(fileMagic), s, logSchema)
	}
	gen = binary.LittleEndian.Uint64(data[len(fileMagic)+1:])
	if owner := int(binary.LittleEndian.Uint64(data[len(fileMagic)+9:])); owner != node {
		return 0, fmt.Errorf("wire: state dir %s belongs to node %d, not %d", filepath.Dir(path), owner, node)
	}
	return gen, nil
}

// beginRecord reserves a record header at the end of buf and opens
// batch number index of the directory's history (the snapshot is one
// batch of it, the log continues the count — so a record missing from
// the middle, or a file of the wrong generation, cannot replay);
// endRecord fills the header in once the payload is known.
func beginRecord(buf []byte, index uint64) (out []byte, start int) {
	start = len(buf)
	buf = append(buf, make([]byte, recHeaderLen)...)
	buf = append(buf, recBatch)
	return binary.AppendUvarint(buf, index), start
}

func endRecord(buf []byte, start int) error {
	payload := buf[start+recHeaderLen:]
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("wire: state batch of %d bytes exceeds the record length field", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return nil
}

// Operation encoders. Keys are uvarints (names for variables); values
// are domain-specific and absent on a delete.

func appendOp(buf []byte, dom byte, del bool, id uint64) []byte {
	tag := dom << 1
	if del {
		tag |= 1
	}
	return binary.AppendUvarint(append(buf, tag), id)
}

// Drain flag bits of the meta key.
const (
	flagDraining = 1 << iota
	flagEvacuated
	flagDrained
)

// appendKey renders the current value of one nodeState-domain key, or
// its absence. Callers hold ns.mu.
func (ns *nodeState) appendKey(buf []byte, k recKey) []byte {
	switch k.dom {
	case domCkpt:
		c, ok := ns.ckpt[k.id]
		buf = appendOp(buf, k.dom, !ok, k.id)
		if ok {
			buf = appendString(buf, c.behavior)
			buf = binary.AppendUvarint(buf, c.hop)
			buf = binary.AppendUvarint(buf, c.job)
			buf = appendBytes(buf, c.state)
		}
	case domHop:
		hop, ok := ns.lastHop[k.id]
		buf = appendOp(buf, k.dom, !ok, k.id)
		if ok {
			buf = binary.AppendUvarint(buf, hop)
		}
	case domJob:
		c, ok := ns.perJob[k.id]
		buf = appendOp(buf, k.dom, !ok, k.id)
		if ok {
			buf = appendCounters(buf, *c)
		}
	case domMig, domReroute:
		dst, ok := ns.pins(k.dom)[k.id]
		buf = appendOp(buf, k.dom, !ok, k.id)
		if ok {
			buf = binary.AppendVarint(buf, int64(dst))
		}
	case domFrozen:
		_, ok := ns.frozen[k.id]
		buf = appendOp(buf, k.dom, !ok, k.id)
	case domAbsorbed:
		buf = appendOp(buf, k.dom, !ns.absorbed[int(k.id)], k.id)
	}
	return buf
}

// pins selects the migration or reroute pin table by domain.
func (ns *nodeState) pins(dom byte) map[uint64]int {
	if dom == domMig {
		return ns.migrations
	}
	return ns.reroutes
}

// retiredTail is the queue position one past the newest dedup
// retirement. Callers hold ns.mu.
func (ns *nodeState) retiredTail() uint64 { return ns.retiredBase + uint64(len(ns.retired)) }

// appendMeta renders the dedup queue's new entries and the meta key.
// Entries retired and already evicted again between two batches are
// skipped: the head position that follows tells replay they are gone.
// Callers hold ns.mu.
func (ns *nodeState) appendMeta(buf []byte) []byte {
	head := ns.retiredBase + uint64(ns.retiredHead)
	for pos := max(ns.retiredLogged, head); pos < ns.retiredTail(); pos++ {
		e := ns.retired[pos-ns.retiredBase]
		buf = appendOp(buf, domRetired, false, pos)
		buf = binary.AppendUvarint(buf, e.id)
		buf = binary.AppendUvarint(buf, e.hop)
	}
	ns.retiredLogged = ns.retiredTail()

	buf = append(buf, domMeta<<1)
	buf = appendCounters(buf, counters{Created: ns.created, Finished: ns.finished, Sent: ns.sent, Received: ns.received})
	buf = binary.AppendUvarint(buf, ns.nextAgent)
	buf = binary.AppendVarint(buf, ns.arrivals)
	var flags byte
	if ns.draining {
		flags |= flagDraining
	}
	if ns.evacuated {
		flags |= flagEvacuated
	}
	if ns.drained {
		flags |= flagDrained
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(ns.absorbTarget))
	return binary.AppendUvarint(buf, head)
}

// capture appends the operations of one batch to buf and empties the
// dirty sets: the keys dirtied since the last batch or, when full, every
// key the node holds — a snapshot is nothing but a batch of every key,
// written through the same encoders. Each lock domain (nodeState, vars,
// cancels) is captured consistently with itself; cross-domain skew is
// harmless because every domain only ever gets *newer* (see the
// ordering argument in sync).
func (ns *nodeState) capture(buf []byte, full bool) ([]byte, error) {
	ns.mu.Lock()
	d := ns.dirty
	if full {
		for id := range ns.ckpt {
			d.keys[recKey{domCkpt, id}] = struct{}{}
		}
		for id := range ns.lastHop {
			d.keys[recKey{domHop, id}] = struct{}{}
		}
		for job := range ns.perJob {
			d.keys[recKey{domJob, job}] = struct{}{}
		}
		for id := range ns.migrations {
			d.keys[recKey{domMig, id}] = struct{}{}
		}
		for id := range ns.reroutes {
			d.keys[recKey{domReroute, id}] = struct{}{}
		}
		for job := range ns.frozen {
			d.keys[recKey{domFrozen, job}] = struct{}{}
		}
		for src := range ns.absorbed {
			d.keys[recKey{domAbsorbed, uint64(src)}] = struct{}{}
		}
		d.keys[metaKey] = struct{}{}
		ns.retiredLogged = 0
	}
	_, meta := d.keys[metaKey]
	delete(d.keys, metaKey)
	for k := range d.keys {
		buf = ns.appendKey(buf, k)
	}
	clear(d.keys)
	if meta {
		buf = ns.appendMeta(buf)
	}
	ns.mu.Unlock()

	buf, err := ns.vars.capture(buf, full)
	if err != nil {
		return nil, err
	}
	return ns.cancels.capture(buf, full), nil
}

// capture appends the store's dirty variables (all of them when full)
// as name → payload (see payload.go) puts, or deletes for names no
// longer set.
func (s *store) capture(buf []byte, full bool) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if full {
		for name := range s.m {
			s.dirty.keys[name] = struct{}{}
		}
	}
	for name := range s.dirty.keys {
		v, ok := s.m[name]
		tag := domVar << 1
		if !ok {
			tag |= 1
		}
		buf = appendString(append(buf, tag), name)
		if ok {
			b, err := encodeState(v)
			if err != nil {
				return nil, fmt.Errorf("wire: persist variable %q: %w", name, err)
			}
			buf = appendBytes(buf, b)
		}
	}
	clear(s.dirty.keys)
	return buf, nil
}

// capture appends the cancel marks set or released since the last batch.
func (cs *cancelSet) capture(buf []byte, full bool) []byte {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if full {
		for job := range cs.m {
			cs.dirty.keys[job] = struct{}{}
		}
	}
	for job := range cs.dirty.keys {
		_, ok := cs.m[job]
		buf = appendOp(buf, domCancel, !ok, job)
	}
	clear(cs.dirty.keys)
	return buf
}

// attach switches dirty tracking on and hands the node its persister.
// It runs before any daemon serves the node, so no mutation is missed.
func (ns *nodeState) attach(p *persister) {
	ns.persist = p
	ns.dirty = newDirtySet[recKey](&ns.seq)
	ns.vars.dirty = newDirtySet[string](&ns.seq)
	ns.cancels.dirty = newDirtySet[uint64](&ns.seq)
}

// sync makes every durable mutation made before the call survive a
// kill -9 once it returns, when persistence is enabled. Failures are
// returned so daemons can fail loudly: silently serving unpersisted acks
// would forfeit the recovery guarantee.
//
// The persister mutex is held across capture AND append. Capturing
// outside it would let two concurrent syncs interleave — goroutine A
// captures a key's value, B captures a newer one and appends it, B's
// caller externalizes an ack, then A appends its stale value behind B's
// — and a replay after kill -9 would end on the stale value and lose
// acknowledged work. Serializing capture-with-append makes log order
// capture order: whichever batch lands last observed every mutation any
// earlier sync's caller went on to acknowledge.
//
// The mutation sequence makes coalescing real. Every durable mutation
// bumps ns.seq under its domain's mutex; a batch captured after reading
// the sequence as N contains every mutation numbered <= N (capture takes
// each domain's mutex after the read, so it waits out a mutator still
// between its mark and its unlock). A sync whose own mutations are
// already covered — by a batch a concurrent sync wrote while this one
// waited for the mutex (group commit), or because it had none, as on a
// duplicate or refused frame — returns without writing.
//
//navplint:fact sync
func (ns *nodeState) sync() error {
	p := ns.persist
	if p == nil {
		return nil
	}
	want := ns.seq.Load()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil {
		return p.failed
	}
	if p.covered >= want {
		return nil
	}
	start := time.Now()
	if err := ns.appendBatch(); err != nil {
		p.failed = err
		return err
	}
	if p.logBytes > compactThreshold(p.snapBytes) {
		if err := ns.compactLocked(); err != nil {
			p.failed = err
			return err
		}
	}
	ns.met.persistSyncUS.Observe(time.Since(start).Microseconds())
	return nil
}

// appendBatch captures the dirty keys and appends them to the log as
// one record in one write(2). Callers hold p.mu.
func (ns *nodeState) appendBatch() error {
	p := ns.persist
	upTo := ns.seq.Load()
	buf, start := beginRecord(p.buf[:0], p.next)
	empty := len(buf)
	buf, err := ns.capture(buf, false)
	if err != nil {
		return err
	}
	p.recycle(buf)
	if len(buf) > empty { // a snapshot may have swept these mutations up already
		if err := endRecord(buf, start); err != nil {
			return err
		}
		if _, err := p.log.Write(buf); err != nil {
			return fmt.Errorf("wire: append to %s: %w", p.log.Name(), err)
		}
		p.next++
		p.logBytes += int64(len(buf))
		ns.met.persistBatchBytes.Add(int64(len(buf)))
		ns.met.persistLogBytes.Set(p.logBytes)
	}
	p.covered = upTo
	return nil
}

// compactLocked rewrites the node's full image as the snapshot of a new
// generation and starts that generation's log. The rename is the commit
// point: before it the old (snapshot, log) pair is intact and the temp
// file is swept on open; after it the new snapshot names a generation
// whose log is empty or missing, which is exactly its content, and the
// old log is stale. Callers hold p.mu.
func (ns *nodeState) compactLocked() error {
	p := ns.persist
	gen, upTo := p.gen+1, ns.seq.Load()
	buf, start := beginRecord(appendFileHeader(p.buf[:0], gen, ns.id), p.next)
	buf, err := ns.capture(buf, true)
	if err != nil {
		return err
	}
	if err := endRecord(buf, start); err != nil {
		return err
	}
	snap := filepath.Join(p.dir, snapshotName)
	if err := os.WriteFile(snap+".tmp", buf, 0o644); err != nil {
		return fmt.Errorf("wire: compact: %w", err)
	}
	if err := os.Rename(snap+".tmp", snap); err != nil {
		return fmt.Errorf("wire: compact: %w", err)
	}
	p.snapBytes = int64(len(buf))
	p.recycle(buf)
	p.next++
	p.covered = upTo
	old, oldGen := p.log, p.gen
	if err := p.openLog(gen, ns.id, 0); err != nil {
		return err
	}
	old.Close()
	os.Remove(p.logPath(oldGen)) // best-effort: a survivor is swept as a stale generation on open
	ns.met.persistCompactions.Inc()
	ns.met.persistLogBytes.Set(p.logBytes)
	return nil
}

// openLog opens generation gen's log for appending, cut to its valid
// bytes; a log with none (new, or torn inside its own header) starts
// with a fresh header.
func (p *persister) openLog(gen uint64, node int, valid int64) error {
	f, err := os.OpenFile(p.logPath(gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wire: state log: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return fmt.Errorf("wire: truncate %s at offset %d: %w", f.Name(), valid, err)
	}
	if valid == 0 {
		if _, err := f.Write(appendFileHeader(nil, gen, node)); err != nil {
			f.Close()
			return fmt.Errorf("wire: state log: %w", err)
		}
		valid = int64(fileHeaderLen)
	}
	p.log, p.gen, p.logBytes = f, gen, valid
	return nil
}

// load replays the state directory into ns and switches its dirty
// tracking on: snapshot, then the current generation's batches in order,
// stopping at a torn tail and cutting it off.
func (p *persister) load(ns *nodeState) error {
	if _, err := os.Stat(filepath.Join(p.dir, legacyStateName)); err == nil {
		return fmt.Errorf("wire: %s: offset 0: schema-2 whole-image snapshot; this daemon reads schema %d (snapshot + log) and will not start over it",
			filepath.Join(p.dir, legacyStateName), logSchema)
	}
	ld := &loader{ns: ns, vars: map[string][]byte{}}
	snap := filepath.Join(p.dir, snapshotName)
	data, err := os.ReadFile(snap)
	switch {
	case err == nil:
		if p.gen, err = parseFileHeader(snap, data, ns.id); err != nil {
			return err
		}
		// The snapshot got its name by rename, whole: anything but exactly
		// one intact record is damage, not a torn write.
		valid, n, err := ld.replay(snap, data, true)
		if err != nil {
			return err
		}
		if n != 1 || valid != int64(len(data)) {
			return fmt.Errorf("wire: %s: offset %d: damaged snapshot (schema %d)", snap, valid, logSchema)
		}
		p.snapBytes = int64(len(data))
	case !os.IsNotExist(err):
		return fmt.Errorf("wire: state dir: %w", err)
	}

	// Sweep what an interrupted compaction or an older generation left.
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("wire: state dir: %w", err)
	}
	current := filepath.Base(p.logPath(p.gen))
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") || (strings.HasPrefix(name, logFilePrefix) && name != current) {
			os.Remove(filepath.Join(p.dir, name))
		}
	}

	var valid int64
	logPath := p.logPath(p.gen)
	data, err = os.ReadFile(logPath)
	switch {
	case err == nil && len(data) >= fileHeaderLen:
		gen, err := parseFileHeader(logPath, data, ns.id)
		if err != nil {
			return err
		}
		if gen != p.gen {
			return fmt.Errorf("wire: %s: offset %d: header names generation %d (schema %d)", logPath, len(fileMagic)+1, gen, logSchema)
		}
		var n int
		if valid, n, err = ld.replay(logPath, data, false); err != nil {
			return err
		}
		ns.met.persistReplayed.Add(int64(n))
	case err != nil && !os.IsNotExist(err):
		return fmt.Errorf("wire: state dir: %w", err)
	}
	if err := ld.finish(); err != nil {
		return err
	}
	if err := p.openLog(p.gen, ns.id, valid); err != nil {
		return err
	}
	p.next = ld.next
	ns.met.persistLogBytes.Set(p.logBytes)
	ns.attach(p)
	return nil
}

// loader folds batches into a nodeState. Variables are kept encoded
// until the replay ends, so a log full of operand blocks set and cleared
// again costs no gob decoding for values nothing will ever read.
type loader struct {
	ns   *nodeState
	vars map[string][]byte
	next uint64 // index the next batch must carry
}

// replay applies the records of one file (past its header) in order and
// returns the offset the valid ones end at and how many there were. A record the file ends
// inside, or whose checksum fails with nothing behind it, is a torn
// tail: replay stops there without applying any of it. A bad checksum
// with more file behind it is damage and an error.
func (ld *loader) replay(path string, data []byte, snapshot bool) (valid int64, n int, err error) {
	off := fileHeaderLen
	refuse := func(format string, args ...any) (int64, int, error) {
		return 0, 0, fmt.Errorf("wire: %s: offset %d: %s (schema %d)", path, off, fmt.Sprintf(format, args...), logSchema)
	}
	for off < len(data) {
		if len(data)-off < recHeaderLen {
			break
		}
		end := off + recHeaderLen + int(binary.LittleEndian.Uint32(data[off:]))
		if end > len(data) || end < off {
			break
		}
		payload := data[off+recHeaderLen : end]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) {
			if end == len(data) {
				break
			}
			return refuse("record checksum mismatch before the log's tail")
		}
		r := &recReader{b: payload}
		if kind := r.byte(); kind != recBatch {
			return refuse("unknown record kind %d", kind)
		}
		index := r.uvarint()
		if !snapshot && index != ld.next {
			return refuse("batch %d where batch %d should follow", index, ld.next)
		}
		if err := ld.apply(r); err != nil {
			return refuse("%v", err)
		}
		ld.next = index + 1
		n++
		off = end
	}
	return int64(off), n, nil
}

// apply installs one batch's operations. The nodeState is not served
// yet and its dirty tracking is still off, so the ordinary helpers do
// the writes and keep the metric gauges in step with the reloaded
// footprint.
func (ld *loader) apply(r *recReader) error {
	ns := ld.ns
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for len(r.b) > 0 {
		tag := r.byte()
		dom, del := tag>>1, tag&1 == 1
		if dom == domVar {
			name := string(r.bytes())
			if del {
				delete(ld.vars, name)
			} else {
				ld.vars[name] = r.bytes()
			}
			continue
		}
		if dom == domMeta {
			if del {
				return errors.New("malformed batch: delete of the meta key")
			}
			c := r.counters()
			ns.created, ns.finished, ns.sent, ns.received = c.Created, c.Finished, c.Sent, c.Received
			ns.nextAgent, ns.arrivals = r.uvarint(), r.varint()
			flags := r.byte()
			ns.draining, ns.evacuated, ns.drained = flags&flagDraining != 0, flags&flagEvacuated != 0, flags&flagDrained != 0
			ns.absorbTarget = int(r.varint())
			// The queue head: entries below it are evicted. A head past the
			// tail means whole retirements came and went between batches.
			switch head := r.uvarint(); {
			case r.err != nil:
			case head < ns.retiredBase:
				return errors.New("malformed batch: dedup queue head moves backwards")
			case head > ns.retiredTail():
				ns.retired, ns.retiredHead, ns.retiredBase = ns.retired[:0], 0, head
			default:
				ns.retiredHead = int(head - ns.retiredBase)
			}
			continue
		}
		id := r.uvarint()
		switch dom {
		case domCkpt:
			if del {
				ns.delCkpt(id)
				break
			}
			c := &checkpoint{behavior: string(r.bytes()), hop: r.uvarint(), job: r.uvarint()}
			c.state = bytes.Clone(r.bytes()) // do not pin the whole file image
			ns.putCkpt(id, c)
		case domHop:
			if del {
				ns.delLastHop(id)
			} else {
				ns.setLastHop(id, r.uvarint())
			}
		case domJob:
			if del {
				ns.delJobCounters(id)
			} else {
				*ns.jobCounters(id) = r.counters()
			}
		case domMig, domReroute:
			if del {
				delete(ns.pins(dom), id)
			} else {
				ns.pins(dom)[id] = int(r.varint())
			}
		case domFrozen:
			if del {
				delete(ns.frozen, id)
			} else {
				ns.frozen[id] = struct{}{}
			}
		case domAbsorbed:
			if del {
				delete(ns.absorbed, int(id))
			} else {
				ns.absorbed[int(id)] = true
			}
		case domRetired:
			e := dedupRetired{id: r.uvarint(), hop: r.uvarint()}
			switch tail := ns.retiredTail(); {
			case del || id < tail:
				return errors.New("malformed batch: dedup queue entry out of order")
			case id > tail:
				// Everything older was evicted before this batch was cut
				// (appendMeta skips such entries): restart the queue here.
				ns.retired, ns.retiredHead, ns.retiredBase = ns.retired[:0], 0, id
			}
			ns.retired = append(ns.retired, e)
		case domCancel:
			// The cancel set has its own mutex; nothing else runs yet, and
			// lock order elsewhere is never cancels → ns.
			if del {
				ns.cancels.release(id)
			} else {
				ns.cancels.cancel(id)
			}
		default:
			return fmt.Errorf("malformed batch: unknown key domain %d", dom)
		}
		if r.err != nil {
			break
		}
	}
	return r.err
}

// finish decodes the variables that survived the replay and settles the
// dedup queue's log position.
func (ld *loader) finish() error {
	for name, b := range ld.vars {
		v, err := decodeState(b)
		if err != nil {
			return fmt.Errorf("wire: restore variable %q: %w", name, err)
		}
		ld.ns.vars.set(name, v)
	}
	ld.ns.retiredLogged = ld.ns.retiredTail()
	return nil
}

package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Message kinds on the wire.
const (
	msgAgent    = "agent"    // a migrating computation's state
	msgAck      = "ack"      // receiver: hop frame durably checkpointed
	msgSnapshot = "snapshot" // coordinator polling a daemon's counters
	msgCounters = "counters" // a daemon's reply
	msgPing     = "ping"     // coordinator heartbeat probe
	msgPong     = "pong"     // a daemon's heartbeat reply
	msgShutdown = "shutdown" // coordinator: quiesced, stop serving

	// Membership (multi-host clusters; see DESIGN.md §13).
	msgJoin    = "join"    // a starting daemon announces itself (Addr); empty Addr = observer query
	msgMembers = "members" // the membership list: join reply (You = your id) or peer broadcast (You = -1)
	msgLeave   = "leave"   // graceful departure notice for member Node

	// Coordinator → daemon control (the RemoteCluster surface).
	msgInject = "inject" // inject Agent locally under namespace Job
	msgSetVar = "setvar" // set node variable Name = Value
	msgGetVar = "getvar" // read node variable Name
	msgVar    = "var"    // getvar reply (Value)
	msgCancel = "cancel" // mark job namespace Job cancelled
	msgFree   = "free"   // release job namespace Job's bookkeeping
	msgClear  = "clear"  // delete node variables with prefix Name
	msgOK     = "ok"     // generic control acknowledgement (Err carries failure)

	// Elasticity control (DESIGN.md §16). The one system-initiated
	// migration is drain's evacuation, and it rides the agent path
	// itself — an evacuated agent ships as a normal msgAgent at hop+1 —
	// so only the drain and freeze state machines need control frames.
	msgDrain  = "drain"  // evacuate every agent, absorb counters, leave (Count = timeout ms, 0 = default)
	msgAbsorb = "absorb" // a draining node Node hands its counter totals (Counters, PerJob) to a survivor
	msgFreeze = "freeze" // park namespace Job's agents at their next dispatch
	msgThaw   = "thaw"   // unpark namespace Job's agents and resume them
)

// envelope is the single message type on the wire; unused fields stay
// zero and are not sent.
type envelope struct {
	Kind string
	// Agent migration (msgAgent) and remote injection (msgInject).
	Agent *agentMsg
	// Hop acknowledgement (the checkpoint/dedup handshake).
	Ack ackMsg
	// Termination detection (Mattern's four counters). Job selects which
	// namespace a msgSnapshot polls: 0 is the cluster-wide total, any
	// other value the per-job slice (see nodeState.jobCounters). Job is
	// also the namespace operand of msgInject/msgCancel/msgFree.
	Counters counters
	Job      uint64

	// Membership handshake: the joiner's advertised address (msgJoin),
	// the address table in node-id order (msgMembers), the assigned node
	// id in a join reply — -1 for observers and broadcasts (msgMembers) —
	// and the departing member (msgLeave).
	Addr    string
	Members []string
	You     int
	Node    int

	// Control operands: variable name or prefix (msgSetVar, msgGetVar,
	// msgClear), boxed variable value (msgSetVar, msgVar), and the error
	// text of a failed control operation (msgOK, msgVar).
	Name  string
	Value *stateBox
	Err   string

	// Drain operands: the evacuation timeout in milliseconds (msgDrain)
	// and a draining node's per-job counter slices (msgAbsorb, alongside
	// the cluster-wide total in Counters).
	Count  int
	PerJob map[uint64]counters
}

// agentMsg is a migrating computation between steps: the behavior name
// (code is pre-installed), the carried state, and the identity that
// makes delivery exactly-once under retries — a cluster-unique agent ID
// and the count of hops the agent has completed. A receiver accepts a
// frame only when Hop exceeds the highest hop it has recorded for ID;
// anything else is a duplicate or a replay and is acknowledged but
// discarded.
//
// Job is the agent's job namespace, inherited by everything it injects
// and carried across every hop. It scopes the termination counters (so
// one tenant's quiescence is detectable while others still run) and the
// cancellation set; 0 is the default namespace of plain Inject.
type agentMsg struct {
	ID       uint64
	Hop      uint64
	Job      uint64
	Behavior string
	State    any

	// payload is State's payload as it arrived in a frame — a copy of the
	// frame body, so nothing the step later does to State reaches it — and
	// nil for an agent that did not arrive in one. It is what accept and a
	// remote inject checkpoint (encoded once per hop, not once per hop and
	// again per checkpoint), and it is dropped when the step starts.
	payload []byte
}

// snapshot returns the checkpoint bytes of the agent's state: the
// payload it arrived with, or a fresh encoding.
func (msg *agentMsg) snapshot() ([]byte, error) {
	if msg.payload != nil {
		return msg.payload, nil
	}
	return encodeState(msg.State)
}

// ackMsg acknowledges one hop frame: the receiver has checkpointed the
// agent (or already had it — Dup). On receipt the sender retires its own
// checkpoint of the agent's previous hop and counts the send.
//
// Refused is the tombstone-shell refusal (DESIGN.md §16): an evacuated
// node acknowledging that it did NOT accept a fresh frame. The sender
// may then reroute the agent to a live member, knowing no second copy
// exists — the refusing node either never saw this (id, hop) or would
// have answered Dup.
type ackMsg struct {
	ID      uint64
	Hop     uint64
	Dup     bool
	Refused bool
}

// counters is one daemon's contribution to the termination snapshot.
type counters struct {
	Created, Finished int64
	Sent, Received    int64
}

func (c *counters) add(o counters) {
	c.Created += o.Created
	c.Finished += o.Finished
	c.Sent += o.Sent
	c.Received += o.Received
}

// maxFrameBytes bounds a single frame; anything larger is rejected before
// allocation, so a corrupted length prefix cannot exhaust memory.
const maxFrameBytes = 64 << 20

var (
	errFrameTooLarge  = errors.New("wire: frame exceeds size limit")
	errBadFramePrefix = errors.New("wire: malformed frame length prefix")
)

// frameVersion is the first byte of every frame body. Version 2 is the
// hand-framed header below; the frames of earlier revisions were one gob
// stream each, whose first byte is a gob message length and never 2.
const frameVersion = 2

// A v2 frame body is
//
//	version (2) | Kind (uvarint length + bytes) | presence bits (uvarint) |
//	the fields whose bit is set, in bit order | at most one payload
//
// written with the record primitives the state log uses (record.go). A
// field is sent when it is not zero, so a decoded envelope equals the
// encoded one. The payload — the agent's state or the Value — runs to
// the end of the body, in the format of payload.go.
const (
	hasAgent    = 1 << iota // agent ID, Hop, Job (uvarints), Behavior; the payload is its State
	hasAck                  // ack ID, Hop (uvarints), flags (ackDup | ackRefused)
	hasCounters             // four varints
	hasJob                  // uvarint
	hasAddr                 // string
	hasMembers              // uvarint count, then strings
	hasYou                  // varint
	hasNode                 // varint
	hasName                 // string
	hasErr                  // string
	hasCount                // varint
	hasPerJob               // uvarint count, then (uvarint job, four varints) by ascending job
	hasValue                // no header field; the payload is Value.V

	knownFields = hasValue<<1 - 1
)

const (
	ackDup = 1 << iota
	ackRefused
)

// headerReserve is the space kept at the front of a frame buffer for
// the uvarint length prefix: the prefix is written backwards into the
// reservation once the body length is known, so header and body leave
// the encoder as one contiguous, copy-free byte slice.
const headerReserve = binary.MaxVarintLen64

// frame is one encoded wire frame backed by a pooled buffer. bytes()
// is valid until release(); a released frame's storage is recycled for
// later encodes, which is what keeps steady-state hop traffic free of
// per-frame buffer allocations.
type frame struct {
	buf *[]byte
	off int // start of the uvarint header inside *buf
}

// bytes returns the wire representation: uvarint length prefix followed
// by the body, one contiguous slice with no copy.
func (f *frame) bytes() []byte { return (*f.buf)[f.off:] }

// size returns the on-wire frame length in bytes.
func (f *frame) size() int { return len(*f.buf) - f.off }

// release recycles the frame's buffer. The frame (and any slice
// obtained from bytes()) must not be used afterwards.
func (f *frame) release() {
	putBodyBuf(f.buf)
	f.buf = nil
}

// maxPooledBuf bounds what the buffer pools retain: buffers that grew
// beyond it (a huge agent state, a burst frame) are dropped for the GC
// instead of parked, so the pools cannot ratchet up to peak size
// forever.
const maxPooledBuf = 1 << 20

// encodeFrame renders an envelope as one self-contained frame: a uvarint
// length prefix, then the v2 body. Self-contained frames — rather than
// one long-lived stream per connection — are what make the fault layer
// possible: a frame can be retransmitted or duplicated byte-for-byte, a
// reconnect needs no stream state, and a corrupted frame cannot
// desynchronize a decoder's state (payloads carry their own gob type
// descriptors; see payload.go).
//
// The body is appended to a pooled buffer after a reserved header
// region, and the prefix is then written backwards into the tail of that
// reservation — no append copy of the body, no per-frame buffer
// allocation. Callers release() the frame once written.
func encodeFrame(env *envelope) (*frame, error) {
	bp := getBodyBuf(headerReserve)
	b, err := env.appendBody(*bp)
	*bp = b
	if err != nil {
		putBodyBuf(bp)
		return nil, fmt.Errorf("wire: encode %s frame: %w", env.Kind, err)
	}
	bodyLen := len(b) - headerReserve
	if bodyLen > maxFrameBytes {
		putBodyBuf(bp)
		return nil, errFrameTooLarge
	}
	var hdr [headerReserve]byte
	n := binary.PutUvarint(hdr[:], uint64(bodyLen))
	off := headerReserve - n
	copy(b[off:headerReserve], hdr[:n])
	return &frame{buf: bp, off: off}, nil
}

// appendBody appends env's v2 body to b.
func (env *envelope) appendBody(b []byte) ([]byte, error) {
	var bits uint64
	set := func(bit uint64, on bool) {
		if on {
			bits |= bit
		}
	}
	set(hasAgent, env.Agent != nil)
	set(hasAck, env.Ack != ackMsg{})
	set(hasCounters, env.Counters != counters{})
	set(hasJob, env.Job != 0)
	set(hasAddr, env.Addr != "")
	set(hasMembers, len(env.Members) > 0)
	set(hasYou, env.You != 0)
	set(hasNode, env.Node != 0)
	set(hasName, env.Name != "")
	set(hasErr, env.Err != "")
	set(hasCount, env.Count != 0)
	set(hasPerJob, len(env.PerJob) > 0)
	set(hasValue, env.Value != nil)
	if bits&hasAgent != 0 && bits&hasValue != 0 {
		return b, errors.New("an agent and a value in one frame")
	}

	b = append(b, frameVersion)
	b = appendString(b, env.Kind)
	b = binary.AppendUvarint(b, bits)
	if a := env.Agent; a != nil {
		b = binary.AppendUvarint(b, a.ID)
		b = binary.AppendUvarint(b, a.Hop)
		b = binary.AppendUvarint(b, a.Job)
		b = appendString(b, a.Behavior)
	}
	if bits&hasAck != 0 {
		var flags byte
		if env.Ack.Dup {
			flags |= ackDup
		}
		if env.Ack.Refused {
			flags |= ackRefused
		}
		b = binary.AppendUvarint(b, env.Ack.ID)
		b = binary.AppendUvarint(b, env.Ack.Hop)
		b = append(b, flags)
	}
	if bits&hasCounters != 0 {
		b = appendCounters(b, env.Counters)
	}
	if bits&hasJob != 0 {
		b = binary.AppendUvarint(b, env.Job)
	}
	if bits&hasAddr != 0 {
		b = appendString(b, env.Addr)
	}
	if bits&hasMembers != 0 {
		b = binary.AppendUvarint(b, uint64(len(env.Members)))
		for _, m := range env.Members {
			b = appendString(b, m)
		}
	}
	if bits&hasYou != 0 {
		b = binary.AppendVarint(b, int64(env.You))
	}
	if bits&hasNode != 0 {
		b = binary.AppendVarint(b, int64(env.Node))
	}
	if bits&hasName != 0 {
		b = appendString(b, env.Name)
	}
	if bits&hasErr != 0 {
		b = appendString(b, env.Err)
	}
	if bits&hasCount != 0 {
		b = binary.AppendVarint(b, int64(env.Count))
	}
	if bits&hasPerJob != 0 {
		jobs := make([]uint64, 0, len(env.PerJob))
		for job := range env.PerJob {
			jobs = append(jobs, job)
		}
		slices.Sort(jobs) // a retransmitted absorb frame is the same bytes
		b = binary.AppendUvarint(b, uint64(len(jobs)))
		for _, job := range jobs {
			b = appendCounters(binary.AppendUvarint(b, job), env.PerJob[job])
		}
	}
	switch {
	case env.Agent != nil:
		return appendState(b, env.Agent.State)
	case env.Value != nil:
		return appendState(b, env.Value.V)
	}
	return b, nil
}

// bodyPool recycles frame buffers: the encoder's, and readFrame's body
// buffers for frames up to maxPooledBuf. Oversized buffers stay one-shot
// allocations returned to the GC, so the pool's footprint is bounded no
// matter what a peer sends or an agent carries.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func getBodyBuf(n int) *[]byte {
	if n > maxPooledBuf {
		b := make([]byte, n)
		return &b
	}
	bp := bodyPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putBodyBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	bodyPool.Put(bp)
}

// readFrame reads one frame from a connection's buffered reader. The
// body is staged in a pooled buffer: decodeBody copies everything it
// keeps (and GobDecode implementations must not retain their input), so
// the buffer is safe to recycle as soon as decoding finishes.
func readFrame(r *bufio.Reader) (*envelope, error) {
	bp, err := readFrameBody(r)
	if err != nil {
		return nil, err
	}
	defer putBodyBuf(bp)
	return decodeBody(*bp)
}

// readFrameBody reads one frame's undecoded body into a pooled buffer,
// which the caller returns with putBodyBuf once it has decoded it. It is
// readFrame's first half, split out for the control connection's reader
// goroutine: that one hands the bytes to the caller that owns the reply
// and goes back to the socket, so a burst's replies are decoded by their
// callers in parallel instead of one after another on the reader.
func readFrameBody(r *bufio.Reader) (*[]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > maxFrameBytes {
		return nil, errFrameTooLarge
	}
	bp := getBodyBuf(int(size))
	if _, err := io.ReadFull(r, *bp); err != nil {
		putBodyBuf(bp)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return bp, nil
}

// decodeFrame decodes one complete frame from a byte slice. It is the
// network-facing decoder's core and the fuzz target: truncated or
// corrupted input must yield an error, never a panic.
func decodeFrame(data []byte) (*envelope, error) {
	size, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errBadFramePrefix
	}
	if size > maxFrameBytes {
		return nil, errFrameTooLarge
	}
	body := data[n:]
	if uint64(len(body)) < size {
		return nil, io.ErrUnexpectedEOF
	}
	return decodeBody(body[:size])
}

// decodeBody decodes a v2 frame body. The header reader and the payload
// decoder turn malformed input into errors, but they read
// attacker-controlled bytes, so the recover is the final guarantee that
// a hostile frame cannot take a daemon down.
func decodeBody(body []byte) (env *envelope, err error) {
	defer func() {
		if r := recover(); r != nil {
			env, err = nil, fmt.Errorf("wire: corrupt frame: %v", r)
		}
	}()
	r := recReader{b: body}
	if v := r.byte(); r.err != nil || v != frameVersion {
		return nil, fmt.Errorf("wire: frame version %d, this daemon reads version %d", v, frameVersion)
	}
	env = &envelope{Kind: frameKind(r.bytes())}
	bits := r.uvarint()
	if bits&^knownFields != 0 {
		return nil, fmt.Errorf("wire: %s frame with unknown fields %#x", env.Kind, bits&^knownFields)
	}
	if bits&hasAgent != 0 && bits&hasValue != 0 {
		return nil, fmt.Errorf("wire: %s frame with two payloads", env.Kind)
	}
	if bits&hasAgent != 0 {
		env.Agent = &agentMsg{ID: r.uvarint(), Hop: r.uvarint(), Job: r.uvarint(), Behavior: string(r.bytes())}
	}
	if bits&hasAck != 0 {
		env.Ack = ackMsg{ID: r.uvarint(), Hop: r.uvarint()}
		flags := r.byte()
		env.Ack.Dup, env.Ack.Refused = flags&ackDup != 0, flags&ackRefused != 0
	}
	if bits&hasCounters != 0 {
		env.Counters = r.counters()
	}
	if bits&hasJob != 0 {
		env.Job = r.uvarint()
	}
	if bits&hasAddr != 0 {
		env.Addr = string(r.bytes())
	}
	if bits&hasMembers != 0 {
		env.Members = make([]string, r.count(1))
		for i := range env.Members {
			env.Members[i] = string(r.bytes())
		}
	}
	if bits&hasYou != 0 {
		env.You = int(r.varint())
	}
	if bits&hasNode != 0 {
		env.Node = int(r.varint())
	}
	if bits&hasName != 0 {
		env.Name = string(r.bytes())
	}
	if bits&hasErr != 0 {
		env.Err = string(r.bytes())
	}
	if bits&hasCount != 0 {
		env.Count = int(r.varint())
	}
	if bits&hasPerJob != 0 {
		n := r.count(5)
		env.PerJob = make(map[uint64]counters, n)
		for i := 0; i < n; i++ {
			job := r.uvarint()
			env.PerJob[job] = r.counters()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("wire: corrupt %s frame: %w", env.Kind, r.err)
	}
	payload := r.b
	switch {
	case env.Agent != nil:
		env.Agent.payload = bytes.Clone(payload)
		if env.Agent.State, err = decodeState(env.Agent.payload); err != nil {
			return nil, err
		}
	case bits&hasValue != 0:
		v, err := decodeState(payload)
		if err != nil {
			return nil, err
		}
		env.Value = &stateBox{V: v}
	case len(payload) > 0:
		return nil, fmt.Errorf("wire: %s frame with %d trailing bytes", env.Kind, len(payload))
	}
	if err := env.validate(); err != nil {
		return nil, err
	}
	return env, nil
}

// frameKinds interns the kind names, so decoding a known kind allocates
// no string.
var frameKinds = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{msgAgent, msgAck, msgSnapshot, msgCounters, msgPing, msgPong, msgShutdown,
		msgJoin, msgMembers, msgLeave,
		msgInject, msgSetVar, msgGetVar, msgVar, msgCancel, msgFree, msgClear, msgOK,
		msgDrain, msgAbsorb, msgFreeze, msgThaw} {
		m[k] = k
	}
	return m
}()

func frameKind(b []byte) string {
	if k, ok := frameKinds[string(b)]; ok {
		return k
	}
	return string(b)
}

// validate enforces the frame's semantic invariants after decoding.
func (env *envelope) validate() error {
	switch env.Kind {
	case msgAgent, msgInject:
		if env.Agent == nil {
			return fmt.Errorf("wire: %s frame without an agent", env.Kind)
		}
		if env.Agent.Behavior == "" {
			return fmt.Errorf("wire: %s frame without a behavior name", env.Kind)
		}
	case msgJoin:
		// Empty Addr is the observer form ("send me the members").
		if env.Addr != "" {
			if err := validateAddr(env.Addr); err != nil {
				return err
			}
		}
	case msgMembers:
		if len(env.Members) == 0 {
			return errors.New("wire: members frame with an empty list")
		}
		if err := validateMembers(env.Members); err != nil {
			return err
		}
		if env.You < -1 || env.You >= len(env.Members) {
			return fmt.Errorf("wire: members frame assigns id %d of %d", env.You, len(env.Members))
		}
	case msgLeave:
		if env.Node < 0 {
			return fmt.Errorf("wire: leave frame for negative node %d", env.Node)
		}
	case msgSetVar, msgGetVar, msgClear:
		if env.Name == "" {
			return fmt.Errorf("wire: %s frame without a name", env.Kind)
		}
	case msgCancel, msgFree:
		if env.Job == 0 {
			return fmt.Errorf("wire: %s frame for the default namespace", env.Kind)
		}
	case msgFreeze, msgThaw:
		if env.Job == 0 {
			return fmt.Errorf("wire: %s frame for the default namespace", env.Kind)
		}
	case msgDrain:
		if env.Count < 0 {
			return fmt.Errorf("wire: drain frame with negative timeout %d", env.Count)
		}
	case msgAbsorb:
		if env.Node < 0 {
			return fmt.Errorf("wire: absorb frame from negative node %d", env.Node)
		}
	case msgAck, msgSnapshot, msgCounters, msgPing, msgPong, msgShutdown, msgVar, msgOK:
	default:
		return fmt.Errorf("wire: unknown frame kind %q", env.Kind)
	}
	return nil
}

package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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

	// Migration and elasticity control (DESIGN.md §16). Migration rides
	// the agent path itself — a marked agent ships as a normal msgAgent
	// at hop+1 — so only the *marking* and the drain/freeze state
	// machines need control frames.
	msgMigrate  = "migrate"  // mark up to Count agents (namespace Job, 0 = any) for migration to node Node
	msgMigrated = "migrated" // migrate reply: Count agents marked
	msgDrain    = "drain"    // evacuate every agent, absorb counters, leave (Count = timeout ms, 0 = default)
	msgAbsorb   = "absorb"   // a draining node Node hands its counter totals (Counters, PerJob) to a survivor
	msgFreeze   = "freeze"   // park namespace Job's agents at their next dispatch
	msgThaw     = "thaw"     // unpark namespace Job's agents and resume them
)

// envelope is the single wire format; unused fields stay zero.
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

	// Migration operands: a bounded agent count (msgMigrate request and
	// msgMigrated reply; drain timeout in milliseconds for msgDrain) and
	// a draining node's per-job counter slices (msgAbsorb, alongside the
	// cluster-wide total in Counters).
	Count  int
	PerJob map[uint64]counters
}

// agentMsg is a migrating computation between steps: the behavior name
// (code is pre-installed), the gob-encoded state, and the identity that
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
	buf *bytes.Buffer
	off int // start of the uvarint header inside buf.Bytes()
}

// bytes returns the wire representation: uvarint length prefix followed
// by the gob body, one contiguous slice with no copy.
func (f *frame) bytes() []byte { return f.buf.Bytes()[f.off:] }

// size returns the on-wire frame length in bytes.
func (f *frame) size() int { return f.buf.Len() - f.off }

// release recycles the frame's buffer. The frame (and any slice
// obtained from bytes()) must not be used afterwards.
func (f *frame) release() {
	putFrameBuf(f.buf)
	f.buf = nil
}

// maxPooledBuf bounds what the buffer pools retain: buffers that grew
// beyond it (a huge agent state, a burst frame) are dropped for the GC
// instead of parked, so the pools cannot ratchet up to peak size
// forever.
const maxPooledBuf = 1 << 20

var frameBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getFrameBuf() *bytes.Buffer {
	buf := frameBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putFrameBuf(buf *bytes.Buffer) {
	if buf == nil || buf.Cap() > maxPooledBuf {
		return
	}
	frameBufPool.Put(buf)
}

var headerPad [headerReserve]byte

// encodeFrame renders an envelope as one self-contained frame: a uvarint
// length prefix followed by a fresh gob stream. Self-contained frames —
// rather than one long-lived gob stream per connection — are what make
// the fault layer possible: a frame can be retransmitted or duplicated
// byte-for-byte, a reconnect needs no stream state, and a corrupted frame
// cannot desynchronize the decoder's type dictionary.
//
// The fast path: the gob body is encoded directly into a pooled buffer
// after a reserved header region, and the prefix is then written
// backwards into the tail of that reservation — no append copy of the
// body, no per-frame buffer allocation. Callers release() the frame
// once written.
func encodeFrame(env *envelope) (*frame, error) {
	buf := getFrameBuf()
	buf.Write(headerPad[:])
	if err := gob.NewEncoder(buf).Encode(env); err != nil {
		putFrameBuf(buf)
		return nil, fmt.Errorf("wire: encode frame: %w", err)
	}
	bodyLen := buf.Len() - headerReserve
	if bodyLen > maxFrameBytes {
		putFrameBuf(buf)
		return nil, errFrameTooLarge
	}
	var hdr [headerReserve]byte
	n := binary.PutUvarint(hdr[:], uint64(bodyLen))
	off := headerReserve - n
	copy(buf.Bytes()[off:headerReserve], hdr[:n])
	return &frame{buf: buf, off: off}, nil
}

// bodyPool recycles readFrame's body buffers for frames up to
// maxPooledBuf; oversized bodies stay one-shot allocations returned to
// the GC, so the pool's footprint is bounded no matter what the peer
// sends.
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
// body is staged in a pooled buffer: gob copies everything it decodes
// (and GobDecode implementations must not retain their input), so the
// buffer is safe to recycle as soon as decoding finishes.
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

// decodeBody gob-decodes a frame body. gob reports malformed input as an
// error, but it decodes attacker-controlled bytes, so the recover is the
// final guarantee that a hostile frame cannot take a daemon down.
func decodeBody(body []byte) (env *envelope, err error) {
	defer func() {
		if r := recover(); r != nil {
			env, err = nil, fmt.Errorf("wire: corrupt frame: %v", r)
		}
	}()
	env = new(envelope)
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(env); err != nil {
		return nil, fmt.Errorf("wire: decode frame: %w", err)
	}
	if err := env.validate(); err != nil {
		return nil, err
	}
	return env, nil
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
	case msgMigrate:
		if env.Node < 0 {
			return fmt.Errorf("wire: migrate frame to negative node %d", env.Node)
		}
		if env.Count < 0 {
			return fmt.Errorf("wire: migrate frame with negative count %d", env.Count)
		}
	case msgMigrated:
		if env.Count < 0 {
			return fmt.Errorf("wire: migrated reply with negative count %d", env.Count)
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

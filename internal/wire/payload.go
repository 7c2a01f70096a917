package wire

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// The payload codec: how a user value — an agent's carried state, a
// node variable — becomes the bytes of a frame, a checkpoint and a var/
// record. One format serves all three, so a hop's payload is encoded once
// and the receiver's checkpoint is the bytes that arrived.
//
// A payload is self-contained: it decodes on a fresh gob decoder with
// nothing else in hand. That is what lets a frame be retransmitted,
// duplicated or replayed byte for byte, and a checkpoint outlive the
// process that wrote it. It has one of two forms:
//
//	primed: 0x00 | uvarint len(P) | P | V
//	plain:  one gob stream holding stateBox{V: v}
//
// P is what a fresh gob encoder writes for stateBox{V: zero value of T}:
// every type descriptor T needs, then one throw-away value. V is the
// next message of that same encoder: the value alone, no descriptors.
// Concatenated, P and V are an ordinary gob stream, which is why every
// payload still decodes on a fresh decoder. What priming saves is the
// work of deriving descriptors and compiling engines for every value:
// encoders are pooled per type and each keeps its P, and decoders are
// pooled per P and have already consumed it, so both handle just V.
//
// Decoders are keyed on P's bytes, not on the type: gob numbers types
// process-globally, so two sender processes may describe one type with
// different ids, and a decoder primed with one sender's P would misread
// the other's V. Equal bytes mean equal numbering.
//
// Only types whose gob type graph has no interface below the top-level
// stateBox.V are primed (a GobEncoder, BinaryMarshaler or TextMarshaler
// counts as a leaf): values of an interface-typed field carry their
// concrete type's descriptors inside V. They, and nil, take the plain
// form. So did every payload of earlier revisions; a plain stream starts
// with a gob message length, and gob never emits an empty message, so a
// first byte of 0x00 cannot be ambiguous and checkpoints and var/
// records written before the primed form existed decode unchanged.

// stateBox wraps a payload value so a nil or interface-typed value
// round-trips through gob.
type stateBox struct{ V any }

const primedTag = 0x00

// maxPayloadPrefixes bounds how many distinct P a process keeps decoders
// for. Honest traffic needs one per (sender process, primed type) — a
// few dozen in a large cluster — and the bound keeps hostile or damaged
// payloads, each naming a P of its own, from growing the table without
// limit. A payload whose P finds no room decodes on a fresh decoder:
// correct, at the unprimed cost.
const maxPayloadPrefixes = 256

var (
	errPayloadEmpty  = errors.New("wire: empty payload")
	errPayloadFormat = errors.New("wire: malformed primed payload")
)

// encodeState renders v as a payload.
func encodeState(v any) ([]byte, error) { return appendState(nil, v) }

// appendState appends v's payload to dst.
func appendState(dst []byte, v any) ([]byte, error) {
	if v != nil {
		if tc := codecFor(reflect.TypeOf(v)); tc.primeable.Load() {
			if out, ok := tc.appendPrimed(dst, v); ok {
				return out, nil
			}
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&stateBox{V: v}); err != nil {
		return dst, fmt.Errorf("wire: payload encode: %w", err)
	}
	return append(dst, buf.Bytes()...), nil
}

// decodeState restores a payload of either form. It decodes bytes from
// the network and from disk, so the recover is the guarantee that no
// input panics a daemon.
func decodeState(b []byte) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("wire: corrupt payload: %v", r)
		}
	}()
	switch {
	case len(b) == 0:
		return nil, errPayloadEmpty
	case b[0] == primedTag:
		return decodePrimed(b[1:])
	}
	var box stateBox
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&box); err != nil {
		return nil, fmt.Errorf("wire: payload decode: %w", err)
	}
	return box.V, nil
}

// typeCodec is the payload codec's state for one type.
type typeCodec struct {
	// primeable starts as the type-graph verdict and is cleared for good
	// if the type's P fails to decode (a zero value its own GobDecode
	// refuses, say); checked records that P decoded once.
	primeable, checked atomic.Bool
	encoders           sync.Pool // *primedEncoder
}

var typeCodecs sync.Map // reflect.Type → *typeCodec

func codecFor(t reflect.Type) *typeCodec {
	if tc, ok := typeCodecs.Load(t); ok {
		return tc.(*typeCodec)
	}
	tc := &typeCodec{}
	tc.primeable.Store(noInterfaceBelow(t, map[reflect.Type]bool{}))
	actual, _ := typeCodecs.LoadOrStore(t, tc)
	return actual.(*typeCodec)
}

var (
	gobEncoderType    = reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	binaryMarshalType = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
	textMarshalType   = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// noInterfaceBelow reports whether gob's type graph for t reaches no
// interface: the condition for a P that describes every type V can
// name. Types that encode themselves are leaves, and so are the fields
// gob skips (unexported, chan, func).
func noInterfaceBelow(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return true
	}
	seen[t] = true
	for _, it := range []reflect.Type{gobEncoderType, binaryMarshalType, textMarshalType} {
		if t.Implements(it) || reflect.PointerTo(t).Implements(it) {
			return true
		}
	}
	switch t.Kind() {
	case reflect.Interface:
		return false
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return noInterfaceBelow(t.Elem(), seen)
	case reflect.Map:
		return noInterfaceBelow(t.Key(), seen) && noInterfaceBelow(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if k := f.Type.Kind(); !f.IsExported() || k == reflect.Chan || k == reflect.Func {
				continue
			}
			if !noInterfaceBelow(f.Type, seen) {
				return false
			}
		}
	}
	return true
}

// primedEncoder is a gob encoder that has written its type's P and
// writes each later value as one message into out.
type primedEncoder struct {
	enc    *gob.Encoder
	out    sliceWriter
	box    stateBox
	prefix []byte
}

// sliceWriter appends what gob writes to a slice the caller swaps in, so
// a value's message lands in the frame or record buffer directly.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// appendPrimed appends v in the primed form, or reports false — with dst
// unchanged — when it cannot, leaving the plain form to encode v or to
// report why it cannot be encoded.
func (tc *typeCodec) appendPrimed(dst []byte, v any) ([]byte, bool) {
	e, _ := tc.encoders.Get().(*primedEncoder)
	if e == nil {
		if e = tc.newEncoder(reflect.TypeOf(v)); e == nil {
			return dst, false
		}
	}
	start := len(dst)
	dst = append(dst, primedTag)
	dst = appendBytes(dst, e.prefix)
	value := len(dst)
	e.out.b, e.box.V = dst, v
	err := e.enc.Encode(&e.box)
	dst, e.out.b, e.box.V = e.out.b, nil, nil
	if err != nil || !isValueMessage(dst[value:]) {
		// The encoder's stream state is unknown now; it is not reused.
		return dst[:start], false
	}
	tc.encoders.Put(e)
	return dst, true
}

// newEncoder primes a fresh encoder for t, or returns nil when t cannot
// be primed. The first P of a type is decoded once here, so a payload
// this process writes always decodes.
func (tc *typeCodec) newEncoder(t reflect.Type) *primedEncoder {
	zero := reflect.Zero(t)
	if t.Kind() == reflect.Pointer {
		zero = reflect.New(t.Elem()) // gob refuses a nil pointer inside an interface
	}
	e := &primedEncoder{}
	e.enc = gob.NewEncoder(&e.out)
	if err := e.enc.Encode(&stateBox{V: zero.Interface()}); err != nil {
		return nil // unregistered, say; the plain form reports it
	}
	e.prefix, e.out.b = e.out.b, nil
	if !tc.checked.Load() {
		if _, err := newPrimedDecoder(e.prefix); err != nil {
			tc.primeable.Store(false)
			return nil
		}
		tc.checked.Store(true)
	}
	return e
}

// primedDecoder is a gob decoder that has consumed one P and decodes
// each V it is handed through in.
type primedDecoder struct {
	dec *gob.Decoder
	in  bytes.Reader
	box stateBox
}

// newPrimedDecoder feeds prefix to a fresh decoder. A P is descriptors
// plus exactly one value, of a type that may be primed.
func newPrimedDecoder(prefix []byte) (*primedDecoder, error) {
	d := &primedDecoder{}
	d.in.Reset(prefix)
	d.dec = gob.NewDecoder(&d.in) // bytes.Reader is an io.ByteReader: gob reads no further than it must
	if err := d.dec.Decode(&d.box); err != nil {
		return nil, fmt.Errorf("wire: payload prefix: %w", err)
	}
	if d.in.Len() != 0 || d.box.V == nil || !codecFor(reflect.TypeOf(d.box.V)).primeable.Load() {
		return nil, errPayloadFormat
	}
	d.box.V = nil
	return d, nil
}

// prefixes maps P (as a string of its bytes) to a pool of decoders
// primed with it.
var prefixes struct {
	mu sync.RWMutex
	m  map[string]*sync.Pool
}

// decoderPool returns the pool for prefix, adding one when create is set
// and the table has room; nil otherwise.
func decoderPool(prefix []byte, create bool) *sync.Pool {
	prefixes.mu.RLock()
	p := prefixes.m[string(prefix)]
	prefixes.mu.RUnlock()
	if p != nil || !create {
		return p
	}
	prefixes.mu.Lock()
	defer prefixes.mu.Unlock()
	if p = prefixes.m[string(prefix)]; p == nil && len(prefixes.m) < maxPayloadPrefixes {
		if prefixes.m == nil {
			prefixes.m = map[string]*sync.Pool{}
		}
		p = new(sync.Pool)
		prefixes.m[string(prefix)] = p
	}
	return p
}

// decodePrimed decodes b = uvarint len(P) | P | V. A decoder goes back
// to its pool only after a successful decode of a V that was exactly one
// value message naming its type by id, so a hostile payload can at worst
// cost a decoder, never leave one in a state that misreads the next.
// (Pooled decoders also live no longer than a garbage collection or two,
// which bounds whatever a well-formed but odd P could accumulate.)
func decodePrimed(b []byte) (any, error) {
	r := recReader{b: b}
	prefix := r.bytes()
	value := r.b
	if r.err != nil || !isValueMessage(value) {
		return nil, errPayloadFormat
	}
	pool := decoderPool(prefix, false)
	var d *primedDecoder
	if pool != nil {
		d, _ = pool.Get().(*primedDecoder)
	}
	if d == nil {
		var err error
		if d, err = newPrimedDecoder(prefix); err != nil {
			return nil, err
		}
	}
	d.in.Reset(value)
	d.box.V = nil // gob leaves a field the message omits untouched
	if err := d.dec.Decode(&d.box); err != nil {
		return nil, fmt.Errorf("wire: payload decode: %w", err)
	}
	v := d.box.V
	d.box.V = nil
	d.in.Reset(nil) // do not pin the caller's buffer
	if pool == nil {
		pool = decoderPool(prefix, true)
	}
	if pool != nil {
		pool.Put(d)
	}
	return v, nil
}

// isValueMessage reports whether m is exactly one gob message holding a
// stateBox value whose V names its concrete type by id — no type
// definition anywhere in it, the shape of every V a primed encoder
// writes. A stateBox value message is: length, type id (> 0), field
// delta 1, the concrete type's registered name, its type id (> 0; a
// negative one would open a type definition), then the value.
func isValueMessage(m []byte) bool {
	n, k := gobUint(m)
	if k == 0 || n != uint64(len(m)-k) {
		return false
	}
	m = m[k:]
	box, k := gobInt(m)
	if k == 0 || box <= 0 {
		return false
	}
	m = m[k:]
	delta, k := gobUint(m)
	if k == 0 || delta != 1 {
		return false
	}
	m = m[k:]
	name, k := gobUint(m)
	if k == 0 || name > uint64(len(m)-k) {
		return false
	}
	m = m[k+int(name):]
	concrete, k := gobInt(m)
	return k != 0 && concrete > 0
}

// gobUint decodes one of gob's unsigned integers — a byte below 0x80 is
// the value, otherwise the negated count of big-endian bytes that
// follow — returning the bytes consumed, or 0 when m holds none.
func gobUint(m []byte) (uint64, int) {
	if len(m) == 0 {
		return 0, 0
	}
	if m[0] < 0x80 {
		return uint64(m[0]), 1
	}
	n := -int(int8(m[0]))
	if n > 8 || len(m) <= n {
		return 0, 0
	}
	var x uint64
	for _, c := range m[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// gobInt decodes one of gob's signed integers (the sign in the low bit).
func gobInt(m []byte) (int64, int) {
	u, k := gobUint(m)
	if u&1 != 0 {
		return ^int64(u >> 1), k
	}
	return int64(u >> 1), k
}

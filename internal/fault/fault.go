// Package fault defines deterministic chaos plans for the NavP runtimes.
//
// A Plan is a seeded description of the faults a run should suffer:
// dropped, delayed, or duplicated hop frames, and daemon kills triggered
// after a fixed number of accepted agent arrivals. The same Plan value
// drives both the real-socket runtime (internal/wire), where faults
// manifest as lost TCP frames and killed daemons in wall-clock time, and
// the simulation backend (internal/navp on internal/sim), where the same
// decisions replay in virtual time.
//
// Every per-message decision is a pure hash of (seed, src, dst, seq,
// attempt) rather than a draw from a shared RNG stream, so the verdict
// for a given transmission does not depend on the order in which
// concurrent senders happen to ask — the property that makes a chaos
// scenario replayable on a nondeterministic transport.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kill schedules the death of one daemon: node Node is killed immediately
// after it has accepted its AfterArrivals-th agent (injections and
// deduplicated remote arrivals both count). Arrival counts persist across
// restarts, so a Kill fires at most once.
type Kill struct {
	Node          int
	AfterArrivals int
}

// Plan is a deterministic chaos scenario. The zero value injects nothing.
// Probabilities are in [0, 1]; durations are in seconds so the same plan
// reads naturally as virtual time on the sim backend and is converted to
// wall time by the wire runtime.
type Plan struct {
	// Seed namespaces every hash decision; two plans differing only in
	// Seed produce independent fault patterns.
	Seed int64
	// Drop is the probability that one transmission attempt of a hop
	// frame is lost in transit (the sender times out and retries).
	Drop float64
	// Dup is the expected number of duplicate copies delivered per
	// successful transmission: 1.0 duplicates every frame once, 10 sends
	// ten extra copies, 0.25 duplicates a quarter of frames.
	Dup float64
	// Delay is the probability that a transmission is delayed; a delayed
	// frame waits a hash-determined fraction of MaxDelay.
	Delay float64
	// MaxDelay bounds the injected delay, in seconds.
	MaxDelay float64
	// RetryTimeout is the resend timeout charged for a dropped frame, in
	// seconds: virtual on the sim backend, where zero means
	// DefaultRetryTimeout, and wall-clock on the wire runtime, where it is
	// the hop ack timeout and zero means the runtime's 500 ms.
	RetryTimeout float64
	// RestartDelay is how long a killed daemon stays down before its
	// supervisor restarts it, in seconds (virtual or wall-clock, as
	// above). Zero means DefaultRestartDelay.
	RestartDelay float64
	// Kills lists the scheduled daemon deaths.
	Kills []Kill
}

// Defaults for the zero-valued timing knobs.
const (
	DefaultRetryTimeout = 0.05 // 50 ms
	DefaultRestartDelay = 0.10 // 100 ms
)

// RetryTimeoutOrDefault returns RetryTimeout, defaulted.
func (p *Plan) RetryTimeoutOrDefault() float64 {
	if p.RetryTimeout > 0 {
		return p.RetryTimeout
	}
	return DefaultRetryTimeout
}

// RestartDelayOrDefault returns RestartDelay, defaulted.
func (p *Plan) RestartDelayOrDefault() float64 {
	if p.RestartDelay > 0 {
		return p.RestartDelay
	}
	return DefaultRestartDelay
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || p.Dup > 0 || p.Delay > 0 || len(p.Kills) > 0
}

// Decision is the injector's verdict for one transmission attempt.
type Decision struct {
	// Drop: the frame is lost; the sender must time out and retry.
	Drop bool
	// Dup is the number of extra copies delivered alongside the frame.
	Dup int
	// Delay is extra in-transit latency, in seconds.
	Delay float64
}

// Hash salts, one per independent decision aspect.
const (
	saltDrop = iota + 1
	saltDup
	saltDelay
	saltDelayAmount
)

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seq folds a message identity — agent ID and hop number — into one
// fault-decision sequence number without losing bits. The obvious
// `id<<16 ^ hop` is lossy: the wire runtime packs the origin node into
// the ID's high bits (bit 40 up), and the shift pushes everything above
// bit 47 off the top of the word, so agents born on nodes whose IDs
// differ only in those bits collide onto the same fault sequence and
// suffer identical (rather than independent) chaos decisions. A
// splitmix64 pass over the ID first spreads every input bit across the
// word, making the subsequent fold collision-resistant, and the outer
// pass decorrelates consecutive hops of the same agent.
func Seq(id, hop uint64) uint64 {
	return mix(mix(id) ^ hop)
}

// uniform derives a uniform [0,1) variate from the plan seed and the
// transmission's identity.
func (p *Plan) uniform(salt uint64, src, dst int, seq, attempt uint64) float64 {
	h := mix(uint64(p.Seed))
	h = mix(h ^ uint64(src))
	h = mix(h ^ uint64(dst)<<16)
	h = mix(h ^ seq)
	h = mix(h ^ attempt)
	h = mix(h ^ salt)
	return float64(h>>11) / (1 << 53)
}

// Decide returns the fault verdict for one transmission attempt of the
// frame identified by (src, dst, seq). seq identifies the logical message
// (the wire runtime folds the agent id and hop number into it; the sim
// backend uses a per-link counter); attempt distinguishes retries so a
// dropped frame is not dropped forever.
func (p *Plan) Decide(src, dst int, seq, attempt uint64) Decision {
	if p == nil {
		return Decision{}
	}
	var d Decision
	if p.Drop > 0 && p.uniform(saltDrop, src, dst, seq, attempt) < p.Drop {
		d.Drop = true
		return d
	}
	if p.Dup > 0 {
		d.Dup = int(p.Dup)
		if frac := p.Dup - float64(d.Dup); frac > 0 &&
			p.uniform(saltDup, src, dst, seq, attempt) < frac {
			d.Dup++
		}
	}
	if p.Delay > 0 && p.MaxDelay > 0 &&
		p.uniform(saltDelay, src, dst, seq, attempt) < p.Delay {
		d.Delay = p.MaxDelay * p.uniform(saltDelayAmount, src, dst, seq, attempt)
	}
	return d
}

// KillNow reports whether a scheduled kill fires for node having just
// accepted its arrivals-th agent. Arrival counts are monotone (and
// persist across restarts in the wire runtime), so the equality trigger
// fires at most once per Kill.
func (p *Plan) KillNow(node int, arrivals int64) bool {
	if p == nil {
		return false
	}
	for _, k := range p.Kills {
		if k.Node == node && int64(k.AfterArrivals) == arrivals {
			return true
		}
	}
	return false
}

// Parse builds a Plan from a compact comma-separated spec, e.g.
//
//	seed=7,drop=0.01,dup=10,delay=0.2,maxdelay=2ms,kill=1@3,kill=2@9
//
// Durations accept Go duration syntax (converted to seconds) or a bare
// float of seconds. Keys: seed, drop, dup, delay, maxdelay, retry,
// restart, kill=NODE@ARRIVALS (repeatable).
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			p.Drop, err = parseProb(val)
		case "dup":
			p.Dup, err = strconv.ParseFloat(val, 64)
		case "delay":
			p.Delay, err = parseProb(val)
		case "maxdelay":
			p.MaxDelay, err = parseSeconds(val)
		case "retry":
			p.RetryTimeout, err = parseSeconds(val)
		case "restart":
			p.RestartDelay, err = parseSeconds(val)
		case "kill":
			node, after, found := strings.Cut(val, "@")
			if !found {
				return nil, fmt.Errorf("fault: kill wants NODE@ARRIVALS, got %q", val)
			}
			var k Kill
			if k.Node, err = strconv.Atoi(node); err == nil {
				k.AfterArrivals, err = strconv.Atoi(after)
			}
			if err == nil {
				p.Kills = append(p.Kills, k)
			}
		default:
			return nil, fmt.Errorf("fault: unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad value in %q: %v", field, err)
		}
	}
	return p, nil
}

func parseProb(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("probability %g outside [0,1]", f)
	}
	return f, nil
}

func parseSeconds(val string) (float64, error) {
	if d, err := time.ParseDuration(val); err == nil {
		return d.Seconds(), nil
	}
	return strconv.ParseFloat(val, 64)
}

// String renders the plan in Parse syntax (diagnostics and reports).
func (p *Plan) String() string {
	if p == nil {
		return "none"
	}
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if p.Seed != 0 {
		add(fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.Drop > 0 {
		add(fmt.Sprintf("drop=%g", p.Drop))
	}
	if p.Dup > 0 {
		add(fmt.Sprintf("dup=%g", p.Dup))
	}
	if p.Delay > 0 {
		add(fmt.Sprintf("delay=%g,maxdelay=%gs", p.Delay, p.MaxDelay))
	}
	if p.RetryTimeout > 0 {
		add(fmt.Sprintf("retry=%gs", p.RetryTimeout))
	}
	if p.RestartDelay > 0 {
		add(fmt.Sprintf("restart=%gs", p.RestartDelay))
	}
	kills := append([]Kill(nil), p.Kills...)
	sort.Slice(kills, func(i, j int) bool {
		if kills[i].Node != kills[j].Node {
			return kills[i].Node < kills[j].Node
		}
		return kills[i].AfterArrivals < kills[j].AfterArrivals
	})
	for _, k := range kills {
		add(fmt.Sprintf("kill=%d@%d", k.Node, k.AfterArrivals))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

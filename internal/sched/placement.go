package sched

import (
	"sort"
	"sync"
)

// ConsistentHash is the scheduler's placement: it chooses the base PE
// that anchors a job's data distribution and injection points (wire
// works rotate their agents from it, (base+i) mod n, so jobs with
// different bases overlap on the cluster instead of all hammering
// PE 0). It places by consistent hashing with bounded load
// (Mirrokni et al.): each PE owns replicas points on a hash ring, a
// job's key hashes to a ring position, and the job walks clockwise from
// there taking the first PE whose live anchored-job count (the
// sched.node.load gauges) is below ceil(loadFactor × average+1). Keyed
// affinity gives resubmissions and related jobs a stable home; the load
// bound keeps a hot key from melting its node; and adding a PE moves
// only ~1/n of the keyspace, which is what makes the horizontal-scaling
// curve (1→2→4→8 daemons) behave under a live workload.
type ConsistentHash struct {
	met *schedMetrics

	mu    sync.Mutex
	ring  []ringPoint // cached ring, rebuilt when n changes
	ringN int
}

type ringPoint struct {
	hash uint64
	node int
}

// splitmix64 is the deterministic 64-bit mixer behind the ring and the
// key hash (no global rand, stable across runs and processes).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// replicas is the virtual-node count per PE, and loadFactor the
// bounded-load ceiling multiplier.
const (
	replicas   = 64
	loadFactor = 1.25
)

// ringFor returns the sorted ring for an n-node cluster, rebuilding the
// cache when the cluster size changed.
func (p *ConsistentHash) ringFor(n int) []ringPoint {
	if p.ringN == n {
		return p.ring
	}
	ring := make([]ringPoint, 0, n*replicas)
	for node := 0; node < n; node++ {
		for rep := 0; rep < replicas; rep++ {
			ring = append(ring, ringPoint{hash: splitmix64(uint64(node)<<20 | uint64(rep)), node: node})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	p.ring, p.ringN = ring, n
	return ring
}

// PlaceKey returns the base PE for the job with the given key on an
// n-node cluster: the same key maps to the same PE across submissions
// (modulo the load bound), so a resubmitted job finds its data-affine
// node.
func (p *ConsistentHash) PlaceKey(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ring := p.ringFor(n)
	// Keys hash in their own domain. Node 0's virtual point k is
	// splitmix64(k), so a plain splitmix64(key) would land every key
	// below replicas exactly on a node-0 point: small job ids would all
	// place on node 0.
	h := splitmix64(splitmix64(key))
	idx := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	if idx == len(ring) {
		idx = 0
	}
	// Bounded load: cap each PE at ceil(loadFactor × (total+1)/n) live
	// jobs; walk clockwise past full PEs. The average counts the job
	// being placed, so the cap is never zero and the walk always finds
	// a PE with headroom.
	var total int64
	var loads []int64
	if p.met != nil {
		loads = p.met.loads()
		for i := 0; i < n && i < len(loads); i++ {
			total += loads[i]
		}
	}
	cap64 := int64(loadFactor * float64(total+1) / float64(n))
	if cap64 < 1 {
		cap64 = 1
	}
	// The walk ends only after every distinct node has been examined:
	// consecutive ring points often belong to few real nodes, so counting
	// points would give up after n virtual nodes and dump the job on the
	// overloaded ring[idx].node while other nodes still have headroom.
	// Every node owns replicas points, so one lap of the ring provably
	// visits all n.
	seen := make([]bool, n)
	distinct := 0
	for i := 0; i < len(ring) && distinct < n; i++ {
		pt := ring[(idx+i)%len(ring)]
		var load int64
		if pt.node < len(loads) {
			load = loads[pt.node]
		}
		if load < cap64 {
			return pt.node
		}
		if !seen[pt.node] {
			seen[pt.node] = true
			distinct++
		}
	}
	// Every node is at the cap (a burst larger than the bound allows);
	// fall back to the key's home node so placement stays deterministic.
	return ring[idx].node
}

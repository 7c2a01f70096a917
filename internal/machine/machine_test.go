package machine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testConfig() Config {
	return Config{
		CPURate:       100e6,
		NICBandwidth:  10e6,
		SwitchLatency: 1e-3,
		SendOverhead:  0,
		RecvOverhead:  0,
		MemoryBytes:   1 << 20,
		PageInRate:    1e6,
		ElemBytes:     8,
	}
}

func almost(a, b sim.Time) bool { return math.Abs(a-b) < 1e-9 }

func TestConfigValidate(t *testing.T) {
	if err := SunBlade100().Validate(); err != nil {
		t.Fatalf("SunBlade100 invalid: %v", err)
	}
	bad := testConfig()
	bad.CPURate = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero CPURate accepted")
	}
	bad = testConfig()
	bad.NICBandwidth = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	bad = testConfig()
	bad.MemoryBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero memory accepted")
	}
}

// compute runs fn as one computation of flops on pe, as the runtimes do.
func compute(pe *PE, p *sim.Proc, flops float64, fn func()) {
	pe.StartCompute(p)
	if fn != nil {
		fn()
	}
	pe.EndCompute(p, flops)
}

func TestComputeChargesFlopsOverRate(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 1)
	var end sim.Time
	ran := false
	k.Spawn("p", func(p *sim.Proc) {
		compute(cl.PEs[0], p, 200e6, func() { ran = true })
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("compute body did not run")
	}
	if !almost(end, 2.0) {
		t.Fatalf("compute time %v, want 2s", end)
	}
}

func TestComputeSerializesPerPE(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 2)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn(fmt.Sprintf("same%d", i), func(p *sim.Proc) {
			compute(cl.PEs[0], p, 100e6, nil)
			ends = append(ends, p.Now())
		})
	}
	var otherEnd sim.Time
	k.Spawn("other", func(p *sim.Proc) {
		compute(cl.PEs[1], p, 100e6, nil)
		otherEnd = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(ends[0], 1) || !almost(ends[1], 2) {
		t.Fatalf("same-PE computations did not serialize: %v", ends)
	}
	if !almost(otherEnd, 1) {
		t.Fatalf("cross-PE computation did not overlap: %v", otherEnd)
	}
}

func TestSendCostEndToEnd(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 2)
	var ready sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		ready = cl.SendCost(p, 0, 1, 10e6) // 1 s serialize + 1 ms latency
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(ready, 1.001) {
		t.Fatalf("readyAt %v, want 1.001", ready)
	}
}

func TestLocalSendIsFree(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 2)
	k.Spawn("s", func(p *sim.Proc) {
		ready := cl.SendCost(p, 1, 1, 1<<30)
		if p.Now() != 0 || ready != 0 {
			t.Errorf("local send cost time=%v ready=%v", p.Now(), ready)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIngressContentionSerializes(t *testing.T) {
	// Two senders target the same receiver: transfers must serialize on
	// the receiver's ingress port.
	k := sim.New()
	cl := NewCluster(k, testConfig(), 3)
	var readies []sim.Time
	for src := 0; src < 2; src++ {
		src := src
		k.Spawn(fmt.Sprintf("s%d", src), func(p *sim.Proc) {
			readies = append(readies, cl.SendCost(p, src, 2, 10e6))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(readies[0], 1.001) || !almost(readies[1], 2.001) {
		t.Fatalf("readies %v, want serialization on ingress", readies)
	}
}

func TestDisjointTransfersOverlap(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 4)
	var readies []sim.Time
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		pair := pair
		k.Spawn(fmt.Sprintf("s%d", pair[0]), func(p *sim.Proc) {
			readies = append(readies, cl.SendCost(p, pair[0], pair[1], 10e6))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(readies[0], 1.001) || !almost(readies[1], 1.001) {
		t.Fatalf("disjoint transfers serialized: %v", readies)
	}
}

func TestOppositeTransfersNoDeadlock(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 2)
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			cl.SendCost(p, i, 1-i, 10e6)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("opposite transfers: %v", err)
	}
}

func TestRecvCostWaitsForArrival(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 2)
	var at sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		cl.RecvCost(p, 1, 5.0, false)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(at, 5.0) {
		t.Fatalf("receiver resumed at %v, want 5", at)
	}
}

func TestPagerHitsAndFaults(t *testing.T) {
	k := sim.New()
	pg := NewPager("m", 100, 10) // 100 B capacity, 10 B/s
	var after1, after2 sim.Time
	k.Spawn("p", func(p *sim.Proc) {
		pg.Touch(p, "a", 50) // fault: 5 s
		after1 = p.Now()
		pg.Touch(p, "a", 50) // hit: free
		after2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(after1, 5) || !almost(after2, 5) {
		t.Fatalf("times %v %v", after1, after2)
	}
	if pg.Faults() != 1 || pg.Hits() != 1 {
		t.Fatalf("faults=%d hits=%d", pg.Faults(), pg.Hits())
	}
}

func TestPagerLRUEviction(t *testing.T) {
	k := sim.New()
	pg := NewPager("m", 100, 1e9)
	k.Spawn("p", func(p *sim.Proc) {
		pg.Touch(p, "a", 40)
		pg.Touch(p, "b", 40)
		pg.Touch(p, "a", 40) // promote a
		pg.Touch(p, "c", 40) // evicts b (LRU), not a
		pg.Touch(p, "a", 40) // must still hit
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pg.Faults() != 3 {
		t.Fatalf("faults = %d, want 3 (a,b,c)", pg.Faults())
	}
	if pg.Hits() != 2 {
		t.Fatalf("hits = %d, want 2", pg.Hits())
	}
}

func TestPagerThrashingLoop(t *testing.T) {
	// A cyclic scan over a working set slightly larger than memory must
	// fault on every touch (classic LRU worst case — the paper's Table 2).
	k := sim.New()
	pg := NewPager("m", 100, 1e9)
	k.Spawn("p", func(p *sim.Proc) {
		for round := 0; round < 3; round++ {
			for b := 0; b < 3; b++ { // 3 × 40 B > 100 B
				pg.Touch(p, fmt.Sprintf("blk%d", b), 40)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pg.Faults() != 9 {
		t.Fatalf("faults = %d, want 9 (every touch misses)", pg.Faults())
	}
}

func TestPagerWarmIsFree(t *testing.T) {
	k := sim.New()
	pg := NewPager("m", 100, 1) // absurdly slow: any charged fault is huge
	pg.Warm("a", 80)
	var at sim.Time
	k.Spawn("p", func(p *sim.Proc) {
		pg.Touch(p, "a", 80)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("warm block charged time %v", at)
	}
	if pg.Faults() != 0 || pg.BytesPagedIn() != 0 {
		t.Fatalf("warm counted as fault: %d/%d", pg.Faults(), pg.BytesPagedIn())
	}
}

func TestPagerOversizeBlockPanics(t *testing.T) {
	pg := NewPager("m", 100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	pg.Warm("huge", 101)
}

func TestPagerResidencyInvariant(t *testing.T) {
	// Property: after any touch sequence, resident bytes never exceed
	// capacity and equal the sum of distinct resident entries.
	f := func(keys []uint8) bool {
		pg := NewPager("m", 256, 1e12)
		k := sim.New()
		ok := true
		k.Spawn("p", func(p *sim.Proc) {
			for _, kb := range keys {
				size := int64(kb%7)*16 + 16 // 16..112 B
				pg.Touch(p, fmt.Sprintf("k%d", kb%11), size)
				if pg.Resident() > pg.Capacity() {
					ok = false
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousCPURates(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 2)
	cl.SetCPURate(1, 50e6) // half speed
	var fastEnd, slowEnd sim.Time
	k.Spawn("fast", func(p *sim.Proc) {
		compute(cl.PEs[0], p, 100e6, nil)
		fastEnd = p.Now()
	})
	k.Spawn("slow", func(p *sim.Proc) {
		compute(cl.PEs[1], p, 100e6, nil)
		slowEnd = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(fastEnd, 1) || !almost(slowEnd, 2) {
		t.Fatalf("fast=%v slow=%v, want 1 and 2", fastEnd, slowEnd)
	}
}

func TestSetCPURateValidation(t *testing.T) {
	k := sim.New()
	cl := NewCluster(k, testConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero rate")
		}
	}()
	cl.SetCPURate(0, 0)
}

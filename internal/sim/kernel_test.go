package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunEmptyKernel(t *testing.T) {
	if err := New().Run(); err != nil {
		t.Fatalf("empty kernel: %v", err)
	}
}

func TestSingleProcessRuns(t *testing.T) {
	k := New()
	ran := false
	k.Spawn("p", func(p *Proc) { ran = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process did not run")
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(2.5)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 2.5 {
		t.Fatalf("woke at %v, want 2.5", at)
	}
	if k.Now() != 2.5 {
		t.Fatalf("kernel time %v, want 2.5", k.Now())
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	k.Spawn("b", func(p *Proc) { order = append(order, "b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "ba" {
		t.Fatalf("order %q, want ba (sleep 0 must yield)", got)
	}
}

func TestTimersFireInOrderWithStableTies(t *testing.T) {
	k := New()
	var order []int
	spawnAt := func(id int, at Time) {
		k.Spawn(fmt.Sprintf("p%d", id), func(p *Proc) {
			p.SleepUntil(at)
			order = append(order, id)
		})
	}
	spawnAt(0, 3)
	spawnAt(1, 1)
	spawnAt(2, 3) // tie with p0; p0 spawned (and slept) first
	spawnAt(3, 2)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() string {
		k := New()
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(i+1) * 0.1)
					log = append(log, fmt.Sprintf("%d.%d", i, j))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := New()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Spawn("child", func(c *Proc) {
			c.Sleep(1)
			childRan = true
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	ev := NewEvent("never")
	k.Spawn("waiter", func(p *Proc) { ev.Wait(p) })
	err := k.Run()
	dl, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "never") {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestPanicPropagates(t *testing.T) {
	k := New()
	k.Spawn("boom", func(p *Proc) { panic("kaboom") })
	k.Spawn("bystander", func(p *Proc) { p.Sleep(100) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic message", err)
	}
}

func TestEventCountingSemantics(t *testing.T) {
	k := New()
	ev := NewEvent("e")
	var got []Time
	k.Spawn("signaler", func(p *Proc) {
		ev.Signal() // pre-signal: must not be lost
		ev.Signal()
		p.Sleep(5)
		ev.Signal()
	})
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ev.Wait(p)
			got = append(got, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 0, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wait times %v, want %v", got, want)
		}
	}
	if ev.Count() != 0 {
		t.Fatalf("residual count %d", ev.Count())
	}
}

func TestEventFIFOWakeOrder(t *testing.T) {
	k := New()
	ev := NewEvent("e")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i) * 0.001) // enqueue in id order
			ev.Wait(p)
			order = append(order, i)
		})
	}
	k.Spawn("sig", func(p *Proc) {
		p.Sleep(1)
		for i := 0; i < 4; i++ {
			ev.Signal()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if order[i] != i {
			t.Fatalf("wake order %v, want FIFO", order)
		}
	}
}

func TestEventTryWait(t *testing.T) {
	ev := NewEvent("e")
	if ev.TryWait() {
		t.Fatal("TryWait on empty event succeeded")
	}
	ev.Signal()
	if !ev.TryWait() {
		t.Fatal("TryWait after signal failed")
	}
	if ev.TryWait() {
		t.Fatal("signal consumed twice")
	}
}

func TestResourceSerializesUse(t *testing.T) {
	k := New()
	cpu := NewResource("cpu", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("job%d", i), func(p *Proc) {
			cpu.Use(p, 2)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 4, 6}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	k := New()
	r := NewResource("r", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("job%d", i), func(p *Proc) {
			r.Use(p, 3)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{3, 3, 6, 6}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestResourceFIFOHeadOfLineBlocking(t *testing.T) {
	// A request for 2 units at the head must not be overtaken by a later
	// 1-unit request (strict FIFO admission, no starvation).
	k := New()
	r := NewResource("r", 2)
	var order []string
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10)
		r.Release(1)
	})
	k.Spawn("big", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 2)
		order = append(order, "big")
		r.Release(2)
	})
	k.Spawn("small", func(p *Proc) {
		p.Sleep(2)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "big" {
		t.Fatalf("order %v: small overtook big", order)
	}
}

func TestResourceReleaseAdmitsMultiple(t *testing.T) {
	k := New()
	r := NewResource("r", 4)
	var admitted []string
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(1)
		r.Release(4)
	})
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			p.Sleep(0.5)
			r.Acquire(p, 1)
			admitted = append(admitted, name)
			r.Release(1)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(admitted, "") != "abc" {
		t.Fatalf("admitted %v, want all three in FIFO order", admitted)
	}
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic from zero-capacity resource")
		}
	}()
	NewResource("r", 0)
}

func TestResourceOverAcquireFailsRun(t *testing.T) {
	k := New()
	r := NewResource("r", 1)
	k.Spawn("p", func(p *Proc) { r.Acquire(p, 2) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "acquire") {
		t.Fatalf("err = %v, want acquire panic surfaced", err)
	}
}

func TestResourceOverReleaseFailsRun(t *testing.T) {
	k := New()
	r := NewResource("r", 1)
	k.Spawn("p", func(p *Proc) { r.Release(1) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "released") {
		t.Fatalf("err = %v, want release panic surfaced", err)
	}
}

func TestTimerHeapPropertyOrdering(t *testing.T) {
	// Property: popping the heap yields timers sorted by (at, seq).
	f := func(times []float64) bool {
		var h timerHeap
		for i, at := range times {
			if at < 0 {
				at = -at
			}
			h.push(timer{at: at, seq: uint64(i)})
		}
		prev := timer{at: -1}
		for h.Len() > 0 {
			cur := h.pop()
			if cur.at < prev.at || (cur.at == prev.at && cur.seq < prev.seq) {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	k := New()
	rng := rand.New(rand.NewSource(1))
	total := 0
	const n = 500
	for i := 0; i < n; i++ {
		d := rng.Float64()
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Sleep(d)
			}
			total++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("completed %d of %d", total, n)
	}
}

func TestYieldRoundRobins(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Yield()
		order = append(order, "b2")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "a1 b1 a2 b2" {
		t.Fatalf("order %q", got)
	}
}

func TestParkReadyRoundTrip(t *testing.T) {
	k := New()
	var parked *Proc
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		parked = p
		p.Park("external")
		woke = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(3)
		k.Ready(parked)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Fatalf("woke at %v, want 3", woke)
	}
}

func TestNamesAndAccessors(t *testing.T) {
	k := New()
	ev := NewEvent("e1")
	r := NewResource("r1", 2)
	if ev.Name() != "e1" || r.Name() != "r1" {
		t.Fatal("names lost")
	}
	if r.Capacity() != 2 || r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatal("resource accessors wrong")
	}
	k.Spawn("p", func(p *Proc) {
		r.Acquire(p, 1)
		if r.InUse() != 1 {
			t.Error("resource in-use count wrong")
		}
		r.Release(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockUnwindsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	ev := NewEvent("never")
	other := NewEvent("other")
	cpu := NewResource("cpu", 1)
	unwound := 0
	k.Spawn("holder", func(p *Proc) {
		defer func() { unwound++ }()
		cpu.Acquire(p, 1)
		ev.Wait(p)
	})
	k.Spawn("waiter", func(p *Proc) {
		defer func() { unwound++ }()
		ev.Wait(p)
	})
	k.Spawn("receiver", func(p *Proc) {
		defer func() { unwound++ }()
		other.Wait(p)
	})
	k.Spawn("contender", func(p *Proc) {
		defer func() { unwound++ }()
		cpu.Acquire(p, 1)
	})
	k.Spawn("finisher", func(p *Proc) { p.Sleep(1) })
	err := k.Run()
	dl, ok := err.(*DeadlockError)
	if !ok || len(dl.Blocked) != 4 {
		t.Fatalf("got %v, want a DeadlockError naming four processes", err)
	}
	if unwound != 4 {
		t.Fatalf("deferred calls ran %d of 4 times when Run returned", unwound)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, %d before", n, base)
	}
}

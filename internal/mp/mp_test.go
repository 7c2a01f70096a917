package mp

import (
	"fmt"

	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func testHW() machine.Config {
	return machine.Config{
		CPURate:       100e6,
		NICBandwidth:  10e6,
		SwitchLatency: 1e-3,
		MemoryBytes:   1 << 30,
		PageInRate:    1e6,
		ElemBytes:     8,
	}
}

func eachWorld(t *testing.T, n int, f func(t *testing.T, w *World)) {
	t.Helper()
	t.Run("sim", func(t *testing.T) { f(t, NewSimWorld(testHW(), n)) })
	t.Run("real", func(t *testing.T) { f(t, NewRealWorld(n)) })
}

func TestPingPong(t *testing.T) {
	eachWorld(t, 2, func(t *testing.T, w *World) {
		var got any
		err := w.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Send(1, 7, "ping", 4)
				got = r.Recv(1, 8)
			case 1:
				msg := r.Recv(0, 7)
				r.Send(0, 8, msg.(string)+"/pong", 9)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != "ping/pong" {
			t.Fatalf("got %v", got)
		}
	})
}

func TestIrecvPrePostPreventsDeadlock(t *testing.T) {
	// Every rank sends east and receives from west simultaneously — the
	// paper's shift exchange. With rendezvous sends this deadlocks unless
	// receives are pre-posted, which is exactly why Gentleman's MPI code
	// uses MPI_Irecv.
	eachWorld(t, 4, func(t *testing.T, w *World) {
		var mu sync.Mutex
		sum := 0
		err := w.Run(func(r *Rank) {
			east := (r.ID() + 1) % r.Size()
			west := (r.ID() - 1 + r.Size()) % r.Size()
			req := r.Irecv(west, 0)
			r.Send(east, 0, r.ID(), 8)
			v := r.Wait(req).(int)
			mu.Lock()
			sum += v
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum != 0+1+2+3 {
			t.Fatalf("sum = %d", sum)
		}
	})
}

func TestBlockingSendsAloneDeadlock(t *testing.T) {
	// The same exchange with blocking receives only: all ranks park in
	// Send and the sim kernel reports the deadlock.
	w := NewSimWorld(testHW(), 3)
	err := w.Run(func(r *Rank) {
		east := (r.ID() + 1) % r.Size()
		west := (r.ID() - 1 + r.Size()) % r.Size()
		r.Send(east, 0, nil, 8)
		r.Recv(west, 0)
	})
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

func TestMessageOrderBetweenPairs(t *testing.T) {
	eachWorld(t, 2, func(t *testing.T, w *World) {
		var got []int
		err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				for i := 0; i < 5; i++ {
					r.Send(1, 3, i, 8)
				}
			} else {
				for i := 0; i < 5; i++ {
					got = append(got, r.Recv(0, 3).(int))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("messages reordered: %v", got)
			}
		}
	})
}

func TestTagsSelectMessages(t *testing.T) {
	eachWorld(t, 2, func(t *testing.T, w *World) {
		var a, b any
		err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				reqB := r.Irecv(1, 2)
				reqA := r.Irecv(1, 1)
				a, b = r.Wait(reqA), r.Wait(reqB)
			} else {
				r.Send(0, 1, "tag1", 4)
				r.Send(0, 2, "tag2", 4)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if a != "tag1" || b != "tag2" {
			t.Fatalf("a=%v b=%v", a, b)
		}
	})
}

func TestAnySource(t *testing.T) {
	eachWorld(t, 3, func(t *testing.T, w *World) {
		seen := map[string]bool{}
		err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				for i := 0; i < 2; i++ {
					seen[r.Recv(AnySource, 0).(string)] = true
				}
			} else {
				r.Send(0, 0, fmt.Sprintf("from%d", r.ID()), 8)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !seen["from1"] || !seen["from2"] {
			t.Fatalf("seen = %v", seen)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	eachWorld(t, 5, func(t *testing.T, w *World) {
		var mu sync.Mutex
		before, after := 0, 0
		violated := false
		err := w.Run(func(r *Rank) {
			mu.Lock()
			before++
			mu.Unlock()
			r.Barrier()
			mu.Lock()
			if before != 5 {
				violated = true
			}
			after++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if violated || after != 5 {
			t.Fatalf("barrier violated=%v after=%d", violated, after)
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	eachWorld(t, 3, func(t *testing.T, w *World) {
		err := w.Run(func(r *Rank) {
			for i := 0; i < 4; i++ {
				r.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestSimTransferTimeCharged(t *testing.T) {
	w := NewSimWorld(testHW(), 2)
	var recvDone sim.Time
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, nil, 10e6) // 1 s at 10 MB/s
		} else {
			r.Recv(0, 0)
			recvDone = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvDone < 1.0 || recvDone > 1.1 {
		t.Fatalf("recv completed at %v, want ~1.001", recvDone)
	}
}

func TestSimComputeOverlapsAcrossRanks(t *testing.T) {
	w := NewSimWorld(testHW(), 3)
	var finish sim.Time
	err := w.Run(func(r *Rank) {
		r.Compute(100e6, nil) // 1 s each
		r.Barrier()
		if r.ID() == 0 {
			finish = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if finish < 1.0 || finish > 1.2 {
		t.Fatalf("parallel compute finished at %v, want ~1 s (not 3 s)", finish)
	}
}

func TestWaitTwicePanics(t *testing.T) {
	w := NewSimWorld(testHW(), 2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			req := r.Irecv(1, 0)
			r.Wait(req)
			defer func() {
				if recover() == nil {
					t.Error("no panic on double Wait")
				}
			}()
			r.Wait(req)
		} else {
			r.Send(0, 0, nil, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRankPanics(t *testing.T) {
	w := NewSimWorld(testHW(), 2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(5, 0, nil, 0)
		}
	})
	if err == nil {
		t.Fatal("send to invalid rank did not fail the run")
	}
}

func TestCart2DGeometry(t *testing.T) {
	c := NewCart2D(3, 3)
	if c.Size() != 9 {
		t.Fatalf("size %d", c.Size())
	}
	if r, cl := c.Coords(5); r != 1 || cl != 2 {
		t.Fatalf("Coords(5) = (%d,%d)", r, cl)
	}
	if got := c.West(3); got != 5 { // (1,0) west -> (1,2)
		t.Fatalf("West(3) = %d, want 5", got)
	}
	if got := c.East(5); got != 3 { // (1,2) east -> (1,0)
		t.Fatalf("East(5) = %d, want 3", got)
	}
	if got := c.North(1); got != 7 { // (0,1) north -> (2,1)
		t.Fatalf("North(1) = %d, want 7", got)
	}
	if got := c.South(7); got != 1 {
		t.Fatalf("South(7) = %d, want 1", got)
	}
	if got := c.RankOf(-1, -1); got != 8 {
		t.Fatalf("RankOf(-1,-1) = %d, want 8", got)
	}
}

func TestCart2DRoundTrip(t *testing.T) {
	c := NewCart2D(2, 4)
	for id := 0; id < c.Size(); id++ {
		r, cl := c.Coords(id)
		if c.RankOf(r, cl) != id {
			t.Fatalf("round trip failed for %d", id)
		}
		if c.East(c.West(id)) != id || c.South(c.North(id)) != id {
			t.Fatalf("shift inverse failed for %d", id)
		}
	}
}

func TestSimDeterministicFinishTime(t *testing.T) {
	run := func() sim.Time {
		w := NewSimWorld(testHW(), 4)
		err := w.Run(func(r *Rank) {
			for step := 0; step < 3; step++ {
				east := (r.ID() + 1) % r.Size()
				west := (r.ID() - 1 + r.Size()) % r.Size()
				req := r.Irecv(west, step)
				r.Send(east, step, r.ID(), 1e6)
				r.Wait(req)
				r.Compute(50e6, nil)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.VirtualTime()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("finish time differs: %v vs %v", got, first)
		}
	}
}

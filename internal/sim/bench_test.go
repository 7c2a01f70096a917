package sim

import (
	"fmt"
	"testing"
)

// BenchmarkProcessSwitch measures the coroutine switch: two processes
// ping-ponging via yields.
func BenchmarkProcessSwitch(b *testing.B) {
	if err := BenchProcessSwitch(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerHeap measures timed wakeups through the event heap.
func BenchmarkTimerHeap(b *testing.B) {
	k := New()
	n := b.N
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventSignalWait measures the producer/consumer event path.
func BenchmarkEventSignalWait(b *testing.B) {
	if err := BenchEventSignalWait(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures FIFO admission with four
// contenders on one server.
func BenchmarkResourceContention(b *testing.B) {
	k := New()
	r := NewResource("cpu", 1)
	n := b.N
	for w := 0; w < 4; w++ {
		k.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < n/4; i++ {
				r.Use(p, 0.001)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

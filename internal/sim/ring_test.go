package sim

import "testing"

// TestRingOrder drives a ring through wrap-around and growth from both
// ends and checks it against a slice model.
func TestRingOrder(t *testing.T) {
	var q Ring[int]
	var model []int
	next := 0
	for step := 0; step < 500; step++ {
		switch {
		case step%7 == 3:
			q.PushFront(next)
			model = append([]int{next}, model...)
			next++
		case step%3 == 0 && len(model) > 0:
			if q.Front() != model[0] {
				t.Fatalf("step %d: front %d, want %d", step, q.Front(), model[0])
			}
			v, ok := q.PopFront()
			if !ok || v != model[0] {
				t.Fatalf("step %d: popped %d %v, want %d", step, v, ok, model[0])
			}
			model = model[1:]
		default:
			q.PushBack(next)
			model = append(model, next)
			next++
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: length %d, want %d", step, q.Len(), len(model))
		}
	}
	for _, want := range model {
		if v, ok := q.PopFront(); !ok || v != want {
			t.Fatalf("drain: popped %d %v, want %d", v, ok, want)
		}
	}
	if v, ok := q.PopFront(); ok {
		t.Fatalf("empty ring popped %d", v)
	}
}

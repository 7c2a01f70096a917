package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/matmul"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/wire"
)

// The benchmark's copy of the wirematmul input generator must produce
// what a real scheduler run returns, or every job would read as wrong
// (and a drifted copy would hide a real wrong answer).
func TestOracleMatchesARealWirematmulRun(t *testing.T) {
	cl, err := wire.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := sched.New(sched.Config{Cluster: cl, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		n    int
		seed int64
	}{{5, 41}, {jobN, 1_000_004}, {7, -3}} {
		id, err := s.Submit(sched.Spec{Work: sched.WireMatmul{N: tc.n, Seed: tc.seed}})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := s.Done(id)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
		case <-time.After(time.Minute):
			t.Fatalf("job N=%d seed=%d never finished", tc.n, tc.seed)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkWirematmul(res, tc.n, tc.seed); err != nil {
			t.Errorf("N=%d seed=%d: the oracle disagrees with the scheduler's product: %v", tc.n, tc.seed, err)
		}
		// And it is a check: one element off, another seed, another
		// shape, another type are all refused.
		got := res.([][]int64)
		got[tc.n-1][0]++
		if checkWirematmul(got, tc.n, tc.seed) == nil {
			t.Errorf("N=%d seed=%d: a corrupted product passed", tc.n, tc.seed)
		}
		got[tc.n-1][0]--
		if checkWirematmul(got, tc.n, tc.seed+1) == nil {
			t.Errorf("N=%d: the product of another seed passed", tc.n)
		}
		if checkWirematmul(got[:tc.n-1], tc.n, tc.seed) == nil || checkWirematmul("no", tc.n, tc.seed) == nil {
			t.Errorf("N=%d: a short or mistyped result passed", tc.n)
		}
	}
}

func TestPaperOracle(t *testing.T) {
	cfg := matmul.Config{N: 64, BS: 16, P: 2, Real: true, Seed: 9}
	o := newPaperOracle(cfg)
	for _, st := range allStages {
		res, err := matmul.Run(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.check(res.C); err != nil {
			t.Errorf("%v: %v", st, err)
		}
	}
	res, err := matmul.Run(matmul.Sequential, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := res.C.Clone()
	bad.Set(3, 5, bad.At(3, 5)+1e-6*o.scale)
	if o.check(bad) == nil {
		t.Error("an element off by 1e-6 of the scale passed")
	}
	nan := res.C.Clone()
	nan.Set(0, 0, math.NaN())
	if o.check(nan) == nil {
		t.Error("a NaN passed")
	}
	if o.check(nil) == nil || o.check(matrix.NewDense(3, 3)) == nil {
		t.Error("a missing or misshapen product passed")
	}
}

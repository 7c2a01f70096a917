package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matmul"
	"repro/internal/matrix"
)

// wirematmulProduct recomputes the product a sched.WireMatmul{N, Seed}
// job must return, from the benchmark's own copy of the job's input
// generator: the check must still catch a wrong answer after a change
// removes or breaks the Work's self-check. A unit test holds the copy
// equal to what a real scheduler run returns.
func wirematmulProduct(n int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	a, b := make([][]int64, n), make([][]int64, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = make([]int64, n), make([]int64, n)
		for j := 0; j < n; j++ {
			a[i][j] = int64(rng.Intn(19) - 9)
			b[i][j] = int64(rng.Intn(19) - 9)
		}
	}
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				c[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return c
}

// checkWirematmul compares a job's result to the recomputed product.
func checkWirematmul(res any, n int, seed int64) error {
	got, ok := res.([][]int64)
	if !ok {
		return fmt.Errorf("result is a %T, not a [][]int64", res)
	}
	want := wirematmulProduct(n, seed)
	if len(got) != n {
		return fmt.Errorf("result has %d rows, want %d", len(got), n)
	}
	for i := range want {
		if len(got[i]) != n {
			return fmt.Errorf("result row %d has %d columns, want %d", i, len(got[i]), n)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("C[%d][%d] = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// paperOracle holds matrix.Mul of a paper workload's inputs; every
// stage's Result.C is compared to it outside the timed span.
type paperOracle struct {
	want  *matrix.Dense
	scale float64 // largest |element| of want
}

func newPaperOracle(cfg matmul.Config) *paperOracle {
	a, b := matmul.Inputs(cfg)
	o := &paperOracle{want: matrix.Mul(a, b)}
	for _, v := range o.want.Data {
		o.scale = math.Max(o.scale, math.Abs(v))
	}
	return o
}

// check accepts got within 1e-9 of want, relative to want's largest
// element.
func (o *paperOracle) check(got *matrix.Dense) error {
	if got == nil {
		return fmt.Errorf("no product returned")
	}
	if got.Rows != o.want.Rows || got.Cols != o.want.Cols {
		return fmt.Errorf("product is %dx%d, want %dx%d", got.Rows, got.Cols, o.want.Rows, o.want.Cols)
	}
	// Written out instead of Dense.MaxAbsDiff, which skips a NaN.
	limit := 1e-9 * o.scale
	for i := 0; i < got.Rows; i++ {
		w, g := o.want.Row(i), got.Row(i)
		for j := range w {
			if !(math.Abs(g[j]-w[j]) <= limit) {
				return fmt.Errorf("C[%d][%d] = %g, matrix.Mul gives %g (limit %g)", i, j, g[j], w[j], limit)
			}
		}
	}
	return nil
}

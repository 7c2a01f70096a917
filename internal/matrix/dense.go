// Package matrix provides the dense linear-algebra substrate for the NavP
// case study: row-major dense matrices, two-level blocked views
// (distribution blocks on PEs, algorithmic blocks moved by carriers, §3.6
// of the paper), cache-blocked multiply kernels, phantom (shape-only)
// blocks for model-scale simulation, and the forward/reverse staggering
// schedules compared in §5(3).
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major dense matrix of float64.
type Dense struct {
	Rows, Cols int
	// Stride is the row stride of Data; Stride >= Cols.
	Stride int
	Data   []float64
}

// NewDense returns a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns a view of row i (valid until the matrix is modified).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// Clone returns a deep copy with a compact stride.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(c.Row(i), m.Row(i))
	}
	return c
}

// FillRandom fills the matrix with uniform values in [-1, 1) from rng.
func (m *Dense) FillRandom(rng *rand.Rand) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 2*rng.Float64() - 1
		}
	}
}

// FillSequential fills element (i, j) with a small deterministic value
// derived from its coordinates. Useful for tests that need recognizable
// content.
func (m *Dense) FillSequential() {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, float64(i*m.Cols+j)/float64(len(m.Data)))
		}
	}
}

// EqualApprox reports whether m and n have the same shape and all
// corresponding elements within tol of each other.
func (m *Dense) EqualApprox(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-n.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// m and n, which must have the same shape.
func (m *Dense) MaxAbsDiff(n *Dense) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %d×%d vs %d×%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if d := math.Abs(m.At(i, j) - n.At(i, j)); d > max {
				max = d
			}
		}
	}
	return max
}

// Mul returns a×b through the packed serial kernel (kernel.go). Its
// result agrees with the naive reference mulNaive to floating-point
// reassociation tolerance; kernel_test.go holds the equivalence suite.
func Mul(a, b *Dense) *Dense {
	return Kernel{}.Mul(a, b)
}

// MulNaive returns a×b computed with the straightforward i-j-k triple
// loop of the paper's Figure 2 — the sequential program the paper
// incrementally parallelizes. It is the correctness oracle for every
// kernel and parallel implementation in this repository, and the
// recorded baseline the BENCH_kernels.json regression numbers are
// measured against.
func MulNaive(a, b *Dense) *Dense { return mulNaive(a, b) }

// mulNaive is the unoptimized reference, kept loop-for-loop as the
// paper wrote it (dot-product order, column-strided B access, no
// data-dependent skip so timing is input independent).
func mulNaive(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: inner dimension mismatch %d vs %d", a.Cols, b.Rows))
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += arow[k] * b.Data[k*b.Stride+j]
			}
			crow[j] += s
		}
	}
	return c
}

// MulSaxpy returns a×b with the cache-friendly i-k-j loop order (row
// saxpy): the intermediate point between the paper's naive loop and the
// packed kernel, recorded in BENCH_kernels.json so the perf trajectory
// shows what loop order alone buys.
func MulSaxpy(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: inner dimension mismatch %d vs %d", a.Cols, b.Rows))
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			brow := b.Row(k)
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// Package fit provides least-squares polynomial fitting, the method the
// paper uses to obtain fair sequential baselines for problem sizes whose
// working sets thrash a single machine: "we calculate sequential timing
// for large problems using least squared curve fitting with a polynomial
// of order 3 using performance numbers collected with small problems"
// (§5, the starred entries of Tables 1–4).
package fit

import (
	"fmt"
	"math"
)

// Poly is a polynomial; Coeffs[i] multiplies x^i.
type Poly struct {
	Coeffs []float64
}

// Eval returns the polynomial's value at x (Horner's rule).
func (p Poly) Eval(x float64) float64 {
	v := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*x + p.Coeffs[i]
	}
	return v
}

// PolyFit fits a least-squares polynomial of the given degree to the
// points (xs[i], ys[i]) by solving the normal equations. It requires at
// least degree+1 points. Inputs are scaled internally for conditioning,
// so matrix orders in the thousands are safe with a cubic.
func PolyFit(xs, ys []float64, degree int) (Poly, error) {
	if len(xs) != len(ys) {
		return Poly{}, fmt.Errorf("fit: %d xs vs %d ys", len(xs), len(ys))
	}
	if degree < 0 {
		return Poly{}, fmt.Errorf("fit: negative degree %d", degree)
	}
	if len(xs) < degree+1 {
		return Poly{}, fmt.Errorf("fit: %d points cannot determine degree %d", len(xs), degree)
	}
	// Scale x into [-1, 1]-ish for conditioning.
	var maxAbs float64
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = maxAbs
	}

	n := degree + 1
	// Normal equations: (VᵀV) c = Vᵀy with Vandermonde V.
	a := make([][]float64, n) // augmented [VᵀV | Vᵀy]
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	for k := range xs {
		x := xs[k] / scale
		pow := make([]float64, n)
		pow[0] = 1
		for i := 1; i < n; i++ {
			pow[i] = pow[i-1] * x
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j] += pow[i] * pow[j]
			}
			a[i][n] += pow[i] * ys[k]
		}
	}

	coef, err := solve(a)
	if err != nil {
		return Poly{}, err
	}
	// Undo the scaling: c_i' = c_i / scale^i.
	s := 1.0
	for i := range coef {
		coef[i] /= s
		s *= scale
	}
	return Poly{Coeffs: coef}, nil
}

// solve performs Gaussian elimination with partial pivoting on the
// augmented matrix a (n rows, n+1 columns), returning the solution.
func solve(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("fit: singular normal equations (column %d)", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		v := a[r][n]
		for c := r + 1; c < n; c++ {
			v -= a[r][c] * x[c]
		}
		x[r] = v / a[r][r]
	}
	return x, nil
}

// RSquared returns the coefficient of determination of the fit on the
// given points (1 is perfect).
func RSquared(p Poly, xs, ys []float64) float64 {
	if len(ys) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssRes, ssTot float64
	for i, y := range ys {
		d := y - p.Eval(xs[i])
		ssRes += d * d
		ssTot += (y - mean) * (y - mean)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// SequentialBaseline reproduces the paper's starred-value procedure: fit
// a cubic to the in-core sequential times (smallNs, smallTimes) and
// return its prediction at bigN.
func SequentialBaseline(smallNs []int, smallTimes []float64, bigN int) (float64, error) {
	xs := make([]float64, len(smallNs))
	for i, n := range smallNs {
		xs[i] = float64(n)
	}
	p, err := PolyFit(xs, smallTimes, 3)
	if err != nil {
		return 0, err
	}
	return p.Eval(float64(bigN)), nil
}

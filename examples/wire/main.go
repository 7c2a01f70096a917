// NavP over real sockets: the MESSENGERS architecture itself.
//
// The other examples run on the calibrated simulator or on goroutines
// inside one scheduler. This one starts a cluster of daemons listening
// on loopback TCP ports and lets a migrating computation hop between
// them with its state gob-encoded on the wire — code never moves, state
// does, exactly as the paper describes MESSENGERS (§2).
//
// The computation is the paper's 1-D DSC matrix multiplication
// (Figure 5) at row granularity: the carrier hauls one row of A through
// the column-distributed B and C, then wraps around for the next row.
// Termination is detected with Mattern's four-counter algorithm over
// the same sockets.
//
// Run with:
//
//	go run ./examples/wire
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/matrix"
	"repro/internal/wire"
)

// carrierState is everything that travels: the row being processed and
// the queue of rows still to do. (On a real cluster the remaining rows
// would live on node 0; keeping them in the carrier keeps the example
// self-contained.)
type carrierState struct {
	Mi, Rows int
	Row      []float64
	Pending  [][]float64
}

func main() {
	const n, pes = 9, 3

	wire.RegisterState(&carrierState{})
	// Node variables placed from outside a daemon cross the wire boxed in
	// an interface, so their type is registered like agent state.
	wire.RegisterState([][]float64{})
	wire.Register("RowCarrier", func(ctx *wire.Ctx) wire.Verdict {
		st := ctx.State().(*carrierState)
		bcols := ctx.Get("Bcols").([][]float64)
		c := make([]float64, len(bcols))
		for j, col := range bcols {
			for k, a := range st.Row {
				c[j] += a * col[k]
			}
		}
		ctx.Set(fmt.Sprintf("Crow:%d", st.Mi), c)
		if ctx.NodeID() < ctx.Nodes()-1 {
			return ctx.HopTo(ctx.NodeID() + 1) // chase the next B/C columns
		}
		if len(st.Pending) > 0 {
			ctx.SetState(&carrierState{Mi: st.Mi + 1, Rows: st.Rows,
				Row: st.Pending[0], Pending: st.Pending[1:]})
			return ctx.HopTo(0) // wrap around for the next row
		}
		return ctx.Done()
	})

	a, b := matrix.RandomPair(matrix.NewSeeded(17), n)

	cl, err := wire.NewCluster(pes)
	check(err)
	defer cl.Close()

	// Distribute B by column chunks: node(j) holds B(*, j-chunk).
	colsPerPE := n / pes
	for pe := 0; pe < pes; pe++ {
		bcols := make([][]float64, colsPerPE)
		for lj := range bcols {
			col := make([]float64, n)
			for k := 0; k < n; k++ {
				col[k] = b.At(k, pe*colsPerPE+lj)
			}
			bcols[lj] = col
		}
		check(cl.SetVar(pe, "Bcols", bcols))
	}

	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = append([]float64(nil), a.Row(i)...)
	}
	start := time.Now()
	check(cl.Inject(0, "RowCarrier", &carrierState{Mi: 0, Rows: n, Row: rows[0], Pending: rows[1:]}))
	check(cl.Wait(30 * time.Second))
	elapsed := time.Since(start)

	got := matrix.NewDense(n, n)
	for pe := 0; pe < pes; pe++ {
		for i := 0; i < n; i++ {
			crow, err := cl.GetVar(pe, fmt.Sprintf("Crow:%d", i))
			check(err)
			for lj, v := range crow.([]float64) {
				got.Set(i, pe*colsPerPE+lj, v)
			}
		}
	}
	want := matrix.Mul(a, b)
	fmt.Printf("1-D DSC matrix multiply over %d TCP daemons: %d hops of gob-encoded state\n",
		pes, n*(pes-1)+(n-1))
	fmt.Printf("result max |Δ| vs reference: %g (completed in %v)\n", got.MaxAbsDiff(want), elapsed.Round(time.Millisecond))
	if got.MaxAbsDiff(want) > 1e-9 {
		os.Exit(1)
	}
	fmt.Println("the computation migrated; the data (mostly) stayed put.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

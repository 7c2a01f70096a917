package matmul

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/navp"
)

// sequential stages the paper's Figure 2 triple loop on one PE. All three
// matrices live on node 0; when Paged is set every block access goes
// through the PE's LRU pager, reproducing the out-of-core behaviour of
// the paper's large sequential runs.
func (pr *problem) sequential() {
	nd0 := pr.sys.Node(0)
	for i := 0; i < pr.NB; i++ {
		for j := 0; j < pr.NB; j++ {
			nd0.Set(pr.name.c.at2(i, j), pr.newCBlock(i, j))
		}
	}
	// The pager's keys name the blocks as the node variables do.
	var pageA, pageB names
	if pr.cfg.Paged {
		pageA, pageB = newNames("A", pr.NB, 2), newNames("B", pr.NB, 2)
	}
	pr.sys.Inject(0, "Sequential", func(ag *navp.Agent) {
		for i := 0; i < pr.NB; i++ {
			for j := 0; j < pr.NB; j++ {
				cVar := pr.name.c.at2(i, j)
				c := nodeVar[*matrix.Block](pr, ag.Node(), cVar)
				for k := 0; k < pr.NB; k++ {
					a, b := pr.A.Block(i, k), pr.B.Block(k, j)
					if pr.cfg.Paged {
						ag.TouchMemory(pageA.at2(i, k), a.Bytes(pr.elem))
						ag.TouchMemory(pageB.at2(k, j), b.Bytes(pr.elem))
						ag.TouchMemory(pr.sys.VarName(cVar), c.Bytes(pr.elem))
					}
					ag.Compute(pr.blockFlops(), func() { matrix.MulAdd(c, a, b) })
				}
			}
		}
	})
}

// dsc1D stages the paper's Figure 5: one migrating RowCarrier that chases
// the column-distributed B and C while carrying one block row of A at a
// time in its agent variable mA. Matrix A starts on node 0; B(*,j) and
// C(*,j) live on the owner of virtual column j.
func (pr *problem) dsc1D() {
	pr.placeColumns1D()
	pr.placeARowsAt(func(int) int { return 0 })

	// Figure 5 outer program: hop(node(0)); inject(RowCarrier).
	pr.sys.Inject(0, "RowCarrier", func(ag *navp.Agent) {
		for mi := 0; mi < pr.NB; mi++ {
			// The previous row is dead after its last column; drop it so
			// the wrap-around hop back to node 0 travels light (Figure 5
			// reloads mA there anyway).
			ag.Delete(pr.name.mA)
			ag.Hop(0)
			// mA(*) = A(mi,*): pick up the next block row.
			row := nodeVar[[]*matrix.Block](pr, ag.Node(), pr.name.aRow.at(mi))
			ag.Set(pr.name.mA, row, pr.blocksBytes(row))
			pr.sweep1D(ag, mi, func(mj int) int { return mj })
		}
	})
}

// pipeline1D stages the paper's Figure 7: one RowCarrier per block row,
// injected in order at node 0 so they follow each other down the PE
// pipeline.
func (pr *problem) pipeline1D() {
	pr.placeColumns1D()
	pr.placeARowsAt(func(int) int { return 0 })

	pr.sys.Inject(0, "injector", func(ag *navp.Agent) {
		for i := 0; i < pr.NB; i++ {
			mi := i
			ag.Inject(fmt.Sprintf("RowCarrier(%d)", mi), func(rc *navp.Agent) {
				row := nodeVar[[]*matrix.Block](pr, rc.Node(), pr.name.aRow.at(mi))
				rc.Set(pr.name.mA, row, pr.blocksBytes(row))
				pr.sweep1D(rc, mi, func(mj int) int { return mj })
			})
		}
	})
}

// phase1D stages the paper's Figure 9: phase-shifted carriers enter the
// pipeline at distinct PEs. A(i,*) starts on the owner of virtual node i.
// The fine-grained pseudocode staggers carrier mi to column
// (N−1−mi+mj) mod N; the coarse-grained generalization staggers at the
// PE level — carrier mi visits the PEs in order (P−1−owner(mi)+t) mod P,
// sweeping each PE's whole column chunk — which reduces to Figure 9
// exactly when each PE holds one column (N == P) and keeps the PE loads
// balanced in every pipeline window at coarser grain.
func (pr *problem) phase1D() {
	pr.placeColumns1D()
	pr.placeARowsAt(pr.pe1D)

	pr.sys.Inject(0, "injector", func(ag *navp.Agent) {
		for i := 0; i < pr.NB; i++ {
			mi := i
			ag.Hop(pr.pe1D(mi))
			ag.Inject(fmt.Sprintf("RowCarrier(%d)", mi), func(rc *navp.Agent) {
				row := nodeVar[[]*matrix.Block](pr, rc.Node(), pr.name.aRow.at(mi))
				rc.Set(pr.name.mA, row, pr.blocksBytes(row))
				chunk := pr.owner(mi)
				pr.sweep1D(rc, mi, func(mj int) int {
					pe := (pr.cfg.P - 1 - chunk + mj/pr.vpp) % pr.cfg.P
					return pe*pr.vpp + mj%pr.vpp
				})
			})
		}
	})
}

// sweep1D walks a 1-D carrier through all NB virtual columns in the
// order given by colAt, updating C(mi, colAt(mj)) at each against the
// carried block row mA and the resident block column B — the paper's
// inner loops at block granularity. Consecutive visits that land on the
// same PE are executed as a single CPU burst: MESSENGERS computations
// are non-preemptive, holding the CPU from one navigational or
// synchronization statement to the next, which is what makes the
// pipeline of Figure 6 flow carrier-by-carrier rather than time-slicing.
func (pr *problem) sweep1D(ag *navp.Agent, mi int, colAt func(mj int) int) {
	row := navp.AgentVar[[]*matrix.Block](ag, pr.name.mA)
	cols := make([]int, 0, pr.vpp)
	for mj := 0; mj < pr.NB; {
		pe := pr.pe1D(colAt(mj))
		ag.Hop(pe)
		// Gather the run of consecutive visits on this PE.
		cols = cols[:0]
		for ; mj < pr.NB && pr.pe1D(colAt(mj)) == pe; mj++ {
			cols = append(cols, colAt(mj))
		}
		nd := ag.Node()
		ag.Compute(pr.visitFlops()*float64(len(cols)), func() {
			for _, col := range cols {
				c := nodeVar[*matrix.Block](pr, nd, pr.name.c.at2(mi, col))
				for k := 0; k < pr.NB; k++ {
					matrix.MulAdd(c, row[k], nodeVar[*matrix.Block](pr, nd, pr.name.b.at2(k, col)))
				}
			}
		})
	}
}

// placeColumns1D distributes B(*,j) and a zeroed C(*,j) onto the owner of
// virtual column j — the initial layout shared by all 1-D stages
// (Figures 4, 6, 8).
func (pr *problem) placeColumns1D() {
	pr.name.b = vars(pr.sys, "B", pr.NB, 2)
	for j := 0; j < pr.NB; j++ {
		nd := pr.sys.Node(pr.pe1D(j))
		for k := 0; k < pr.NB; k++ {
			nd.Set(pr.name.b.at2(k, j), pr.B.Block(k, j))
		}
		for i := 0; i < pr.NB; i++ {
			nd.Set(pr.name.c.at2(i, j), pr.newCBlock(i, j))
		}
	}
}

// placeARowsAt stores block row i of A (as a slice) on the node home(i).
func (pr *problem) placeARowsAt(home func(i int) int) {
	pr.name.aRow = vars(pr.sys, "Arow", pr.NB, 1)
	for i := 0; i < pr.NB; i++ {
		pr.sys.Node(home(i)).Set(pr.name.aRow.at(i), pr.aRow(i))
	}
}

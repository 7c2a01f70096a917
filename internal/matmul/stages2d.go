package matmul

import (
	"repro/internal/matrix"
	"repro/internal/navp"
)

// The 2-D stages run on a P×P grid of PEs carrying an NB×NB virtual grid
// of algorithmic cells. Virtual cell (i,j) hosts C(i,j); the carriers of
// §3.4–3.6 walk the virtual grid, with hops between cells on the same PE
// free.

// dsc2D stages the paper's Figure 11: the DSC Transformation applied in
// the second dimension. Initially A(NB−1−l,*) (a whole block row) and
// B(*,l) (a whole block column) sit on virtual cell (NB−1−l, l); C(i,j)
// is zeroed on cell (i,j). ColCarriers ship whole B columns down their
// grid column, depositing a copy at every cell; RowCarriers follow,
// consuming them (event EP per cell).
func (pr *problem) dsc2D() {
	pr.name.bCol, pr.name.ep = pr.sys.Vars("Bcol", pr.NB, pr.NB), pr.sys.Events("EP", pr.NB, pr.NB)
	pr.placeC2D()
	pr.placeGathered2D()

	pr.sys.Inject(0, "injector", func(ag *navp.Agent) {
		for l := 0; l < pr.NB; l++ {
			ml := l
			mi := pr.NB - 1 - ml
			ag.Hop(pr.pe2D(mi, ml))
			ag.InjectNamed(navp.Named("RowCarrier", mi), func(rc *navp.Agent) {
				pr.rowCarrier2D(rc, mi)
			})
			ag.InjectNamed(navp.Named("ColCarrier", ml), func(cc *navp.Agent) {
				pr.colCarrier2D(cc, ml)
			})
		}
	})
}

// rowCarrier2D is Figure 11's RowCarrier(mi): carry block row mi of A
// through virtual cells (mi, (NB−1−mi+mj) mod NB), waiting at each for
// the ColCarrier to have deposited the B column, then updating C.
func (pr *problem) rowCarrier2D(rc *navp.Agent, mi int) {
	row := nodeVar[[]*matrix.Block](pr, rc.Node(), pr.name.aRow.At(mi))
	rc.Set(pr.name.mA, row, pr.blocksBytes(row))
	for mj := 0; mj < pr.NB; mj++ {
		col := (pr.NB - 1 - mi + mj) % pr.NB
		rc.Hop(pr.pe2D(mi, col))
		rc.Wait(pr.name.ep.At2(mi, col))
		nd := rc.Node()
		c := nodeVar[*matrix.Block](pr, nd, pr.name.c.At2(mi, col))
		bcol := nodeVar[[]*matrix.Block](pr, nd, pr.name.bCol.At2(mi, col))
		rc.Compute(pr.visitFlops(), func() {
			for k := 0; k < pr.NB; k++ {
				matrix.MulAdd(c, row[k], bcol[k])
			}
		})
	}
}

// colCarrier2D is Figure 11's ColCarrier(mj): carry block column mj of B
// through virtual cells ((NB−1−mj+mi) mod NB, mj), depositing the column
// and signaling EP at each.
func (pr *problem) colCarrier2D(cc *navp.Agent, mj int) {
	col := nodeVar[[]*matrix.Block](pr, cc.Node(), pr.name.bColHome.At(mj))
	cc.Set(pr.name.mB, col, pr.blocksBytes(col))
	for mi := 0; mi < pr.NB; mi++ {
		row := (pr.NB - 1 - mj + mi) % pr.NB
		cc.Hop(pr.pe2D(row, mj))
		cc.Node().Set(pr.name.bCol.At2(row, mj), col)
		cc.Signal(pr.name.ep.At2(row, mj))
	}
}

// pipeline2D stages the paper's Figure 13: pipelining in both dimensions.
// The initial layout is that of Figure 12 (same gathered rows/columns as
// 2-D DSC), but now every algorithmic block of A and B is carried by its
// own thread: a pair of A and B blocks moves on as soon as it has
// contributed its C update. EP/EC events alternate producers (BCarriers)
// and consumers (ACarriers) at every cell; EC is pre-signaled everywhere.
func (pr *problem) pipeline2D() {
	pr.placeC2D()
	pr.placeGathered2D()
	pr.placePerBlock2D()
	pr.preSignalEC()

	pr.sys.Inject(0, "injector", func(ag *navp.Agent) {
		for l := 0; l < pr.NB; l++ {
			ml := l
			ag.Hop(pr.pe2D(pr.NB-1-ml, ml))
			ag.InjectNamed(navp.Named("spawner", ml), func(sp *navp.Agent) {
				mi := pr.NB - 1 - ml
				aRow := nodeVar[[]*matrix.Block](pr, sp.Node(), pr.name.aRow.At(mi))
				bCol := nodeVar[[]*matrix.Block](pr, sp.Node(), pr.name.bColHome.At(ml))
				for k := 0; k < pr.NB; k++ {
					mk := k
					sp.InjectNamed(navp.Named("ACarrier", mi, mk), func(ac *navp.Agent) {
						pr.aCarrier(ac, mi, mk, aRow[mk], func(mj int) int {
							return (pr.NB - 1 - mi + mj) % pr.NB
						})
					})
					sp.InjectNamed(navp.Named("BCarrier", mk, ml), func(bc *navp.Agent) {
						pr.bCarrier(bc, mk, ml, bCol[mk], func(mi2 int) int {
							return (pr.NB - 1 - ml + mi2) % pr.NB
						})
					})
				}
			})
		}
	})
}

// phase2D stages the paper's Figure 15: full DPC in both dimensions, the
// stage that resembles Gentleman's Algorithm. Every matrix starts in its
// canonical home — A(i,j), B(i,j), and C(i,j) on cell (i,j) — and the
// carriers' first hops realize the reverse staggering.
func (pr *problem) phase2D() {
	pr.name.aHome, pr.name.bHome = pr.sys.Vars("Ahome", pr.NB, pr.NB), pr.sys.Vars("Bhome", pr.NB, pr.NB)
	pr.placeC2D()
	pr.placePerBlock2D()
	for i := 0; i < pr.NB; i++ {
		for j := 0; j < pr.NB; j++ {
			nd := pr.sys.Node(pr.pe2D(i, j))
			nd.Set(pr.name.aHome.At2(i, j), pr.A.Block(i, j))
			nd.Set(pr.name.bHome.At2(i, j), pr.B.Block(i, j))
		}
	}
	pr.sys.Inject(0, "injector", func(ag *navp.Agent) {
		for j := 0; j < pr.NB; j++ {
			mj := j
			ag.Hop(pr.pe2D(0, mj))
			ag.InjectNamed(navp.Named("spawner", mj), func(sp *navp.Agent) {
				for i := 0; i < pr.NB; i++ {
					mi := i
					sp.Hop(pr.pe2D(mi, mj))
					sp.Signal(pr.name.ec.At2(mi, mj)) // Figure 15 line (4)
					aBlk := nodeVar[*matrix.Block](pr, sp.Node(), pr.name.aHome.At2(mi, mj))
					bBlk := nodeVar[*matrix.Block](pr, sp.Node(), pr.name.bHome.At2(mi, mj))
					// ACarrier(mi, mk) with mk = home column mj.
					sp.InjectNamed(navp.Named("ACarrier", mi, mj), func(ac *navp.Agent) {
						pr.aCarrier(ac, mi, mj, aBlk, func(step int) int {
							return ((pr.NB-1-mi-mj+step)%pr.NB + pr.NB) % pr.NB
						})
					})
					// BCarrier(mk, mj) with mk = home row mi.
					sp.InjectNamed(navp.Named("BCarrier", mi, mj), func(bc *navp.Agent) {
						pr.bCarrier(bc, mi, mj, bBlk, func(step int) int {
							return ((pr.NB-1-mj-mi+step)%pr.NB + pr.NB) % pr.NB
						})
					})
				}
			})
		}
	})
}

// aCarrier is the ACarrier of Figures 13/15: carry one algorithmic block
// of A along row mi, visiting the virtual column colAt(step) at each
// step; at each cell wait EP, update C with the deposited B block, and
// signal EC.
func (pr *problem) aCarrier(ac *navp.Agent, mi, mk int, blk *matrix.Block, colAt func(step int) int) {
	ac.Set(pr.name.mA, blk, blk.Bytes(pr.elem))
	for mj := 0; mj < pr.NB; mj++ {
		col := colAt(mj)
		ac.Hop(pr.pe2D(mi, col))
		ac.Wait(pr.name.ep3.At3(mi, col, mk))
		c := nodeVar[*matrix.Block](pr, ac.Node(), pr.name.c.At2(mi, col))
		b := pr.deposit[mi*pr.NB+col][mk]
		ac.Compute(pr.blockFlops(), func() { matrix.MulAdd(c, blk, b) })
		ac.Signal(pr.name.ec.At2(mi, col))
	}
}

// bCarrier is the BCarrier of Figures 13/15: carry one algorithmic block
// of B along column mj, visiting the virtual row rowAt(step) at each
// step; at each cell wait EC (the previous B block consumed), deposit,
// and signal EP.
func (pr *problem) bCarrier(bc *navp.Agent, mk, mj int, blk *matrix.Block, rowAt func(step int) int) {
	bc.Set(pr.name.mB, blk, blk.Bytes(pr.elem))
	sim := bc.System().Simulated()
	for mi := 0; mi < pr.NB; mi++ {
		row := rowAt(mi)
		bc.Hop(pr.pe2D(row, mj))
		// The EC wait models the paper's single B buffer per cell: the
		// predecessor's deposit must be consumed before the next one
		// lands. Its liveness relies on FIFO carrier arrival, which both
		// backends give on each link (as does a real MESSENGERS
		// network), but it has been checked only under the simulation's
		// schedule. On the goroutine backend the per-k deposit slots
		// already make deposits conflict-free, so the wait is skipped
		// there until a schedule explorer gives its verdict.
		if sim {
			bc.Wait(pr.name.ec.At2(row, mj))
		}
		pr.deposit[row*pr.NB+mj][mk] = blk
		bc.Signal(pr.name.ep3.At3(row, mj, mk))
	}
}

// placeC2D zeroes C(i,j) on virtual cell (i,j) for all cells.
func (pr *problem) placeC2D() {
	for i := 0; i < pr.NB; i++ {
		for j := 0; j < pr.NB; j++ {
			pr.sys.Node(pr.pe2D(i, j)).Set(pr.name.c.At2(i, j), pr.C.Block(i, j))
		}
	}
}

// placeGathered2D is the gathered initial layout shared by 2-D DSC and
// pipelining (Figure 12): block row A(NB−1−l,*) and block column B(*,l)
// on virtual cell (NB−1−l, l).
func (pr *problem) placeGathered2D() {
	pr.name.aRow, pr.name.bColHome = pr.sys.Vars("Arow", pr.NB), pr.sys.Vars("BcolHome", pr.NB)
	for l := 0; l < pr.NB; l++ {
		nd := pr.sys.Node(pr.pe2D(pr.NB-1-l, l))
		nd.Set(pr.name.aRow.At(pr.NB-1-l), pr.aRow(pr.NB-1-l))
		nd.Set(pr.name.bColHome.At(l), pr.bCol(l))
	}
}

// placePerBlock2D prepares the per-block carriers of Figures 13 and 15:
// the EC events, an empty deposit slot per (cell, k) — one array for
// all cells, so a deposit is a store, not a node variable — and the
// per-k EP events. EP:i:j:k pairs A(i,k) with the deposit of B(k,j)
// explicitly, so correctness does not depend on carrier arrival order
// (the paper's fine-grained protocol relies on FIFO delivery for the
// same pairing; on the FIFO simulation backend the two are identical).
func (pr *problem) placePerBlock2D() {
	pr.name.ec, pr.name.ep3 = pr.sys.Events("EC", pr.NB, pr.NB), pr.sys.Events("EP", pr.NB, pr.NB, pr.NB)
	slots := make([]*matrix.Block, pr.NB*pr.NB*pr.NB)
	pr.deposit = make([][]*matrix.Block, pr.NB*pr.NB)
	for cell := range pr.deposit {
		pr.deposit[cell] = slots[cell*pr.NB : (cell+1)*pr.NB : (cell+1)*pr.NB]
	}
}

// preSignalEC signals EC(i,j) once on every cell — Figure 13/15's initial
// condition permitting the first B deposit.
func (pr *problem) preSignalEC() {
	pr.sys.Inject(0, "init-EC", func(ag *navp.Agent) {
		for i := 0; i < pr.NB; i++ {
			for j := 0; j < pr.NB; j++ {
				ag.Hop(pr.pe2D(i, j))
				ag.Signal(pr.name.ec.At2(i, j))
			}
		}
	})
}

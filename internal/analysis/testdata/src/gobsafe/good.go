package gobsafe

import (
	"time"

	"repro/internal/wire"
)

// cleanState is the true-negative fixture: every field round-trips
// through gob intact — exported throughout, with time.Time allowed
// because it implements GobEncode itself.
type cleanState struct {
	Row     []float64
	Started time.Time
	Tags    map[string]int
	Next    *cleanState
}

func registerGood(ctx *wire.Ctx) {
	wire.RegisterState(&cleanState{})
	ctx.SetState(&cleanState{Row: []float64{1}})
}

func servingGood(cl *wire.Cluster, rc *wire.RemoteCluster) {
	cl.Inject(0, "b", &cleanState{})
	cl.InjectJob(0, 7, "b", &cleanState{})
	rc.InjectJob(0, 7, "b", nil)
	cl.SetVar(0, "operand", [][]float64{{1}})
	rc.SetVar(0, "operand", map[string]*cleanState{})
}

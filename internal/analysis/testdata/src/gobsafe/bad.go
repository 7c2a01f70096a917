// Package gobsafe exercises the gobsafe analyzer: agent state that gob
// would truncate or reject must be caught before a checkpoint replays it.
package gobsafe

import (
	"encoding/gob"

	"repro/internal/wire"
)

// leakyState carries a field gob silently drops.
type leakyState struct {
	Visible int
	hidden  []float64
}

// chanState carries a field gob refuses at encode time.
type chanState struct {
	Results chan int
}

// nested hides the problem one level down.
type nested struct {
	Inner inner
}

type inner struct {
	ok bool
	OK bool
}

func registerBad() {
	wire.RegisterState(&leakyState{}) // want `field hidden of leakyState is unexported`
	gob.Register(nested{})            // want `field Inner.ok of nested is unexported`
}

func injectBad(cl *wire.Cluster, ctx *wire.Ctx) {
	cl.Inject(0, "b", chanState{})            // want `RemoteCluster.Inject: field Results of chanState has type chan int`
	ctx.SetState(&leakyState{Visible: 1})     // want `field hidden of leakyState is unexported`
	ctx.Inject("b", leakyState{})             // want `field hidden of leakyState is unexported`
	_ = gob.NewEncoder(nil).Encode(&nested{}) // want `field Inner.ok of nested is unexported`
}

// servingBad is the serving path: job-scoped injection and operand
// distribution, through the in-process cluster and through the bare
// client — one driver, so one set of sinks.
func servingBad(cl *wire.Cluster, rc *wire.RemoteCluster) {
	cl.InjectJob(0, 7, "b", &leakyState{})    // want `RemoteCluster.InjectJob: field hidden of leakyState is unexported`
	rc.InjectJob(0, 7, "b", chanState{})      // want `RemoteCluster.InjectJob: field Results of chanState has type chan int`
	cl.SetVar(0, "operand", []leakyState{{}}) // want `RemoteCluster.SetVar: field \[\]\.hidden of \[\]leakyState is unexported`
	rc.SetVar(0, "operand", &nested{})        // want `RemoteCluster.SetVar: field Inner.ok of nested is unexported`
}

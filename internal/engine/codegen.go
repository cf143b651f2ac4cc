package engine

import (
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// CompileSweeps programs every rank for the Jacobi scheme: each rank's
// slab problem compiles through one shared compile pipeline into the
// forward (u→v) and backward (v→u) sweep instructions, and the slab
// arrays load into the rank's node. Equal slabs have equal editor
// scripts, so the pipeline's compile cache builds and compiles each
// distinct slab once. Ranks fan out across the worker pool. The
// pipeline compiles for rank 0's machine description, which every
// board of a machine shares.
func CompileSweeps(workers int, locals []*jacobi.Problem,
	nodeOf func(rank int) *sim.Node) (fwd, bwd []*microcode.Instr, err error) {
	return compileSweeps(pipeline.New(nodeOf(0).Inv), workers, locals, nodeOf)
}

func compileSweeps(pl *pipeline.Pipeline, workers int, locals []*jacobi.Problem,
	nodeOf func(rank int) *sim.Node) (fwd, bwd []*microcode.Instr, err error) {
	fwd = make([]*microcode.Instr, len(locals))
	bwd = make([]*microcode.Instr, len(locals))
	err = ParallelFor(workers, len(locals), func(r int) error {
		res, err := locals[r].Compile(pl)
		if err != nil {
			return err
		}
		ins, err := res.Instrs(0, 1)
		if err != nil {
			return err
		}
		fwd[r], bwd[r] = ins[0], ins[1]
		return locals[r].Load(nodeOf(r))
	})
	if err != nil {
		return nil, nil, err
	}
	return fwd, bwd, nil
}

package hypercube

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/jacobi"
	"repro/internal/sim"
)

// TestECCRetryConvergesBitIdentical is the tentpole acceptance check:
// a seeded double-bit ECC fault under the retry policy converges to a
// bit-identical Jacobi solution versus the fault-free run, at every
// worker count. The fault fires once on the first read of the word,
// the aborted attempt commits nothing, and the re-dispatch reads the
// true data.
func TestECCRetryConvergesBitIdentical(t *testing.T) {
	prob := func() *jacobi.Problem { return parallelProblem(4) }

	clean, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.SolveJacobi(prob())
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, -1} {
		m, err := New(smallCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		m.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
		if err := m.InjectECC(1, sim.ECCFault{Plane: jacobi.PlaneU, Addr: 70, Double: true}); err != nil {
			t.Fatal(err)
		}
		res, err := m.SolveJacobi(prob())
		if err != nil {
			t.Fatalf("workers=%d: recoverable ECC fault failed the solve: %v", workers, err)
		}
		assertSameSolve(t, res, cleanRes)
		if res.Traps.ECCUncorrectable != 1 || res.Traps.Retries != 1 || res.Traps.Halts != 0 {
			t.Errorf("workers=%d: traps = %s, want one uncorrectable + one retry", workers, res.Traps)
		}
		// The recovery cost simulated time: the faulted run's clock must
		// run ahead of the clean one.
		if res.Cycles <= cleanRes.Cycles {
			t.Errorf("workers=%d: faulted cycles %d ≤ clean %d", workers, res.Cycles, cleanRes.Cycles)
		}
	}
}

// TestECCHaltNamesFaultSite: under the halt policy the same seeded
// fault fails the solve with a structured error naming the plane, the
// element and the cycle.
func TestECCHaltNamesFaultSite(t *testing.T) {
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Trap = arch.TrapConfig{Policy: arch.TrapHalt}
	if err := m.InjectECC(1, sim.ECCFault{Plane: jacobi.PlaneU, Addr: 70, Double: true}); err != nil {
		t.Fatal(err)
	}
	_, err = m.SolveJacobi(parallelProblem(4))
	if err == nil {
		t.Fatal("halt policy let an uncorrectable ECC fault pass")
	}
	var te *sim.TrapError
	if !errors.As(err, &te) {
		t.Fatalf("error %v does not wrap *sim.TrapError", err)
	}
	for _, frag := range []string{"node 1", "plane 0", "addr 70", "element", "cycle"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
}

// TestECCCorrectedIsFree: single-bit events correct in flight — same
// trajectory, same clock, counted.
func TestECCCorrectedIsFree(t *testing.T) {
	clean, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
	if err := m.InjectECC(0, sim.ECCFault{Plane: jacobi.PlaneU, Addr: 70}); err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, cleanRes)
	if res.Cycles != cleanRes.Cycles {
		t.Errorf("corrected fault changed the clock: %d vs %d", res.Cycles, cleanRes.Cycles)
	}
	if res.Traps.ECCCorrected != 1 {
		t.Errorf("traps = %s, want one corrected event", res.Traps)
	}
}

func TestInjectECCChecksRank(t *testing.T) {
	m, err := New(smallCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InjectECC(5, sim.ECCFault{}); diag.AsDiagnostic(err, "").Rule != diag.RuleFaultPlan {
		t.Errorf("rank 5 on a 2-node machine: %v, want an %s rejection", err, diag.RuleFaultPlan)
	}
	if err := m.InjectECC(1, sim.ECCFault{Plane: 99}); diag.AsDiagnostic(err, "").Rule != diag.RuleFaultPlan {
		t.Errorf("plane 99: %v, want an %s rejection", err, diag.RuleFaultPlan)
	}
}

func TestParseRankECCFaults(t *testing.T) {
	fs, err := ParseRankECCFaults("1:0:70:double, 0:3:5:single")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 ||
		fs[0] != (RankECCFault{Rank: 1, Fault: sim.ECCFault{Plane: 0, Addr: 70, Double: true}}) ||
		fs[1] != (RankECCFault{Rank: 0, Fault: sim.ECCFault{Plane: 3, Addr: 5}}) {
		t.Errorf("parsed %+v", fs)
	}
	if fs, err := ParseRankECCFaults("  "); err != nil || fs != nil {
		t.Errorf("blank spec = %v, %v", fs, err)
	}
	for _, bad := range []string{"1", "1:", "1:0:70", "x:0:70:double", "1:0:70:triple", "1:0:70:double:extra", "1:x:70:single"} {
		_, err := ParseRankECCFaults(bad)
		if err == nil {
			t.Errorf("spec %q accepted", bad)
		} else if de := diag.AsDiagnostic(err, ""); de.Rule != diag.RuleFaultPlan {
			t.Errorf("spec %q: %v is not an %s diagnostic", bad, err, diag.RuleFaultPlan)
		}
	}
}

// TestCheckpointCarriesTrapCounters: trap totals survive the
// snapshot/restore cycle like fault and plan-cache counters do.
func TestCheckpointCarriesTrapCounters(t *testing.T) {
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
	m.CheckpointEvery = 4
	if err := m.InjectECC(0, sim.ECCFault{Plane: jacobi.PlaneU, Addr: 70, Double: true}); err != nil {
		t.Fatal(err)
	}
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep == 4 {
			keep = ck
		}
		return nil
	}
	fullRes, err := m.SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatal("no sweep-4 checkpoint")
	}
	if keep.Traps.ECCUncorrectable != 1 {
		t.Fatalf("snapshot traps = %s, want the sweep-0 ECC event", keep.Traps)
	}

	m2, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m2.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
	m2.Restore = keep
	res, err := m2.SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, fullRes)
	if res.Traps != fullRes.Traps {
		t.Errorf("resumed traps %s, uninterrupted %s", res.Traps, fullRes.Traps)
	}
}

func TestValidateCheckpointRejectsOversize(t *testing.T) {
	m, err := New(smallCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	grids := func(p, words int) [][]float64 {
		out := make([][]float64, p)
		for i := range out {
			out[i] = make([]float64, words)
		}
		return out
	}

	// More ranks than nodes.
	ck := &Checkpoint{P: 8, N: 4, Nz: 18, Slab: 2, U: grids(8, 64), V: grids(8, 64)}
	if err := m.ValidateCheckpoint(ck); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Errorf("8-rank checkpoint on a 2-node machine: %v", err)
	}
	if err := m.applyCheckpoint(ck); err == nil {
		t.Error("applyCheckpoint accepted an oversized rank count")
	}

	// Planes larger than the machine's memory planes (grid payloads left
	// empty: the size check reads the header shape, not the slices).
	ck = &Checkpoint{P: 1, N: 8192, Nz: 3, Slab: 1, U: grids(1, 0), V: grids(1, 0)}
	if int64(ck.maxPlaneWords()) <= m.Cfg.PlaneWords() {
		t.Fatal("test shape no longer oversizes the default planes; enlarge it")
	}
	if err := m.ValidateCheckpoint(ck); err == nil || !strings.Contains(err.Error(), "words") {
		t.Errorf("oversize planes: %v", err)
	}

	// A matching shape passes.
	ck = &Checkpoint{P: 2, N: 4, Nz: 6, Slab: 2, U: grids(2, 64), V: grids(2, 64)}
	if err := m.ValidateCheckpoint(ck); err != nil {
		t.Errorf("matching checkpoint rejected: %v", err)
	}
}

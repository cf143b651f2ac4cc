package hypercube

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/topo"
)

// machineOn builds a StopAfter-bounded machine over the named topology
// at 2^dim nodes.
func machineOn(t *testing.T, topology string, dim, sweeps int) *Machine {
	t.Helper()
	tp, err := topo.New(topology, 1<<uint(dim))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithTopology(smallCfg(), tp)
	if err != nil {
		t.Fatal(err)
	}
	m.StopAfter = sweeps
	return m
}

// TestSolveTopologyInvariant is the tentpole guarantee of the topology
// layer: the same solve over the hypercube, the mesh and the torus
// produces bit-identical grids and residual series — only the simulated
// comm clocks move, and they move deterministically per fabric.
func TestSolveTopologyInvariant(t *testing.T) {
	for _, dim := range []int{0, 1, 2, 3} {
		ref := machineOn(t, "hypercube", dim, 10)
		want, err := ref.SolveJacobi(parallelProblem(ref.P()))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"mesh2d", "torus2d"} {
			m := machineOn(t, name, dim, 10)
			got, err := m.SolveJacobi(parallelProblem(m.P()))
			if err != nil {
				t.Fatalf("%s dim %d: %v", name, dim, err)
			}
			if len(got.U) != len(want.U) {
				t.Fatalf("%s dim %d: grid sizes differ", name, dim)
			}
			for i := range want.U {
				if got.U[i] != want.U[i] {
					t.Fatalf("%s dim %d: grids differ at word %d", name, dim, i)
				}
			}
			if len(got.ResidualSeries) != len(want.ResidualSeries) {
				t.Fatalf("%s dim %d: residual series lengths differ", name, dim)
			}
			for i := range want.ResidualSeries {
				if got.ResidualSeries[i] != want.ResidualSeries[i] {
					t.Fatalf("%s dim %d: residuals differ at sweep %d", name, dim, i)
				}
			}
			// The torus 2×2^k wraps every butterfly pair back to distance
			// ≤ 2, the open mesh pays full Manhattan distance; at dim ≥ 2
			// both differ from the hypercube's single-hop rounds.
			if dim >= 2 && m.CommCycles == ref.CommCycles {
				t.Errorf("%s dim %d: comm clock %d identical to hypercube", name, dim, m.CommCycles)
			}
		}
	}
}

// TestFabricHopsPanicsOutOfRange pins the engine.Fabric.Hops
// invariant: a rank outside the live ring is a caller bug and panics
// with a message naming the violation, never a silent price.
func TestFabricHopsPanicsOutOfRange(t *testing.T) {
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Fabric()
	if h := f.Hops(0, 2); h != 2 {
		// Ring ranks 0 and 2 sit at Gray addresses 0 and 3: two hops.
		t.Errorf("fabric hops(0,2) = %d, want 2", h)
	}
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 4}} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("fabric hops(%d,%d) did not panic", bad[0], bad[1])
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "outside 4 live ranks") {
					t.Errorf("fabric hops(%d,%d) panic = %v", bad[0], bad[1], r)
				}
			}()
			f.Hops(bad[0], bad[1])
		}()
	}
	// The public Machine API keeps returning errors, as documented.
	if _, err := m.Hops(-1, 0); err == nil {
		t.Error("Machine.Hops(-1,0) accepted")
	}
	if _, err := m.Hops(0, 99); err == nil {
		t.Error("Machine.Hops(0,99) accepted")
	}
	if _, err := m.Route(0, 99); err == nil {
		t.Error("Machine.Route(0,99) accepted")
	}
}

// TestCheckpointTopology: snapshots record the fabric in the header and
// round-trip it exactly, and a restore onto a different fabric is
// rejected up front.
func TestCheckpointTopology(t *testing.T) {
	m := machineOn(t, "mesh2d", 2, 0)
	m.CheckpointEvery = 2
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep == 4 {
			keep = ck
		}
		return nil
	}
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatal("no checkpoint taken at sweep 4")
	}
	if keep.Topology != "mesh2d" {
		t.Fatalf("snapshot topology %q, want mesh2d", keep.Topology)
	}

	var buf bytes.Buffer
	if _, err := keep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != "mesh2d" {
		t.Errorf("round-tripped topology %q, want mesh2d", got.Topology)
	}

	// Restoring onto the wrong fabric must fail with a clear error.
	cube, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cube.Restore = got
	_, err = cube.SolveJacobi(parallelProblem(cube.P()))
	if err == nil || !strings.Contains(err.Error(), `topology "mesh2d"`) {
		t.Errorf("cross-topology restore: %v", err)
	}

	// Restoring onto the matching fabric resumes and finishes with the
	// uninterrupted run's residual history.
	fresh := machineOn(t, "mesh2d", 2, 0)
	fresh.Restore = got
	res, err := fresh.SolveJacobi(parallelProblem(fresh.P()))
	if err != nil {
		t.Fatal(err)
	}
	full, err := machineOn(t, "mesh2d", 2, 0).SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ResidualSeries) != len(full.ResidualSeries) {
		t.Fatalf("restored run has %d residuals, uninterrupted %d",
			len(res.ResidualSeries), len(full.ResidualSeries))
	}
	for i := range full.ResidualSeries {
		if res.ResidualSeries[i] != full.ResidualSeries[i] {
			t.Fatalf("restored residual %d differs", i)
		}
	}
}

// TestNewWithTopologyValidation: nil and oversized fabrics are
// rejected.
func TestNewWithTopologyValidation(t *testing.T) {
	if _, err := NewWithTopology(smallCfg(), nil); err == nil {
		t.Error("nil topology accepted")
	}
}

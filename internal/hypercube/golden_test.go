package hypercube

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The refactor-equivalence goldens: every observable of the multi-node
// Jacobi driver — residual series, final field, machine clocks, fault
// counters — recorded from the pre-engine seed implementation. The
// engine-backed SolveJacobi must reproduce them bit for bit at every
// worker count, fault plan or not, restored checkpoint or not. Update
// with `go test -run TestGoldenSolve -update ./internal/hypercube`
// only when a deliberate semantic change is intended.

var updateGolden = flag.Bool("update", false, "rewrite the solver equivalence goldens")

// goldenRecord is one scenario's bit-exact observables.
type goldenRecord struct {
	Iterations    int      `json:"iterations"`
	Converged     bool     `json:"converged"`
	ResidualBits  uint64   `json:"residual_bits"`
	SeriesBits    []uint64 `json:"series_bits"`
	UHash         uint64   `json:"u_hash"`
	MachineCycles int64    `json:"machine_cycles"`
	CommCycles    int64    `json:"comm_cycles"`
	Cycles        int64    `json:"cycles"`
	TotalFLOPs    int64    `json:"total_flops"`
	Faults        string   `json:"faults"`
	PlanHits      int64    `json:"plan_hits"`
	PlanMisses    int64    `json:"plan_misses"`
}

func recordOf(res *JacobiResult, m *Machine) goldenRecord {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res.U {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	rec := goldenRecord{
		Iterations:    res.Iterations,
		Converged:     res.Converged,
		ResidualBits:  math.Float64bits(res.Residual),
		UHash:         h.Sum64(),
		MachineCycles: m.MachineCycles,
		CommCycles:    m.CommCycles,
		Cycles:        res.Cycles,
		TotalFLOPs:    res.TotalFLOPs,
		Faults:        res.Faults.String(),
		PlanHits:      res.PlanCache.Hits,
		PlanMisses:    res.PlanCache.Misses,
	}
	for _, v := range res.ResidualSeries {
		rec.SeriesBits = append(rec.SeriesBits, math.Float64bits(v))
	}
	return rec
}

// goldenScenarios builds every scenario the equivalence contract
// covers: pure solves at P=1 and P=4 under worker counts 1 and 4, a
// seeded fault plan with checkpoint recovery, and a cross-machine
// checkpoint restore.
func goldenScenarios(t *testing.T) map[string]goldenRecord {
	t.Helper()
	out := map[string]goldenRecord{}
	solve := func(dim, workers int, plan *FaultPlan, every int) (*JacobiResult, *Machine) {
		m, err := New(smallCfg(), dim)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		m.Faults = plan
		m.CheckpointEvery = every
		res, err := m.SolveJacobi(parallelProblem(m.P()))
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}

	for _, sc := range []struct {
		name         string
		dim, workers int
	}{
		{"p1-w1", 0, 1},
		{"p4-w1", 2, 1},
		{"p4-w4", 2, 4},
	} {
		res, m := solve(sc.dim, sc.workers, nil, 0)
		out[sc.name] = recordOf(res, m)
	}
	for _, workers := range []int{1, 4} {
		res, m := solve(2, workers, RandomFaultPlan(42, 6, 4, 5), 3)
		out[fmt.Sprintf("p4-fault-w%d", workers)] = recordOf(res, m)
	}

	// Restore: snapshot sweep 8 of a 4-node solve, then resume it on a
	// fresh machine and record the completed run.
	var mid *Checkpoint
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = 1
	m.CheckpointEvery = 4
	m.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep == 8 {
			mid = ck
		}
		return nil
	}
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err != nil {
		t.Fatal(err)
	}
	if mid == nil {
		t.Fatal("no sweep-8 checkpoint was taken")
	}
	for _, workers := range []int{1, 4} {
		m2, err := New(smallCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m2.Workers = workers
		m2.Restore = mid
		res, err := m2.SolveJacobi(parallelProblem(m2.P()))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("p4-restore-w%d", workers)] = recordOf(res, m2)
	}
	return out
}

func TestGoldenSolveEquivalence(t *testing.T) {
	path := filepath.Join("testdata", "golden_pr4.json")
	got := goldenScenarios(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scenario count %d, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("scenario %s missing", name)
			continue
		}
		if len(g.SeriesBits) != len(w.SeriesBits) {
			t.Errorf("%s: residual series %d entries, golden %d", name, len(g.SeriesBits), len(w.SeriesBits))
		} else {
			for i := range w.SeriesBits {
				if g.SeriesBits[i] != w.SeriesBits[i] {
					t.Errorf("%s: residual[%d] bits %x, golden %x", name, i, g.SeriesBits[i], w.SeriesBits[i])
					break
				}
			}
		}
		g.SeriesBits, w.SeriesBits = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n  got  %+v\n  want %+v", name, g, w)
		}
	}
}

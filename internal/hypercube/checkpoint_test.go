package hypercube

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// captureCheckpoint runs a solve with CheckpointEvery=every and keeps
// the snapshot taken at the given sweep.
func captureCheckpoint(t *testing.T, every, sweep int) (*Checkpoint, *JacobiResult) {
	t.Helper()
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.CheckpointEvery = every
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep == sweep {
			keep = ck
		}
		return nil
	}
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatalf("no checkpoint at sweep %d (solve ran %d iterations)", sweep, res.Iterations)
	}
	return keep, res
}

func TestCheckpointSerializationRoundTrip(t *testing.T) {
	ck, _ := captureCheckpoint(t, 2, 4)
	ck.FaultFired = []int64{3, 0, 1} // exercise the counter block too
	ck.Faults.Checkpoints = 3

	var buf bytes.Buffer
	n, err := ck.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}
}

func TestCheckpointFileSaveLoad(t *testing.T) {
	ck, _ := captureCheckpoint(t, 3, 3)
	path := filepath.Join(t.TempDir(), "solve.ckpt")
	if err := SaveCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadCheckpointFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("not a checkpoint at all")); err == nil {
		t.Error("garbage magic accepted")
	}
	if _, err := ReadCheckpoint(strings.NewReader(checkpointMagic)); err == nil {
		t.Error("truncated header accepted")
	}
	// Valid magic, insane header.
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	for i := 0; i < 32; i++ {
		buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	}
	if _, err := ReadCheckpoint(&buf); err == nil {
		t.Error("out-of-range header accepted")
	}
	// A header whose N·N·Nz overflows is refused from the header alone,
	// before any grid section is read.
	if _, err := ReadCheckpoint(bytes.NewReader(overflowingCheckpoint(t))); err == nil ||
		!strings.Contains(err.Error(), "header out of range") {
		t.Errorf("overflowing shape: %v", err)
	}
	// The per-rank-slab formats are refused by name.
	for _, old := range retiredMagics {
		_, err := ReadCheckpoint(strings.NewReader(old + "rest of an old snapshot"))
		if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "no longer read") {
			t.Errorf("%s file: %v", old, err)
		}
	}
}

// TestRestoreResumesBitIdentical is the tentpole guarantee: a fresh
// machine restored from a mid-solve snapshot (round-tripped through
// the on-disk format) finishes with grids, residual history and even
// machine clocks bit-identical to the uninterrupted run.
func TestRestoreResumesBitIdentical(t *testing.T) {
	ck, fullRes := captureCheckpoint(t, 3, 6)
	if fullRes.Iterations <= 6 {
		t.Fatalf("solve too short (%d iterations) for a sweep-6 restart", fullRes.Iterations)
	}

	// Round-trip through the wire format, then resume in a new machine
	// — the cross-process restart path.
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, -1} {
		m, err := New(smallCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		m.Restore = loaded
		res, err := m.SolveJacobi(parallelProblem(m.P()))
		if err != nil {
			t.Fatal(err)
		}
		assertSameSolve(t, res, fullRes)
		if m.MachineCycles == 0 || res.Cycles != fullRes.Cycles {
			t.Errorf("workers=%d: resumed clock %d, uninterrupted %d", workers, res.Cycles, fullRes.Cycles)
		}
	}
}

// TestRestoreCarriesFaultState: a restored run resumes the fault
// plan's firing counters (no re-suffering) and reports the snapshot's
// counters plus its own.
func TestRestoreCarriesFaultState(t *testing.T) {
	plan := engine.MustFaultPlan(
		engine.FaultEvent{Sweep: 1, Phase: engine.PhaseDispatch, Rank: 0, Kind: engine.FaultKill, Repeat: 2},
		engine.FaultEvent{Sweep: 8, Phase: engine.PhaseExchange, Rank: 1, Kind: engine.FaultKill, Repeat: 1},
	)
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = plan
	m.CheckpointEvery = 4
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep == 4 {
			keep = ck
		}
		return nil
	}
	fullRes, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatal("no sweep-4 checkpoint")
	}
	if keep.Faults.Kills != 2 {
		t.Fatalf("snapshot counters %+v, want the 2 sweep-1 kills", keep.Faults)
	}

	m2, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m2.Faults = engine.MustFaultPlan(plan.Events...) // fresh plan, counters zero
	m2.Restore = keep
	res, err := m2.SolveJacobi(parallelProblem(m2.P()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, fullRes)
	if res.Faults.Kills != fullRes.Faults.Kills {
		t.Errorf("resumed kills %d, uninterrupted %d", res.Faults.Kills, fullRes.Faults.Kills)
	}
	// The sweep-1 fault predates the snapshot: the resumed run must not
	// re-suffer it, only the sweep-8 one.
	if m2.FaultCounters.Kills != 1 {
		t.Errorf("resumed machine suffered %d kills, want 1 (the post-snapshot fault)", m2.FaultCounters.Kills)
	}
}

func TestRestoreRejectsShapeMismatch(t *testing.T) {
	ck, _ := captureCheckpoint(t, 2, 2)
	ck.N = 16 // wrong shape
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Restore = ck
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err == nil {
		t.Error("shape-mismatched restore accepted")
	}
}

// TestCheckpointCompatible: a snapshot restores any solve of its own
// grid on its own fabric, whatever rank count either side runs, and
// nothing else.
func TestCheckpointCompatible(t *testing.T) {
	ck, _ := captureCheckpoint(t, 2, 2)
	if ck.P != 4 || len(ck.U) != ck.N*ck.N*ck.Nz || len(ck.V) != len(ck.U) {
		t.Fatalf("snapshot shape P=%d N=%d Nz=%d, grids %d/%d words", ck.P, ck.N, ck.Nz, len(ck.U), len(ck.V))
	}
	for _, dim := range []int{0, 1, 2, 3} {
		m, err := New(smallCfg(), dim)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ValidateCheckpoint(ck, ck.N, ck.Nz); err != nil {
			t.Errorf("%d-node machine rejected a 4-rank snapshot of its grid: %v", m.P(), err)
		}
	}
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ValidateCheckpoint(ck, ck.N, ck.Nz+2); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("wrong Nz: %v", err)
	}
	short := *ck
	short.V = short.V[:10]
	if err := m.ValidateCheckpoint(&short, ck.N, ck.Nz); err == nil || !strings.Contains(err.Error(), "words") {
		t.Errorf("short grid: %v", err)
	}
}

// captureShrunkCheckpoint shrinks a 4-node machine down to 3 by killing
// a rank permanently, then keeps the first snapshot taken on the
// survivors: 8 interior planes over 3 ranks, an uneven decomposition.
func captureShrunkCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = killPlan(t, [2]int{3, 1})
	m.CheckpointEvery = 2
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if keep == nil && ck.P == 3 {
			keep = ck
		}
		return nil
	}
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatal("shrink solve produced no 3-rank checkpoint")
	}
	return keep
}

// TestUnevenCheckpointRoundTrip: a snapshot of a shrunk (uneven)
// machine holds the same global grids as any other and round trips
// bit-exactly; read back, it restores into a fresh 4-node machine,
// which finishes bit-identical to the uninterrupted run.
func TestUnevenCheckpointRoundTrip(t *testing.T) {
	ck := captureShrunkCheckpoint(t)
	if words := ck.N * ck.N * ck.Nz; len(ck.U) != words || len(ck.V) != words {
		t.Fatalf("uneven snapshot grids %d/%d words, want %d", len(ck.U), len(ck.V), words)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := VerifyCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, ck) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", loaded, ck)
	}

	clean, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.SolveJacobi(parallelProblem(clean.P()))
	if err != nil {
		t.Fatal(err)
	}
	if want.Iterations <= loaded.Sweep {
		t.Fatalf("solve too short (%d iterations) for a sweep-%d restart", want.Iterations, loaded.Sweep)
	}
	for _, workers := range []int{1, -1} {
		m, err := New(smallCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		m.Restore = loaded
		got, err := m.SolveJacobi(parallelProblem(m.P()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameSolve(t, got, want)
	}
}

// TestSaveCheckpointCrashSafe simulates a process killed at arbitrary
// points while replacing an existing checkpoint: whatever prefix of the
// new snapshot made it to the temp file, the destination still loads
// the old snapshot intact, and the torn prefix itself never parses.
func TestSaveCheckpointCrashSafe(t *testing.T) {
	old, _ := captureCheckpoint(t, 3, 3)
	next, _ := captureCheckpoint(t, 3, 6)
	dir := t.TempDir()
	path := filepath.Join(dir, "solve.ckpt")
	if err := SaveCheckpointFile(path, old); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := next.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 1, 8, len(full) / 3, len(full) - 1} {
		// Death before the rename: the partial bytes sit in a temp file,
		// exactly as SaveCheckpointFile would have left them.
		tmp, err := os.CreateTemp(dir, ".ckpt-*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Write(full[:n]); err != nil {
			t.Fatal(err)
		}
		tmp.Close()

		got, err := LoadCheckpointFile(path)
		if err != nil {
			t.Fatalf("prefix %d: destination unreadable after simulated crash: %v", n, err)
		}
		if !reflect.DeepEqual(got, old) {
			t.Fatalf("prefix %d: destination no longer holds the old snapshot", n)
		}
		if _, err := ReadCheckpoint(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("torn %d-byte prefix parsed as a checkpoint", n)
		}
	}

	// The completed save replaces the file atomically.
	if err := SaveCheckpointFile(path, next); err != nil {
		t.Fatal(err)
	}
	if got, err := VerifyCheckpointFile(path); err != nil || !reflect.DeepEqual(got, next) {
		t.Fatalf("completed save: %v", err)
	}
}

// TestSaveCheckpointCleansUpOnFailure: a save that cannot complete (the
// destination is a directory, so the rename fails) reports the error
// and leaves no temp files behind.
func TestSaveCheckpointCleansUpOnFailure(t *testing.T) {
	ck, _ := captureCheckpoint(t, 3, 3)
	dir := t.TempDir()
	target := filepath.Join(dir, "occupied")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpointFile(target, ck); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	orphans, err := filepath.Glob(filepath.Join(dir, ".ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Errorf("failed save left temp files: %v", orphans)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCLI invokes the in-process entry point and returns its output.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (re-run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("output does not match %s (re-run with -update to regenerate):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestJacobiGoldenClean pins the text report of a clean fixed-sweep
// multi-node solve. The simulation is fully deterministic, so the
// output is stable to the byte.
func TestJacobiGoldenClean(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "clean", stdout)
}

// TestJacobiGoldenFaulted pins the report of a faulted run: injected
// kills and a stall, retry/backoff accounting and sweep-boundary
// checkpoints — with the same solve outcome as the clean run.
func TestJacobiGoldenFaulted(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6",
		"-faults", "dispatch:kill@2:1:repeat=2,exchange:stall@3:0:stall=500",
		"-checkpoint-every", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "faulted", stdout)

	// The faulted run's solve line must equal the clean run's: faults
	// cost cycles, never accuracy.
	clean, _, _ := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6")
	if jacobiLine(stdout) != jacobiLine(clean) {
		t.Errorf("faulted solve diverged:\n%s\n%s", jacobiLine(stdout), jacobiLine(clean))
	}
}

// TestJacobiCheckpointRestartCLI: -checkpoint persists a snapshot and
// -restore resumes from it to the identical solve report.
func TestJacobiCheckpointRestartCLI(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "solve.ckpt")
	full, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6", "-checkpoint-every", "2", "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	resumed, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6", "-restore", ck)
	if code != 0 {
		t.Fatalf("restore exit %d, stderr: %s", code, stderr)
	}
	if jacobiLine(resumed) != jacobiLine(full) {
		t.Errorf("restored solve diverged:\n%s\n%s", jacobiLine(resumed), jacobiLine(full))
	}
	if !strings.Contains(resumed, "restores=0") {
		t.Errorf("unexpected restore counters:\n%s", resumed)
	}
}

// TestJacobiRestoreAfterShrinkCLI: a snapshot saved after a permanent
// kill shrank the ring from 4 ranks to 3 restores in a fresh process
// onto the full 4-node machine, and the resumed solve ends exactly as
// an uninterrupted run does.
func TestJacobiRestoreAfterShrinkCLI(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "a.ckpt")
	_, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "2", "-sweeps", "20", "-kill", "5:1", "-checkpoint-every", "4", "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	verified, stderr, code := runCLI(t, "-verify-checkpoint", ck)
	if code != 0 || !strings.Contains(verified, "3 rank(s)") {
		t.Fatalf("saved snapshot (exit %d): %s%s", code, verified, stderr)
	}
	resumed, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "30", "-restore", ck)
	if code != 0 {
		t.Fatalf("restore exit %d, stderr: %s", code, stderr)
	}
	clean, _, _ := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "30")
	if jacobiLine(resumed) != jacobiLine(clean) {
		t.Errorf("restored solve diverged:\n%s\n%s", jacobiLine(resumed), jacobiLine(clean))
	}
}

func TestJacobiBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-jacobi", "8", "-faults", "teleport:kill@1:0"}, // bad fault spec
		{"-jacobi", "8", "-restore", "/nonexistent/ck"},  // missing snapshot
		{},                             // no mode selected
		{"-prog", "/nonexistent.nscm"}, // missing program
	} {
		if _, _, code := runCLI(t, args...); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

// TestJacobiNegativeCounts pins the typed R041 rejection of each
// negative count flag: usage exit, nothing on stdout, one diagnostic
// line naming the flag.
func TestJacobiNegativeCounts(t *testing.T) {
	for _, tc := range []struct{ golden, flag, val string }{
		{"neg-sweeps", "-sweeps", "-3"},
		{"neg-spares", "-spares", "-2"},
		{"neg-checkpoint-every", "-checkpoint-every", "-4"},
		{"neg-watchdog", "-watchdog", "-5"},
		{"neg-max", "-max", "-5"},
		{"neg-cube", "-cube", "-1"},
		{"neg-jacobi", "-jacobi", "-5"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, "-jacobi", "16", "-cube", "1", tc.flag, tc.val)
			if code != 2 || stdout != "" {
				t.Errorf("exit %d, stdout %q; want usage exit 2 and no report", code, stdout)
			}
			checkGolden(t, tc.golden, stderr)
		})
	}
}

// TestJacobiFaultPointsOutOfRange pins the typed R040 rejection of a
// fault aimed past a 4-node machine — a fifth rank, a fourth ring pair,
// a third combine round, an ECC event on a sixth rank — which could
// never fire: failure exit, no solve line, one diagnostic naming the
// event.
func TestJacobiFaultPointsOutOfRange(t *testing.T) {
	for _, tc := range []struct{ golden, flag, spec string }{
		{"range-dispatch", "-kill", "1:9"},
		{"range-exchange", "-faults", "exchange:kill@1:3"},
		{"range-merge", "-faults", "merge:kill@1:7"},
		{"range-ecc", "-ecc-faults", "5:0:1:single"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "2", tc.flag, tc.spec)
			if code != 1 || jacobiLine(stdout) != "" {
				t.Errorf("exit %d, stdout %q; want exit 1 and no solve", code, stdout)
			}
			checkGolden(t, tc.golden, stderr)
		})
	}
}

// TestJacobiECCSpecRejections: every malformed or out-of-range
// -ecc-faults entry is a typed R040 rejection before any solve runs.
func TestJacobiECCSpecRejections(t *testing.T) {
	for _, spec := range []string{
		"5:0:1:single",   // rank outside the machine
		"x:0:1:single",   // non-integer rank
		"1:99:1:single",  // plane out of range
		"1:0:-1:single",  // negative address
		"1:0:1:triple",   // unknown kind
		"1:0:1",          // missing field
		"1:0:1:single:x", // extra field
	} {
		stdout, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "1", "-ecc-faults", spec)
		if code != 1 || stdout != "" || !strings.HasSuffix(stderr, "[R040]\n") {
			t.Errorf("spec %q: exit %d, stdout %q, stderr %q; want exit 1, no report, an R040 line",
				spec, code, stdout, stderr)
		}
	}
}

// TestJacobiGridTooSmall pins the typed R038 rejection of a model
// problem without an interior: it names the requested grid and fails
// before any machine is built, so no banner is printed.
func TestJacobiGridTooSmall(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-jacobi", "2", "-cube", "1")
	if code != 1 || stdout != "" {
		t.Errorf("exit %d, stdout %q; want exit 1 and no report", code, stdout)
	}
	checkGolden(t, "neg-grid", stderr)
	stdout, stderr, code = runCLI(t, "-jacobi", "1")
	if code != 1 || stdout != "" || !strings.HasSuffix(stderr, "[R038]\n") {
		t.Errorf("-jacobi 1: exit %d, stdout %q, stderr %q; want exit 1 and an R038 line", code, stdout, stderr)
	}
}

// jacobiLine extracts the solve-outcome line from a report.
func jacobiLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "jacobi:") {
			return line
		}
	}
	return ""
}

// TestJacobiECCRetryCLI: the ISSUE's worked example — a seeded
// double-bit ECC fault under the retry policy converges to the same
// solve line as the clean run, with the recovery on the traps line.
func TestJacobiECCRetryCLI(t *testing.T) {
	clean, _, _ := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6")
	faulted, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6",
		"-trap-policy", "retry", "-ecc-faults", "1:0:70:double")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if jacobiLine(faulted) != jacobiLine(clean) {
		t.Errorf("faulted solve diverged:\n%s\n%s", jacobiLine(faulted), jacobiLine(clean))
	}
	if !strings.Contains(faulted, "uncorrectable=1") || !strings.Contains(faulted, "retries=1") {
		t.Errorf("traps line missing the recovery:\n%s", faulted)
	}

	// Halt policy: the same fault fails the run naming the site.
	_, stderr, code = runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6",
		"-trap-policy", "halt", "-ecc-faults", "1:0:70:double")
	if code == 0 {
		t.Fatal("halt policy exited 0 on an uncorrectable fault")
	}
	for _, frag := range []string{"node 1", "plane 0", "addr 70", "cycle"} {
		if !strings.Contains(stderr, frag) {
			t.Errorf("halt error %q does not name %q", stderr, frag)
		}
	}
}

// TestVerifyCheckpointCLI: -verify-checkpoint accepts a pristine
// snapshot and rejects the same file with one flipped bit.
func TestVerifyCheckpointCLI(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "solve.ckpt")
	_, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6", "-checkpoint-every", "2", "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	stdout, stderr, code := runCLI(t, "-verify-checkpoint", ck)
	if code != 0 {
		t.Fatalf("pristine snapshot rejected (exit %d): %s", code, stderr)
	}
	if !strings.Contains(stdout, "ok") {
		t.Errorf("verify output: %s", stdout)
	}

	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(ck, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = runCLI(t, "-verify-checkpoint", ck)
	if code == 0 {
		t.Fatal("corrupt snapshot verified")
	}
	if !strings.Contains(stderr, "corrupt") && !strings.Contains(stderr, "truncated") {
		t.Errorf("corruption error: %s", stderr)
	}
}

// TestMetricsJSONGolden pins the -metrics-json document of a clean
// fixed-sweep multi-node solve byte for byte. Every recorded value
// derives from simulated state (node cycle clocks, engine critical
// path), so the document is deterministic at any worker count.
func TestMetricsJSONGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	_, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "4", "-metrics-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics", string(got))
}

// TestTraceOutChromeFormat: -trace-out on a 4-rank solve writes a
// trace_event document Perfetto can load — an events array with the
// engine phase track (tid 0) and one track per ring rank (tid 1..4).
func TestTraceOutChromeFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	_, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "4", "-trace-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	tids := map[int]bool{}
	phases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		tids[ev.TID] = true
		if ev.TID == 0 {
			phases[ev.Name] = true
		}
	}
	for tid := 0; tid <= 4; tid++ {
		if !tids[tid] {
			t.Errorf("no events on track %d (tracks: %v)", tid, tids)
		}
	}
	for _, ph := range []string{"dispatch", "combine", "exchange"} {
		if !phases[ph] {
			t.Errorf("engine track missing phase %q (has %v)", ph, phases)
		}
	}
}

// TestBenchJSONGolden pins the shape of the -bench-json report — the
// probe names and their metric keys, in order — with the measured
// numbers dropped (wall time varies run to run). The simulated-clock
// metrics are then spot-checked directly: the obs-overhead pair must
// report identical machine and comm cycles, the disabled-vs-enabled
// determinism contract.
func TestBenchJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("bench emitter runs full benchmark probes (~10s)")
	}
	stdout, stderr, code := runCLI(t, "-bench-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var recs []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(stdout), &recs); err != nil {
		t.Fatalf("bench output is not JSON: %v", err)
	}
	var sb strings.Builder
	byName := map[string]map[string]float64{}
	for _, r := range recs {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, "%s [%s]\n", r.Name, strings.Join(keys, " "))
		byName[r.Name] = r.Metrics
	}
	checkGolden(t, "bench-shape", sb.String())

	off, on := byName["obs-overhead/disabled"], byName["obs-overhead/enabled"]
	if off == nil || on == nil {
		t.Fatal("obs-overhead records missing")
	}
	if off["machine_cycles"] == 0 ||
		off["machine_cycles"] != on["machine_cycles"] ||
		off["comm_cycles"] != on["comm_cycles"] {
		t.Errorf("obs layer changed the simulated clocks: disabled=%v enabled=%v", off, on)
	}

	// Recovery overhead: buddy mirroring on a clean run must not move a
	// single simulated cycle, and each kill record must report exactly
	// one recovery whose simulated price is positive.
	clean, buddy := byName["recovery-overhead/clean"], byName["recovery-overhead/buddy-clean"]
	if clean == nil || buddy == nil {
		t.Fatal("recovery-overhead records missing")
	}
	if clean["machine_cycles"] == 0 ||
		clean["machine_cycles"] != buddy["machine_cycles"] ||
		clean["comm_cycles"] != buddy["comm_cycles"] {
		t.Errorf("buddy mirror changed the simulated clocks: clean=%v buddy=%v", clean, buddy)
	}
	for _, name := range []string{"recovery-overhead/kill-spare", "recovery-overhead/kill-shrink"} {
		m := byName[name]
		if m == nil {
			t.Fatalf("%s record missing", name)
		}
		if m["recoveries"] != 1 || m["cycles_lost"] <= 0 {
			t.Errorf("%s: recoveries=%v cycles_lost=%v, want 1 recovery at a positive price", name, m["recoveries"], m["cycles_lost"])
		}
	}
}

// TestProfileFlagsSmoke: -cpuprofile and -memprofile write non-empty
// pprof files and leave the report byte-identical to the unprofiled
// run — the taps observe the host process, never the simulation.
func TestProfileFlagsSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	plain, _, _ := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "4")
	profiled, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "4", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if profiled != plain {
		t.Errorf("profiling changed the report:\n%s\n%s", profiled, plain)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", p)
		}
	}

	// An unwritable profile path is a run error, not a silent no-op.
	if _, _, code := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "2",
		"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "cpu.pprof")); code == 0 {
		t.Error("unwritable -cpuprofile exited 0")
	}
}

// TestNoKernelFlagCLI: -no-kernel pins the interpreter and changes
// nothing observable in the report — the kernel contract at CLI level.
func TestNoKernelFlagCLI(t *testing.T) {
	kernel, _, _ := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6")
	interp, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6", "-no-kernel")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if interp != kernel {
		t.Errorf("-no-kernel changed the report:\n%s\n%s", interp, kernel)
	}
}

func TestTrapFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-jacobi", "8", "-trap-policy", "panic"},          // unknown policy
		{"-jacobi", "8", "-ecc-faults", "1:0:70:triple"},   // bad ECC kind
		{"-jacobi", "8", "-ecc-faults", "9:0:70:double"},   // rank off the cube
		{"-prog", "x.nscm", "-ecc-faults", "0:0:1:single"}, // wrong mode
		{"-verify-checkpoint", "/nonexistent/ck"},
	} {
		if _, _, code := runCLI(t, args...); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

// TestJacobiKillRecoveryCLI: -kill permanently loses a rank mid-solve.
// With -spares the dead slot is refilled from the pool; without, the
// solve re-partitions over the survivors. Either way the solve line is
// bit-identical to the clean run and the report says what happened.
func TestJacobiKillRecoveryCLI(t *testing.T) {
	clean, _, _ := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "8")
	if strings.Contains(clean, "recovery:") {
		t.Error("clean report grew a recovery line")
	}

	spare, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "2", "-sweeps", "8", "-kill", "3:1", "-spares", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "kill-spare", spare)
	if jacobiLine(spare) != jacobiLine(clean) {
		t.Errorf("spare-recovered solve diverged:\n%s\n%s", jacobiLine(spare), jacobiLine(clean))
	}
	if !strings.Contains(spare, "spares=1") || !strings.Contains(spare, "4 node(s) live") {
		t.Errorf("spare recovery line:\n%s", spare)
	}

	shrink, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "2", "-sweeps", "8", "-kill", "3:1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if jacobiLine(shrink) != jacobiLine(clean) {
		t.Errorf("shrink-recovered solve diverged:\n%s\n%s", jacobiLine(shrink), jacobiLine(clean))
	}
	if !strings.Contains(shrink, "shrinks=1") || !strings.Contains(shrink, "3 node(s) live") {
		t.Errorf("shrink recovery line:\n%s", shrink)
	}

	for _, bad := range []string{"3", "x:1", "3:x"} {
		if _, _, code := runCLI(t, "-jacobi", "8", "-cube", "2", "-kill", bad); code == 0 {
			t.Errorf("-kill %q: exit 0, want failure", bad)
		}
	}
}

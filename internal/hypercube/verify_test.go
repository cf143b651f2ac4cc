package hypercube

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tinyCheckpoint builds the smallest interesting snapshot: a 2×2×6
// grid taken on 2 ranks, non-trivial counters, a few residuals.
func tinyCheckpoint() *Checkpoint {
	words := 2 * 2 * 6 // N·N·Nz
	grid := func(seed float64) []float64 {
		g := make([]float64, words)
		for i := range g {
			g[i] = seed + float64(i)*0.5
		}
		return g
	}
	ck := &Checkpoint{
		Sweep: 3, Topology: "hypercube", P: 2, N: 2, Nz: 6,
		Residuals:     []float64{1.5, 0.75, 0.25},
		MachineCycles: 1000, CommCycles: 200,
		FaultFired: []int64{1, 0},
	}
	ck.Faults.Kills = 2
	ck.Traps.ECCCorrected = 5
	ck.PlanCache.Hits = 7
	ck.U, ck.V = grid(0), grid(100)
	return ck
}

// TestCheckpointDetectsEveryBitFlip is the integrity acceptance test:
// flipping ANY single bit of a serialized checkpoint must make the
// restore fail — no flip may silently restore garbage.
func TestCheckpointDetectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tinyCheckpoint().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	if _, err := ReadCheckpoint(bytes.NewReader(orig)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	flipped := make([]byte, len(orig))
	for bit := 0; bit < len(orig)*8; bit++ {
		copy(flipped, orig)
		flipped[bit/8] ^= 1 << uint(bit%8)
		if _, err := ReadCheckpoint(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("flip of bit %d (byte %d) restored silently", bit, bit/8)
		}
	}
}

// TestCheckpointDetectsTruncation: every proper prefix must fail.
func TestCheckpointDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tinyCheckpoint().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for n := 0; n < len(orig); n++ {
		if _, err := ReadCheckpoint(bytes.NewReader(orig[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes restored silently", n, len(orig))
		}
	}
}

func TestVerifyCheckpoint(t *testing.T) {
	ck := tinyCheckpoint()
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), buf.Bytes()...)

	got, err := VerifyCheckpoint(bytes.NewReader(pristine))
	if err != nil {
		t.Fatalf("pristine checkpoint failed verification: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Error("verification altered the snapshot")
	}

	// Trailing garbage after the last section is an error for the
	// verifier (ReadCheckpoint tolerates it for streaming use).
	trailing := append(append([]byte(nil), pristine...), 0xAB)
	if _, err := ReadCheckpoint(bytes.NewReader(trailing)); err != nil {
		t.Errorf("ReadCheckpoint choked on trailing data: %v", err)
	}
	if _, err := VerifyCheckpoint(bytes.NewReader(trailing)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("VerifyCheckpoint on trailing data: %v", err)
	}

	// Corruption errors name the section and the offset.
	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)-6] ^= 0x10 // inside the V section
	_, err = VerifyCheckpoint(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("corrupt section verified")
	}
	for _, frag := range []string{`section "V"`, "corrupt at offset", "crc"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
}

func TestVerifyCheckpointFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solve.ckpt")
	if err := SaveCheckpointFile(path, tinyCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyCheckpointFile(path); err != nil {
		t.Errorf("saved file failed verification: %v", err)
	}
	if _, err := VerifyCheckpointFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file verified")
	}
}

// overflowingCheckpoint serializes a snapshot whose header declares an
// N·N·Nz that overflows int64 (2^22·2^22·2^22 = 2^66 words), with
// valid checksums and empty grids.
func overflowingCheckpoint(t testing.TB) []byte {
	var buf bytes.Buffer
	ck := &Checkpoint{Topology: "hypercube", P: 4, N: 1 << 22, Nz: 1 << 22}
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCheckpointRestore hammers the restore path: arbitrary bytes must
// never panic, and any stream that parses must re-serialize to a
// stream that parses to the same snapshot.
func FuzzCheckpointRestore(f *testing.F) {
	var seed bytes.Buffer
	if _, err := tinyCheckpoint().WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("NSCCKPT1 old format"))
	f.Add([]byte{})
	f.Add(overflowingCheckpoint(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := ck.WriteTo(&out); err != nil {
			t.Fatalf("parsed checkpoint failed to re-serialize: %v", err)
		}
		back, err := ReadCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized checkpoint failed to parse: %v", err)
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatal("checkpoint round trip not stable")
		}
	})
}

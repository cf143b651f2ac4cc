package hypercube

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/sim"
)

// Sweep-boundary checkpointing: at the top of a sweep the only state a
// resumed solve needs is the u and v iterate planes, the sweep index,
// the convergence history, the machine's cycle clocks and the fault
// machinery's counters. F and mask planes are rebuilt from the Problem
// on restore, so snapshots stay proportional to the iterate, not the
// whole working set. The iterate is held the way the buddy mirror
// holds it (engine.Mirror): each plane as one global N×N×Nz grid, so a
// snapshot restores onto any partition of the grid — the one a shrink
// left behind, or a fresh machine's full ring. Restoring a snapshot
// provably resumes to bit-identical results versus an uninterrupted
// run (see checkpoint_test.go): the iterate is copied word-for-word and
// every downstream arithmetic step is deterministic.
//
// On disk every section — header, residuals, fault-fired counters, U,
// V — is followed by a CRC32 (IEEE) of its payload, verified on read
// before any of the payload is decoded, so a truncated or bit-flipped
// file can never silently restore garbage.

// checkpointMagic identifies the on-disk snapshot format. Its
// predecessors held per-rank slabs (retiredMagics) and are refused.
const checkpointMagic = "NSCCKPT4"

// retiredMagics are the per-rank-slab formats this build no longer
// reads: NSCCKPT2 (uniform slabs) and NSCCKPT3 (uneven slabs).
var retiredMagics = []string{"NSCCKPT2", "NSCCKPT3"}

// topologyKinds maps the header's topology word to the canonical
// topology names. Append only: the kind is an on-disk value.
var topologyKinds = []string{"hypercube", "mesh2d", "torus2d"}

// topologyKind returns the on-disk kind word for a topology name.
func topologyKind(name string) (int64, error) {
	for k, n := range topologyKinds {
		if n == name {
			return int64(k), nil
		}
	}
	return 0, fmt.Errorf("hypercube: checkpoint cannot record topology %q", name)
}

// Checkpoint is one sweep-boundary snapshot of a multi-node solve.
type Checkpoint struct {
	// Sweep is the iteration index the resumed solve executes next.
	Sweep int
	// Topology names the fabric the snapshot was taken on ("hypercube",
	// "mesh2d", "torus2d"); restores onto a different fabric are
	// rejected.
	Topology string
	// P is the rank count the snapshot was taken on (informational:
	// the grids restore onto any partition); N and Nz the global grid.
	P, N, Nz int
	// Residuals is the combined residual history up to Sweep.
	Residuals []float64
	// MachineCycles/CommCycles are the machine clocks at the boundary;
	// simulated time keeps moving forward across a restart.
	MachineCycles, CommCycles int64
	// Faults, PlanCache and Traps carry the counters accumulated before
	// the snapshot, so a run restored in a fresh process reports totals.
	Faults    engine.FaultStats
	PlanCache sim.PlanCacheStats
	Traps     sim.TrapStats
	// FaultFired is the fault plan's per-event firing counters: a
	// restored run does not re-suffer faults it already survived.
	FaultFired []int64
	// U and V are the iterate planes in global form, N·N·Nz words
	// each: every rank's owned planes plus the grid's true boundary.
	U, V []float64
}

// mirror views the snapshot as the engine's host-side state copy over
// its own grids, the form every restore scatters from.
func (ck *Checkpoint) mirror() *engine.Mirror {
	return &engine.Mirror{Sweep: ck.Sweep, Series: ck.Residuals,
		Planes: []int{jacobi.PlaneU, jacobi.PlaneV}, Grids: [][]float64{ck.U, ck.V}}
}

// checkpointHeader is the fixed-size first section: every scalar the
// restore needs before it can size the variable sections.
type checkpointHeader struct {
	Sweep, Topology, P, N, Nz int64
	MachineCycles, CommCycles int64
	Faults                    engine.FaultStats
	PlanHits, PlanMisses      int64
	PlanEntries               int64
	Traps                     sim.TrapStats
	NRes, NFired              int64
}

// sectionWriter streams sections into a buffered writer: each payload
// passes through a running CRC32, which follows it.
type sectionWriter struct {
	w   *bufio.Writer
	crc uint32
	off int64
	err error
	buf [512]byte
}

// Write appends p to the current section.
func (sw *sectionWriter) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	n, err := sw.w.Write(p)
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p[:n])
	sw.off += int64(n)
	sw.err = err
	return n, err
}

// floats appends vs by bit pattern, so restored values are
// bit-identical.
func (sw *sectionWriter) floats(vs []float64) {
	for len(vs) > 0 {
		n := min(len(vs), len(sw.buf)/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(sw.buf[8*i:], math.Float64bits(v))
		}
		sw.Write(sw.buf[:8*n])
		vs = vs[n:]
	}
}

// end closes the current section with its CRC32.
func (sw *sectionWriter) end() {
	binary.LittleEndian.PutUint32(sw.buf[:4], sw.crc)
	sw.Write(sw.buf[:4])
	sw.crc = 0
}

// WriteTo serializes the snapshot: the magic string, then each section
// (scalars and slices as little-endian 64-bit words, float64s by bit
// pattern) followed by its CRC32.
func (ck *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	kind, err := topologyKind(ck.Topology)
	if err != nil {
		return 0, err
	}
	hdr := checkpointHeader{
		Sweep: int64(ck.Sweep), Topology: kind, P: int64(ck.P), N: int64(ck.N), Nz: int64(ck.Nz),
		MachineCycles: ck.MachineCycles, CommCycles: ck.CommCycles,
		Faults:   ck.Faults,
		PlanHits: ck.PlanCache.Hits, PlanMisses: ck.PlanCache.Misses, PlanEntries: int64(ck.PlanCache.Entries),
		Traps: ck.Traps,
		NRes:  int64(len(ck.Residuals)), NFired: int64(len(ck.FaultFired)),
	}
	sw := &sectionWriter{w: bufio.NewWriter(w)}
	sw.w.WriteString(checkpointMagic)
	sw.off = int64(len(checkpointMagic))
	binary.Write(sw, binary.LittleEndian, &hdr)
	sw.end()
	sw.floats(ck.Residuals)
	sw.end()
	binary.Write(sw, binary.LittleEndian, ck.FaultFired)
	sw.end()
	sw.floats(ck.U)
	sw.end()
	sw.floats(ck.V)
	sw.end()
	if sw.err != nil {
		return sw.off, sw.err
	}
	return sw.off, sw.w.Flush()
}

// sectionReader reads payload+CRC32 sections, verifying each checksum
// before any of the payload is used and reporting precise offsets.
type sectionReader struct {
	r   io.Reader
	off int64
}

func (sr *sectionReader) section(name string, size int64) ([]byte, error) {
	payload := make([]byte, size)
	if _, err := io.ReadFull(sr.r, payload); err != nil {
		return nil, fmt.Errorf("hypercube: checkpoint section %q truncated at offset %d: %w", name, sr.off, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(sr.r, crc[:]); err != nil {
		return nil, fmt.Errorf("hypercube: checkpoint section %q missing checksum at offset %d: %w",
			name, sr.off+size, err)
	}
	want := binary.LittleEndian.Uint32(crc[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("hypercube: checkpoint section %q corrupt at offset %d: crc 0x%08x, want 0x%08x",
			name, sr.off, got, want)
	}
	sr.off += size + 4
	return payload, nil
}

// floats reads a verified section of n float64 words. An empty section
// reads back as nil, so a round trip reproduces the original struct.
func (sr *sectionReader) floats(name string, n int64) ([]float64, error) {
	payload, err := sr.section(name, 8*n)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out, nil
}

// ReadCheckpoint deserializes a snapshot written by WriteTo, verifying
// every section checksum.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ck, _, err := readCheckpoint(bufio.NewReader(r))
	return ck, err
}

func readCheckpoint(br *bufio.Reader) (*Checkpoint, int64, error) {
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, fmt.Errorf("hypercube: reading checkpoint magic: %w", err)
	}
	for _, old := range retiredMagics {
		if string(magic) == old {
			return nil, 0, fmt.Errorf("hypercube: checkpoint format %s (per-rank slabs) is no longer read; this build reads %s",
				old, checkpointMagic)
		}
	}
	if string(magic) != checkpointMagic {
		return nil, 0, fmt.Errorf("hypercube: not a checkpoint (magic %q, want %q)", magic, checkpointMagic)
	}
	sr := &sectionReader{r: br, off: int64(len(magic))}
	payload, err := sr.section("header", int64(binary.Size(checkpointHeader{})))
	if err != nil {
		return nil, 0, err
	}
	var hdr checkpointHeader
	if err := binary.Read(bytes.NewReader(payload), binary.LittleEndian, &hdr); err != nil {
		return nil, 0, fmt.Errorf("hypercube: decoding checkpoint header: %w", err)
	}
	// The checksum proves integrity, not honesty: a hand-forged file can
	// carry valid CRCs over absurd shapes, so the caps stay. N·N·Nz is
	// bounded without forming the product, which could overflow.
	const maxSane = 1 << 30
	if hdr.P < 0 || hdr.P > 1<<10 || hdr.N < 0 || hdr.N > maxSane || hdr.Nz < 0 || hdr.Nz > maxSane ||
		hdr.Nz > 0 && hdr.N*hdr.N > maxSane/hdr.Nz {
		return nil, 0, fmt.Errorf("hypercube: checkpoint header out of range (P=%d N=%d Nz=%d)",
			hdr.P, hdr.N, hdr.Nz)
	}
	if hdr.Topology < 0 || hdr.Topology >= int64(len(topologyKinds)) {
		return nil, 0, fmt.Errorf("hypercube: checkpoint topology kind %d unknown", hdr.Topology)
	}
	if hdr.NRes < 0 || hdr.NRes > maxSane || hdr.NFired < 0 || hdr.NFired > maxSane {
		return nil, 0, fmt.Errorf("hypercube: checkpoint counts out of range (residuals=%d fired=%d)",
			hdr.NRes, hdr.NFired)
	}
	ck := &Checkpoint{
		Sweep: int(hdr.Sweep), Topology: topologyKinds[hdr.Topology],
		P: int(hdr.P), N: int(hdr.N), Nz: int(hdr.Nz),
		MachineCycles: hdr.MachineCycles, CommCycles: hdr.CommCycles,
		Faults:    hdr.Faults,
		PlanCache: sim.PlanCacheStats{Hits: hdr.PlanHits, Misses: hdr.PlanMisses, Entries: int(hdr.PlanEntries)},
		Traps:     hdr.Traps,
	}
	if ck.Residuals, err = sr.floats("residuals", hdr.NRes); err != nil {
		return nil, 0, err
	}
	if payload, err = sr.section("fault-fired", 8*hdr.NFired); err != nil {
		return nil, 0, err
	}
	if hdr.NFired > 0 {
		ck.FaultFired = make([]int64, hdr.NFired)
		for i := range ck.FaultFired {
			ck.FaultFired[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	}
	words := hdr.N * hdr.N * hdr.Nz
	if ck.U, err = sr.floats("U", words); err != nil {
		return nil, 0, err
	}
	if ck.V, err = sr.floats("V", words); err != nil {
		return nil, 0, err
	}
	return ck, sr.off, nil
}

// VerifyCheckpoint reads a complete checkpoint stream, verifying every
// section checksum and rejecting trailing bytes after the last
// section. It returns the verified snapshot.
func VerifyCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	ck, off, err := readCheckpoint(br)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("hypercube: checkpoint has trailing data after the final section (offset %d)", off)
	}
	return ck, nil
}

// VerifyCheckpointFile is VerifyCheckpoint over a file.
func VerifyCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return VerifyCheckpoint(f)
}

// SaveCheckpointFile writes the snapshot to path crash-safely: the
// bytes go to a temp file in the same directory, are fsynced to stable
// storage, and only then rename over the destination. A process killed
// at any instant — mid-write, mid-sync, mid-rename — leaves either the
// old complete file or the new complete file, never a torn mix; at
// worst an orphaned temp file remains, which the next save of the same
// path cannot confuse for a checkpoint (the CRC-verified read rejects
// any partial prefix). The directory entry is fsynced best-effort so
// the rename itself survives power loss on filesystems that honor it.
func SaveCheckpointFile(path string, ck *Checkpoint) error {
	dir := dirOf(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := ck.WriteTo(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpointFile reads a snapshot written by SaveCheckpointFile.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i+1]
		}
	}
	return "."
}

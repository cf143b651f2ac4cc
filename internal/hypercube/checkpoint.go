package hypercube

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Sweep-boundary checkpointing: at the top of a sweep the only state a
// resumed solve needs is each node's u and v planes (ghost planes
// included — parity decides which plane the next sweep reads), the
// sweep index, the convergence history, the machine's cycle clocks and
// the fault machinery's counters. F and mask planes are rebuilt from
// the Problem on restore, so snapshots stay proportional to the
// iterate, not the whole working set. Restoring a snapshot provably
// resumes to bit-identical results versus an uninterrupted run (see
// checkpoint_test.go): the iterate planes are copied word-for-word and
// every downstream arithmetic step is deterministic.
//
// On disk every section — header, residual history, fault counters,
// each rank's grids — is followed by a CRC32 (IEEE) of its payload,
// verified on read before any of the payload is trusted, so a
// truncated or bit-flipped file can never silently restore garbage.

// checkpointMagic identifies the on-disk snapshot format: version 2 of
// the NSCCKPT family, which added the per-section checksums and the
// trap counters. Version 3 (checkpointMagicV3) extends it with a
// topology section and, for uneven decompositions — the shape a
// shrinking re-partition leaves behind — a per-rank plane-count
// section. Uniform hypercube snapshots always write version 2,
// byte-identical to before, so every pre-existing file and reader keeps
// working; version 2 implies the hypercube.
const (
	checkpointMagic   = "NSCCKPT2"
	checkpointMagicV3 = "NSCCKPT3"
)

// topologyKinds maps the version-3 topology section's kind word to the
// canonical topology names. Append only: the kind is an on-disk value.
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
	// rejected. Version-2 files carry no topology section and read back
	// as "hypercube".
	Topology string
	// Shape guard: node count, global N/Nz, planes per node.
	P, N, Nz, Slab int
	// Planes, when non-nil, is the per-rank interior plane count of an
	// uneven decomposition (Slab is 0 then). Nil means every rank owns
	// Slab planes — the uniform shape, serialized as version 2.
	Planes []int
	// Residuals is the combined residual history up to Sweep.
	Residuals []float64
	// MachineCycles/CommCycles are the machine clocks at the boundary;
	// simulated time keeps moving forward across a restart.
	MachineCycles, CommCycles int64
	// Faults, PlanCache and Traps carry the counters accumulated before
	// the snapshot, so a run restored in a fresh process reports totals.
	Faults    FaultStats
	PlanCache sim.PlanCacheStats
	Traps     sim.TrapStats
	// FaultFired is the fault plan's per-event firing counters: a
	// restored run does not re-suffer faults it already survived.
	FaultFired []int64
	// U and V hold, per ring rank, the full local iterate planes
	// ((Slab+2)·N² words each, ghosts included).
	U, V [][]float64
}

// planesOf returns rank r's interior plane count.
func (ck *Checkpoint) planesOf(r int) int {
	if ck.Planes != nil {
		return ck.Planes[r]
	}
	return ck.Slab
}

// maxPlanes returns the largest per-rank plane count (section sizing).
func (ck *Checkpoint) maxPlanes() int {
	if ck.Planes == nil {
		return ck.Slab
	}
	worst := 0
	for _, pl := range ck.Planes {
		if pl > worst {
			worst = pl
		}
	}
	return worst
}

// planeWords returns the per-node iterate size of rank r.
func (ck *Checkpoint) planeWords(r int) int { return (ck.planesOf(r) + 2) * ck.N * ck.N }

// maxPlaneWords returns the largest per-rank iterate size.
func (ck *Checkpoint) maxPlaneWords() int { return (ck.maxPlanes() + 2) * ck.N * ck.N }

// compatible checks a snapshot against a solve's decomposition.
func (ck *Checkpoint) compatible(part *engine.Partition) error {
	if ck.P != part.P || ck.N != part.N || ck.Nz != part.Nz {
		return fmt.Errorf("hypercube: checkpoint shape P=%d N=%d Nz=%d does not match solve P=%d N=%d Nz=%d",
			ck.P, ck.N, ck.Nz, part.P, part.N, part.Nz)
	}
	if len(ck.U) != part.P || len(ck.V) != part.P {
		return fmt.Errorf("hypercube: checkpoint holds %d/%d node grids, want %d", len(ck.U), len(ck.V), part.P)
	}
	for r := 0; r < part.P; r++ {
		if ck.planesOf(r) != part.Planes[r] {
			return fmt.Errorf("hypercube: checkpoint rank %d owns %d planes, solve partition gives it %d",
				r, ck.planesOf(r), part.Planes[r])
		}
		if len(ck.U[r]) != ck.planeWords(r) || len(ck.V[r]) != ck.planeWords(r) {
			return fmt.Errorf("hypercube: checkpoint rank %d grid has %d/%d words, want %d",
				r, len(ck.U[r]), len(ck.V[r]), ck.planeWords(r))
		}
	}
	return nil
}

// partition reconstructs the slab decomposition the snapshot was taken
// under.
func (ck *Checkpoint) partition() (*engine.Partition, error) {
	if ck.Planes == nil {
		return engine.NewPartition(ck.P, ck.N, ck.Nz)
	}
	return engine.PartitionOf(ck.N, ck.Nz, ck.Planes)
}

// checkpointHeader is the fixed-size first section: every scalar the
// restore needs before it can size the variable sections.
type checkpointHeader struct {
	Sweep, P, N, Nz, Slab     int64
	MachineCycles, CommCycles int64
	Faults                    FaultStats
	PlanHits, PlanMisses      int64
	PlanEntries               int64
	Traps                     sim.TrapStats
	NRes, NFired              int64
}

// encodeSection serializes values little-endian into one payload.
func encodeSection(vs ...any) ([]byte, error) {
	var buf bytes.Buffer
	for _, v := range vs {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// sectionWriter appends payload+CRC32 sections, tracking the offset.
type sectionWriter struct {
	w   io.Writer
	off int64
}

func (sw *sectionWriter) section(payload []byte) error {
	if _, err := sw.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := sw.w.Write(crc[:]); err != nil {
		return err
	}
	sw.off += int64(len(payload)) + 4
	return nil
}

// WriteTo serializes the snapshot: the magic string, then each section
// (scalars and slices as little-endian 64-bit words, float64s by bit
// pattern so restored grids are bit-identical) followed by its CRC32.
func (ck *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	magic := checkpointMagic
	v3 := ck.Planes != nil || (ck.Topology != "" && ck.Topology != "hypercube")
	if v3 {
		magic = checkpointMagicV3
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return 0, err
	}
	sw := &sectionWriter{w: bw, off: int64(len(magic))}
	hdr := checkpointHeader{
		Sweep: int64(ck.Sweep), P: int64(ck.P), N: int64(ck.N), Nz: int64(ck.Nz), Slab: int64(ck.Slab),
		MachineCycles: ck.MachineCycles, CommCycles: ck.CommCycles,
		Faults:   ck.Faults,
		PlanHits: ck.PlanCache.Hits, PlanMisses: ck.PlanCache.Misses, PlanEntries: int64(ck.PlanCache.Entries),
		Traps: ck.Traps,
		NRes:  int64(len(ck.Residuals)), NFired: int64(len(ck.FaultFired)),
	}
	sections := [][]any{
		{hdr},
		{ck.Residuals},
		{ck.FaultFired},
	}
	if v3 {
		// Version 3 only: the fabric the snapshot was taken on, as one
		// little-endian kind word.
		name := ck.Topology
		if name == "" {
			name = "hypercube"
		}
		kind, err := topologyKind(name)
		if err != nil {
			return 0, err
		}
		sections = append(sections, []any{kind})
	}
	if ck.Planes != nil {
		// Version 3, uneven decompositions only (header Slab is 0 then):
		// the per-rank plane counts, as little-endian int64s.
		planes := make([]int64, len(ck.Planes))
		for r, pl := range ck.Planes {
			planes[r] = int64(pl)
		}
		sections = append(sections, []any{planes})
	}
	for r := 0; r < ck.P; r++ {
		sections = append(sections, []any{ck.U[r], ck.V[r]})
	}
	for _, vs := range sections {
		payload, err := encodeSection(vs...)
		if err != nil {
			return sw.off, err
		}
		if err := sw.section(payload); err != nil {
			return sw.off, err
		}
	}
	return sw.off, bw.Flush()
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

func (sr *sectionReader) decode(name string, size int64, vs ...any) error {
	payload, err := sr.section(name, size)
	if err != nil {
		return err
	}
	br := bytes.NewReader(payload)
	for _, v := range vs {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("hypercube: decoding checkpoint section %q: %w", name, err)
		}
	}
	return nil
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
	v3 := string(magic) == checkpointMagicV3
	if string(magic) != checkpointMagic && !v3 {
		return nil, 0, fmt.Errorf("hypercube: not a checkpoint (magic %q, want %q or %q)",
			magic, checkpointMagic, checkpointMagicV3)
	}
	sr := &sectionReader{r: br, off: int64(len(magic))}
	var hdr checkpointHeader
	if err := sr.decode("header", int64(binary.Size(hdr)), &hdr); err != nil {
		return nil, 0, err
	}
	ck := &Checkpoint{
		Sweep: int(hdr.Sweep), P: int(hdr.P), N: int(hdr.N), Nz: int(hdr.Nz), Slab: int(hdr.Slab),
		MachineCycles: hdr.MachineCycles, CommCycles: hdr.CommCycles,
		Faults:    hdr.Faults,
		PlanCache: sim.PlanCacheStats{Hits: hdr.PlanHits, Misses: hdr.PlanMisses, Entries: int(hdr.PlanEntries)},
		Traps:     hdr.Traps,
	}
	// The checksum proves integrity, not honesty: a hand-forged file can
	// carry valid CRCs over absurd shapes, so the caps stay.
	const maxSane = 1 << 30
	if hdr.P < 0 || hdr.P > 1<<10 || hdr.N < 0 || hdr.N > maxSane || hdr.Nz < 0 || hdr.Nz > maxSane ||
		hdr.Slab < 0 || hdr.Slab > maxSane || int64(ck.maxPlaneWords()) > maxSane {
		return nil, 0, fmt.Errorf("hypercube: checkpoint header out of range (P=%d N=%d Nz=%d slab=%d)",
			hdr.P, hdr.N, hdr.Nz, hdr.Slab)
	}
	if hdr.NRes < 0 || hdr.NRes > maxSane || hdr.NFired < 0 || hdr.NFired > maxSane {
		return nil, 0, fmt.Errorf("hypercube: checkpoint counts out of range (residuals=%d fired=%d)",
			hdr.NRes, hdr.NFired)
	}
	// Empty blocks stay nil so a round trip reproduces the original
	// struct exactly; their (empty) sections are still CRC-verified.
	if hdr.NRes > 0 {
		ck.Residuals = make([]float64, hdr.NRes)
	}
	if err := sr.decode("residuals", hdr.NRes*8, ck.Residuals); err != nil {
		return nil, 0, err
	}
	if hdr.NFired > 0 {
		ck.FaultFired = make([]int64, hdr.NFired)
	}
	if err := sr.decode("fault-counters", hdr.NFired*8, ck.FaultFired); err != nil {
		return nil, 0, err
	}
	ck.Topology = "hypercube"
	if v3 {
		var kind int64
		if err := sr.decode("topology", 8, &kind); err != nil {
			return nil, 0, err
		}
		if kind < 0 || kind >= int64(len(topologyKinds)) {
			return nil, 0, fmt.Errorf("hypercube: checkpoint topology kind %d unknown", kind)
		}
		ck.Topology = topologyKinds[kind]
	}
	// The plane-count section exists only for uneven decompositions,
	// whose headers carry no uniform slab size.
	if v3 && hdr.Slab == 0 {
		planes := make([]int64, ck.P)
		if err := sr.decode("planes", int64(ck.P)*8, planes); err != nil {
			return nil, 0, err
		}
		ck.Planes = make([]int, ck.P)
		sum := 0
		for r, pl := range planes {
			if pl < 1 || pl > maxSane {
				return nil, 0, fmt.Errorf("hypercube: checkpoint rank %d plane count %d out of range", r, pl)
			}
			ck.Planes[r] = int(pl)
			sum += int(pl)
		}
		if sum != ck.Nz-2 {
			return nil, 0, fmt.Errorf("hypercube: checkpoint plane counts sum to %d, header declares %d interior planes",
				sum, ck.Nz-2)
		}
		if int64(ck.maxPlaneWords()) > maxSane {
			return nil, 0, fmt.Errorf("hypercube: checkpoint plane counts out of range (N=%d max planes=%d)",
				ck.N, ck.maxPlanes())
		}
	}
	for r := 0; r < ck.P; r++ {
		words := int64(ck.planeWords(r))
		u := make([]float64, words)
		v := make([]float64, words)
		if err := sr.decode(fmt.Sprintf("rank %d", r), 2*words*8, u, v); err != nil {
			return nil, 0, err
		}
		ck.U = append(ck.U, u)
		ck.V = append(ck.V, v)
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

// Package sim is the NSC node simulator: it executes microcode
// instructions against modeled memory planes, double-buffered caches,
// shift/delay units, functional-unit pipelines, the switch network and
// the sequencer with its interrupt scheme (§2 of the paper).
//
// The simulator is cycle-faithful at the stream level: every producing
// port is evaluated as a function of the clock cycle, so register-file
// delays, pipeline fill, and stream misalignment have real effects —
// microcode with unbalanced timing computes wrong answers, exactly the
// class of bug the visual environment's checker and generator exist to
// prevent.
package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/microcode"
	"repro/internal/obs"
)

const pageWords = 4096

// Plane is one memory plane with sparse paged backing, so the full
// 128 MB address space is addressable at laptop scale.
type Plane struct {
	words int64
	pages map[int64]*[pageWords]float64
}

// NewPlane returns an empty plane holding `words` machine words.
func NewPlane(words int64) *Plane {
	return &Plane{words: words, pages: make(map[int64]*[pageWords]float64)}
}

// Read returns the word at addr (unwritten words read as zero).
func (pl *Plane) Read(addr int64) (float64, error) {
	if addr < 0 || addr >= pl.words {
		return 0, fmt.Errorf("sim: plane address %d outside [0,%d)", addr, pl.words)
	}
	pg, ok := pl.pages[addr/pageWords]
	if !ok {
		return 0, nil
	}
	return pg[addr%pageWords], nil
}

// Write stores v at addr.
func (pl *Plane) Write(addr int64, v float64) error {
	if addr < 0 || addr >= pl.words {
		return fmt.Errorf("sim: plane address %d outside [0,%d)", addr, pl.words)
	}
	pg, ok := pl.pages[addr/pageWords]
	if !ok {
		pg = new([pageWords]float64)
		pl.pages[addr/pageWords] = pg
	}
	pg[addr%pageWords] = v
	return nil
}

// PagesResident reports how many pages have been touched (memory
// footprint accounting).
func (pl *Plane) PagesResident() int { return len(pl.pages) }

// DoubleBuffer is one data cache: two buffers of equal size, one facing
// the pipeline while the other faces memory, swapped under microcode
// control.
type DoubleBuffer struct {
	bufs [2][]float64
}

// NewDoubleBuffer returns a cache with two zeroed buffers of `words`
// words each.
func NewDoubleBuffer(words int64) *DoubleBuffer {
	return &DoubleBuffer{bufs: [2][]float64{make([]float64, words), make([]float64, words)}}
}

// Read returns word addr of buffer b.
func (db *DoubleBuffer) Read(b int, addr int64) (float64, error) {
	if b != 0 && b != 1 {
		return 0, fmt.Errorf("sim: cache buffer %d", b)
	}
	if addr < 0 || addr >= int64(len(db.bufs[b])) {
		return 0, fmt.Errorf("sim: cache address %d outside [0,%d)", addr, len(db.bufs[b]))
	}
	return db.bufs[b][addr], nil
}

// Write stores v at word addr of buffer b.
func (db *DoubleBuffer) Write(b int, addr int64, v float64) error {
	if b != 0 && b != 1 {
		return fmt.Errorf("sim: cache buffer %d", b)
	}
	if addr < 0 || addr >= int64(len(db.bufs[b])) {
		return fmt.Errorf("sim: cache address %d outside [0,%d)", addr, len(db.bufs[b]))
	}
	db.bufs[b][addr] = v
	return nil
}

// Swap exchanges the two buffers.
func (db *DoubleBuffer) Swap() { db.bufs[0], db.bufs[1] = db.bufs[1], db.bufs[0] }

// Interrupt records an interrupt raised by an instruction: either a
// completion interrupt (Trap nil) or an exception record.
type Interrupt struct {
	PC    int
	Cycle int64
	// Trap, when non-nil, is the exception record behind this interrupt.
	Trap *Trap
}

// Stats accumulates execution accounting across instructions.
type Stats struct {
	Instructions int64
	// Cycles includes issue overhead, pipeline fill and stream drain.
	Cycles int64
	// FLOPs counts floating-point results produced by functional units.
	FLOPs int64
	// Elements counts vector elements streamed from sources.
	Elements int64
	// FUBusy counts, per functional unit, the elements it processed —
	// the utilization breakdown behind the MFLOPS number.
	FUBusy []int64
}

// Utilization returns the fraction of unit-cycles spent producing
// results: Σ busy / (units × cycles).
func (s Stats) Utilization(totalFUs int) float64 {
	if s.Cycles == 0 || totalFUs == 0 {
		return 0
	}
	var busy int64
	for _, b := range s.FUBusy {
		busy += b
	}
	return float64(busy) / (float64(totalFUs) * float64(s.Cycles))
}

// Seconds converts the cycle count to wall time at the given clock.
func (s Stats) Seconds(clockHz float64) float64 { return float64(s.Cycles) / clockHz }

// MFLOPS returns achieved millions of floating-point operations per
// second at the given clock.
func (s Stats) MFLOPS(clockHz float64) float64 {
	sec := s.Seconds(clockHz)
	if sec == 0 {
		return 0
	}
	return float64(s.FLOPs) / sec / 1e6
}

// Node is one NSC node: planes, caches, flags, reduction registers and
// statistics. Construct with NewNode.
type Node struct {
	Cfg arch.Config
	Inv *arch.Inventory
	F   *microcode.Format

	Mem    []*Plane
	Cache  []*DoubleBuffer
	Flags  uint16
	RedReg []float64
	// Ctr holds the sequencer's loop counters (CondLoop decrements).
	// Counter indices are validated at decode time; no wrapping.
	Ctr   [microcode.NumCounters]int64
	IRQs  []Interrupt
	Stats Stats

	// plans is the decoded-instruction cache: instruction bit pattern →
	// compiled ExecPlan, with hit/miss accounting. scratch holds the
	// reusable per-plan working sets of the run layer. Both are
	// node-private, keeping concurrent multi-node execution free of
	// shared mutable state.
	plans                map[string]*ExecPlan
	scratch              map[*ExecPlan]*runScratch
	planHits, planMisses int64
	// keyBuf is the reusable plan-cache key serialization buffer; the
	// hit path probes the cache without materializing a key string.
	keyBuf []byte

	// KernelOff forces every dispatch through the reference
	// interpreter even when the plan carries a specialized kernel —
	// the escape hatch behind nscsim -no-kernel and the slow side of
	// the kernel equivalence tests. kernelFast/kernelSlow count which
	// path each vector dispatch took.
	KernelOff              bool
	kernelFast, kernelSlow int64

	// TrapCfg selects the node's exception-handling policy (zero value:
	// seed behaviour, detection off). TrapCounters accumulates every
	// detected condition; ecc holds armed fire-once memory-plane
	// events keyed by (plane, addr); trapRecords counts Trap entries
	// appended to IRQs (bounded by maxTrapRecords).
	TrapCfg      arch.TrapConfig
	TrapCounters TrapStats
	ecc          map[eccKey][]ECCFault
	trapRecords  int

	// Tracer, when non-nil, observes every value each producing port
	// emits during Exec. It powers the paper's proposed debugging
	// extension: "each new instruction would display the corresponding
	// pipeline diagram, annotated to show data values flowing through
	// the pipeline" (§6).
	Tracer func(src arch.SourceID, cycle int, val float64, valid bool)

	// Obs, when non-nil, receives the node's dispatch/trap/ECC metrics
	// and events through the unified observability layer. ObsID names
	// this node's tracer shard (multi-node drivers set it to the ring
	// rank). Instrumentation only reads simulated state — results and
	// clocks are bit-identical with Obs armed or nil.
	Obs   *obs.Obs
	ObsID int
}

// NewNode builds a node for the configuration.
func NewNode(cfg arch.Config) (*Node, error) {
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		return nil, err
	}
	f, err := microcode.NewFormat(cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{Cfg: cfg, Inv: inv, F: f, RedReg: make([]float64, cfg.TotalFUs)}
	for i := 0; i < cfg.MemPlanes; i++ {
		n.Mem = append(n.Mem, NewPlane(cfg.PlaneWords()))
	}
	for i := 0; i < cfg.CachePlanes; i++ {
		n.Cache = append(n.Cache, NewDoubleBuffer(cfg.CacheWords()))
	}
	return n, nil
}

// MustNode is NewNode for known-good configurations.
func MustNode(cfg arch.Config) *Node {
	n, err := NewNode(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// WriteWords stores vals into plane starting at addr (host-side data
// loading).
func (n *Node) WriteWords(plane int, addr int64, vals []float64) error {
	if plane < 0 || plane >= len(n.Mem) {
		return fmt.Errorf("sim: plane %d out of range", plane)
	}
	for i, v := range vals {
		if err := n.Mem[plane].Write(addr+int64(i), v); err != nil {
			return err
		}
	}
	return nil
}

// ReadWords fetches count words from plane starting at addr.
func (n *Node) ReadWords(plane int, addr int64, count int) ([]float64, error) {
	out := make([]float64, count)
	if err := n.ReadWordsInto(plane, addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadWordsInto fetches len(dst) words from plane starting at addr
// into a caller-owned buffer — the allocation-free path for callers
// that read the same extent every iteration (halo gathers, host
// transfers).
func (n *Node) ReadWordsInto(plane int, addr int64, dst []float64) error {
	if plane < 0 || plane >= len(n.Mem) {
		return fmt.Errorf("sim: plane %d out of range", plane)
	}
	for i := range dst {
		v, err := n.Mem[plane].Read(addr + int64(i))
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// Flag reports the state of sequencer flag k.
func (n *Node) Flag(k int) bool { return n.Flags&(1<<uint(k)) != 0 }

// setFlag sets or clears flag k.
func (n *Node) setFlag(k int, v bool) {
	if v {
		n.Flags |= 1 << uint(k)
	} else {
		n.Flags &^= 1 << uint(k)
	}
}

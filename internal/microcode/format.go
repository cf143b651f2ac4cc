// Package microcode implements the NSC's "complex hierarchical
// microcode" (§3): each instruction completely specifies the pipeline
// configuration and function-unit operations for the entire node,
// requiring a few thousand bits encoded in dozens of separate field
// groups. The format is derived programmatically from the machine
// description so field widths adapt to the configuration.
//
// The package provides the bit-exact instruction word (Word), the field
// table (Format), a binary program container, and a disassembler. It is
// the "assembly language the NSC lacks" made concrete: the baseline
// against which the visual environment is measured.
package microcode

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
)

// ConstPoolSize is the number of 64-bit constants each instruction
// carries for register-file preloads (constants, reduction initial
// values, comparison thresholds).
const ConstPoolSize = 8

// NumCounters is the number of loop counters the sequencer implements.
// The seq.ctr field is wider than strictly necessary so that an
// out-of-range index is representable — and rejected by
// Program.Validate and the simulator's decoder — rather than silently
// wrapped modulo NumCounters.
const NumCounters = 4

// Field is one named bit range within the instruction word.
type Field struct {
	Name   string
	Offset int
	Width  int
}

// InKind encodes where a functional-unit input comes from.
type InKind uint64

// Input kinds for functional-unit operand fields.
const (
	// InNone marks an unconnected input.
	InNone InKind = iota
	// InSwitch takes the operand from the switch network (the sink
	// port's source selection applies).
	InSwitch
	// InConst takes the operand from the constant pool via the
	// register file.
	InConst
	// InFeedback takes the operand from the unit's own output of the
	// previous element (reduction feedback loop through the register
	// file).
	InFeedback
)

// Comparison operators for the sequencer's condition evaluation.
const (
	CmpLT uint64 = iota
	CmpLE
	CmpGT
	CmpGE
)

// Sequencer condition kinds.
const (
	// CondAlways falls through to seq.next.
	CondAlways uint64 = iota
	// CondFlagSet branches to seq.branch when the selected flag is set.
	CondFlagSet
	// CondFlagClear branches to seq.branch when the selected flag is
	// clear.
	CondFlagClear
	// CondHalt stops the program after this instruction.
	CondHalt
	// CondLoop decrements the selected loop counter and branches while
	// it remains positive — the sequencer's fixed-iteration construct
	// (explicit time stepping and other counted loops run without host
	// involvement).
	CondLoop
)

// Format is the derived field table for a given machine configuration.
// Construct with NewFormat; a Format is immutable and safe to share.
type Format struct {
	Cfg    arch.Config
	Fields []Field
	// Bits is the total instruction width in bits; WordsPerInstr the
	// number of uint64 lanes a Word occupies.
	Bits          int
	WordsPerInstr int

	index map[string]int

	// Pre-resolved field handles, indexed by component number, so hot
	// paths avoid map lookups.
	swSink  []Field // per sink: source selection (value NumSources = none)
	fuOp    []Field
	fuAKind []Field
	fuBKind []Field
	fuAIdx  []Field // constant-pool index when kind==InConst
	fuBIdx  []Field
	fuADel  []Field // register-file circular-queue delay, elements
	fuBDel  []Field
	fuRed   []Field // reduction mode enable
	fuRIni  []Field // reduction initial value (constant-pool index)
	consts  []Field
	memEn   []Field
	memDir  []Field // 0 = read (source), 1 = write (sink)
	memAddr []Field
	memStrd []Field // signed, two's complement
	memCnt  []Field
	memSkip []Field // leading elements suppressed (read: emit zeros; write: discard)
	memStrt []Field // write channels: cycle at which valid data reaches the sink
	cchEn   []Field
	cchDir  []Field
	cchBuf  []Field // which half of the double buffer
	cchAddr []Field
	cchStrd []Field
	cchCnt  []Field
	cchSkip []Field
	cchStrt []Field
	cchSwap []Field // swap buffers at instruction completion
	sduEn   []Field
	sduTap  [][]Field // per unit, per tap: delay in elements

	seqNext, seqBranch, seqCond, seqFlag, seqIrq, seqTrap Field
	seqCtr, seqCtrLd, seqCtrVal                           Field
	cmpEn, cmpFU, cmpConst, cmpOp, cmpFlag                Field
	noneSource                                            uint64
}

func bitsFor(n int) int {
	// Width needed to represent values 0..n-1.
	if n <= 1 {
		return 1
	}
	w := 0
	for v := n - 1; v > 0; v >>= 1 {
		w++
	}
	return w
}

// NewFormat derives the instruction format for cfg.
func NewFormat(cfg arch.Config) (*Format, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Format{Cfg: cfg, index: make(map[string]int)}
	add := func(name string, width int) Field {
		fl := Field{Name: name, Offset: f.Bits, Width: width}
		f.index[name] = len(f.Fields)
		f.Fields = append(f.Fields, fl)
		f.Bits += width
		return fl
	}

	nSrc := cfg.NumSources()
	srcW := bitsFor(nSrc + 1) // +1 for the "none" code
	f.noneSource = uint64(nSrc)
	for j := 0; j < cfg.NumSinks(); j++ {
		f.swSink = append(f.swSink, add(fmt.Sprintf("sw.snk%d", j), srcW))
	}

	opW := bitsFor(arch.NumOps)
	cW := bitsFor(ConstPoolSize)
	dW := bitsFor(cfg.MaxDelay + 1)
	for i := 0; i < cfg.TotalFUs; i++ {
		p := fmt.Sprintf("fu%d.", i)
		f.fuOp = append(f.fuOp, add(p+"op", opW))
		f.fuAKind = append(f.fuAKind, add(p+"akind", 2))
		f.fuBKind = append(f.fuBKind, add(p+"bkind", 2))
		f.fuAIdx = append(f.fuAIdx, add(p+"aconst", cW))
		f.fuBIdx = append(f.fuBIdx, add(p+"bconst", cW))
		f.fuADel = append(f.fuADel, add(p+"adelay", dW))
		f.fuBDel = append(f.fuBDel, add(p+"bdelay", dW))
		f.fuRed = append(f.fuRed, add(p+"reduce", 1))
		f.fuRIni = append(f.fuRIni, add(p+"redinit", cW))
	}

	for k := 0; k < ConstPoolSize; k++ {
		f.consts = append(f.consts, add(fmt.Sprintf("const%d", k), 64))
	}

	addrW := bitsFor(int(cfg.PlaneWords()))
	for p := 0; p < cfg.MemPlanes; p++ {
		pre := fmt.Sprintf("mem%d.", p)
		f.memEn = append(f.memEn, add(pre+"en", 1))
		f.memDir = append(f.memDir, add(pre+"dir", 1))
		f.memAddr = append(f.memAddr, add(pre+"addr", addrW))
		f.memStrd = append(f.memStrd, add(pre+"stride", 16))
		f.memCnt = append(f.memCnt, add(pre+"count", 24))
		f.memSkip = append(f.memSkip, add(pre+"skip", 24))
		f.memStrt = append(f.memStrt, add(pre+"start", 16))
	}

	cAddrW := bitsFor(int(cfg.CacheWords()))
	for p := 0; p < cfg.CachePlanes; p++ {
		pre := fmt.Sprintf("cache%d.", p)
		f.cchEn = append(f.cchEn, add(pre+"en", 1))
		f.cchDir = append(f.cchDir, add(pre+"dir", 1))
		f.cchBuf = append(f.cchBuf, add(pre+"buf", 1))
		f.cchAddr = append(f.cchAddr, add(pre+"addr", cAddrW))
		f.cchStrd = append(f.cchStrd, add(pre+"stride", 8))
		f.cchCnt = append(f.cchCnt, add(pre+"count", 12))
		f.cchSkip = append(f.cchSkip, add(pre+"skip", 12))
		f.cchStrt = append(f.cchStrt, add(pre+"start", 16))
		f.cchSwap = append(f.cchSwap, add(pre+"swap", 1))
	}

	tapW := bitsFor(cfg.SDUBufferLen + 1)
	for u := 0; u < cfg.ShiftDelayUnits; u++ {
		pre := fmt.Sprintf("sdu%d.", u)
		f.sduEn = append(f.sduEn, add(pre+"en", 1))
		taps := make([]Field, cfg.SDUTaps)
		for t := 0; t < cfg.SDUTaps; t++ {
			taps[t] = add(fmt.Sprintf("%stap%d", pre, t), tapW)
		}
		f.sduTap = append(f.sduTap, taps)
	}

	f.seqNext = add("seq.next", 12)
	f.seqBranch = add("seq.branch", 12)
	f.seqCond = add("seq.cond", 3)
	f.seqFlag = add("seq.flag", 4)
	f.seqIrq = add("seq.irq", 1)
	f.seqTrap = add("seq.trap", 1)
	f.seqCtr = add("seq.ctr", 3)
	f.seqCtrLd = add("seq.ctr.load", 1)
	f.seqCtrVal = add("seq.ctr.value", 24)
	f.cmpEn = add("seq.cmp.en", 1)
	f.cmpFU = add("seq.cmp.fu", bitsFor(cfg.TotalFUs))
	f.cmpConst = add("seq.cmp.const", cW)
	f.cmpOp = add("seq.cmp.op", 2)
	f.cmpFlag = add("seq.cmp.flag", 4)

	f.WordsPerInstr = (f.Bits + 63) / 64
	return f, nil
}

// MustFormat is NewFormat for known-good configurations.
func MustFormat(cfg arch.Config) *Format {
	f, err := NewFormat(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// FieldByName looks a field up by its hierarchical name.
func (f *Format) FieldByName(name string) (Field, bool) {
	i, ok := f.index[name]
	if !ok {
		return Field{}, false
	}
	return f.Fields[i], true
}

// NumFields returns the number of distinct fields in one instruction
// (the paper: "encoded in dozens of separate fields").
func (f *Format) NumFields() int { return len(f.Fields) }

// FieldGroups summarizes the format hierarchically: group prefix →
// total bits. Groups follow the hardware hierarchy (switch, per-FU,
// constants, per-plane DMA, SDUs, sequencer).
func (f *Format) FieldGroups() map[string]int {
	g := make(map[string]int)
	for _, fl := range f.Fields {
		key := fl.Name
		for i := 0; i < len(key); i++ {
			if key[i] == '.' {
				key = key[:i]
				break
			}
		}
		// Collapse numbered components into their class.
		for i := 0; i < len(key); i++ {
			if key[i] >= '0' && key[i] <= '9' {
				key = key[:i]
				break
			}
		}
		g[key] += fl.Width
	}
	return g
}

// GroupNames returns the group keys of FieldGroups in sorted order.
func (f *Format) GroupNames() []string {
	g := f.FieldGroups()
	names := make([]string, 0, len(g))
	for k := range g {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Word is one microcode instruction: a dense little-endian bit vector
// of Format.Bits bits across WordsPerInstr uint64 lanes.
type Word []uint64

// NewWord allocates a zeroed instruction word for the format.
func (f *Format) NewWord() Word { return make(Word, f.WordsPerInstr) }

// Clone returns an independent copy of w.
func (w Word) Clone() Word {
	c := make(Word, len(w))
	copy(c, w)
	return c
}

// SetBits stores the low `width` bits of v at bit offset off.
func (w Word) SetBits(off, width int, v uint64) {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("microcode: field width %d out of range", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("microcode: value %d overflows %d-bit field", v, width))
	}
	lane, bit := off/64, uint(off%64)
	w[lane] &^= maskAt(bit, width)
	w[lane] |= v << bit
	if spill := int(bit) + width - 64; spill > 0 {
		w[lane+1] &^= (1<<uint(spill) - 1)
		w[lane+1] |= v >> (64 - bit)
	}
}

// GetBits extracts the `width`-bit value at bit offset off.
func (w Word) GetBits(off, width int) uint64 {
	lane, bit := off/64, uint(off%64)
	v := w[lane] >> bit
	if spill := int(bit) + width - 64; spill > 0 {
		v |= w[lane+1] << (64 - bit)
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v
}

func maskAt(bit uint, width int) uint64 {
	if width >= 64 {
		return ^uint64(0) << bit
	}
	return (1<<uint(width) - 1) << bit
}

// Set stores v into field fl.
func (w Word) Set(fl Field, v uint64) { w.SetBits(fl.Offset, fl.Width, v) }

// Get extracts field fl.
func (w Word) Get(fl Field) uint64 { return w.GetBits(fl.Offset, fl.Width) }

// SetSigned stores a signed value in two's complement within the field.
func (w Word) SetSigned(fl Field, v int64) {
	min, max := -(int64(1) << uint(fl.Width-1)), int64(1)<<uint(fl.Width-1)-1
	if v < min || v > max {
		panic(fmt.Sprintf("microcode: signed value %d overflows %d-bit field %s", v, fl.Width, fl.Name))
	}
	w.SetBits(fl.Offset, fl.Width, uint64(v)&(1<<uint(fl.Width)-1))
}

// GetSigned extracts a two's-complement signed value from the field.
func (w Word) GetSigned(fl Field) int64 {
	v := w.GetBits(fl.Offset, fl.Width)
	sign := uint64(1) << uint(fl.Width-1)
	if v&sign != 0 {
		v |= ^uint64(0) << uint(fl.Width)
	}
	return int64(v)
}

// SetFloat stores a float64 bit pattern (64-bit fields only).
func (w Word) SetFloat(fl Field, v float64) {
	if fl.Width != 64 {
		panic("microcode: SetFloat on non-64-bit field " + fl.Name)
	}
	w.Set(fl, math.Float64bits(v))
}

// GetFloat extracts a float64 bit pattern (64-bit fields only).
func (w Word) GetFloat(fl Field) float64 {
	if fl.Width != 64 {
		panic("microcode: GetFloat on non-64-bit field " + fl.Name)
	}
	return math.Float64frombits(w.Get(fl))
}

package schedule

import (
	"sync"

	"pruner/internal/ir"
)

// MemLevel identifies the memory hierarchy levels of the paper: L0
// registers, L1 shared memory, L2 global memory.
type MemLevel int

const (
	L0 MemLevel = iota
	L1
	L2
)

func (l MemLevel) String() string {
	switch l {
	case L0:
		return "L0"
	case L1:
		return "L1"
	default:
		return "L2"
	}
}

// StmtKind classifies the data-movement blocks of the multi-tiling
// pattern (paper Figure 4: shared loads, the compute block, the fused
// epilogue, the write-back).
type StmtKind int

const (
	// StmtInit zero-initialises the accumulator (C.local = 0).
	StmtInit StmtKind = iota
	// StmtLoadShared cooperatively stages an operand L2 -> L1.
	StmtLoadShared
	// StmtLoadGlobal streams an operand L2 -> L0 directly (flat sketches).
	StmtLoadGlobal
	// StmtCompute performs the MAC block L1 -> L0 (or L2 -> L0 when flat).
	StmtCompute
	// StmtEpilogue applies fused elementwise ops in registers.
	StmtEpilogue
	// StmtStore writes the result L0 -> L2.
	StmtStore
)

var stmtKindNames = [...]string{
	StmtInit:       "init",
	StmtLoadShared: "load_shared",
	StmtLoadGlobal: "load_global",
	StmtCompute:    "compute",
	StmtEpilogue:   "epilogue",
	StmtStore:      "store",
}

func (k StmtKind) String() string {
	if int(k) < len(stmtKindNames) {
		return stmtKindNames[k]
	}
	return "stmt?"
}

// Statement is one data-movement block of the lowered program. Quantities
// are totals across the whole kernel execution unless a field says
// otherwise.
type Statement struct {
	Kind StmtKind
	// Operand is the buffer the statement moves or allocates: an index into
	// Task.Inputs, or OutputOperand. BufferName renders it for display.
	Operand int
	From    MemLevel
	To      MemLevel

	// Flops attributed to this statement (compute/epilogue only).
	Flops float64
	// MoveWords moved between From and To across the kernel.
	MoveWords float64
	// AllocWords allocated at To: per thread for L0, per block for L1.
	AllocWords float64
	// Reuse is how many times each staged element is consumed.
	Reuse float64
	// ContigRun is the contiguous run length (elements) of the From-side
	// access, driving coalescing / transaction efficiency.
	ContigRun float64
	// StrideElems is the distance between consecutive runs.
	StrideElems float64
	// Threads cooperating in this statement.
	Threads int
	// Trips is how many times the statement region executes per block.
	Trips float64
	// TensorCore marks wmma compute statements.
	TensorCore bool
}

// OutputOperand is Statement.Operand for the task's output buffer.
const OutputOperand = -1

// inlineStmts is the statement count of the multi-tiling pattern for the
// two-input operators every workload is built from: init, one shared load
// per input, compute, epilogue, store.
const inlineStmts = 2 + 4

// Lowered is the analyzable form of (task, schedule): the statement list
// plus the schedule-level scalars the hardware-aware symbols are built
// from.
type Lowered struct {
	Task  *ir.Task
	Sched *Schedule

	Blocks          int64   // S6 (L2ParaInfo)
	ThreadsPerBlock int     // S4 (L1ParaInfo)
	VThreads        int     //
	RegsPerThread   float64 // S1 (L0MemAlloc), words
	ThreadCompute   float64 // S2 (L0CompCount), MACs per thread
	SharedPerBlock  float64 // S3 (L1MemAlloc), words
	GlobalWords     float64 // S5 (L2MemFootprint), words moved at L2
	TotalFlops      float64 // S8 (L2CompCount)

	Stmts []Statement
	// inline is where Stmts lives, so a lowering is one allocation (stmtBuf
	// falls back to the heap for operators with more inputs).
	inline [inlineStmts]Statement

	// featOnce / feat cache derived per-program feature matrices (one slot
	// per family, indexed by the features package), so a memoized program
	// is featurized at most once per round even when draft scoring,
	// verification and training all touch it. Lowered must therefore not
	// be copied by value once shared.
	featOnce [NumFeatureSlots]sync.Once
	feat     [NumFeatureSlots][][]float64

	// memo is the memo whose chunks hold this lowering and its feature
	// rows (nil for a heap lowering).
	memo *Memo
}

// NumFeatureSlots is the number of cached feature families on a Lowered
// program (statement, dataflow and primitive features).
const NumFeatureSlots = 3

// FeatureRows returns the cached feature matrix for the given slot,
// computing it with compute on first use. Concurrent callers are safe:
// the winning computation is shared and compute runs at most once per
// slot. compute must be a pure function of the lowered program.
func (lw *Lowered) FeatureRows(slot int, compute func(*Lowered) [][]float64) [][]float64 {
	lw.featOnce[slot].Do(func() { lw.feat[slot] = compute(lw) }) //pruner:allow hotalloc — one closure per (lowered, slot) miss; round-memoed Lowereds make steady-state calls cache hits that never reach Do's slow path
	return lw.feat[slot]
}

// Rows returns n zeroed rows of width w in one slab: row i is
// buf[i*w:(i+1)*w], so rows[0][:n*w] is the whole matrix, row-major.
// Each row's capacity therefore runs to the end of the slab: a row must
// never be appended to, which would overwrite the rows after it. The
// slab and its row headers come from the owning memo's chunks, valid
// until the memo's Release, or from the heap for a lowering of plain
// Lower or a slab larger than a chunk.
func (lw *Lowered) Rows(n, w int) [][]float64 {
	var buf []float64
	var rows [][]float64
	if lw.memo != nil {
		buf, rows = lw.memo.slab(n, w)
	}
	if buf == nil {
		buf, rows = make([]float64, n*w), make([][]float64, n)
	} else {
		clear(buf)
	}
	for i := range rows {
		rows[i] = buf[i*w : (i+1)*w]
	}
	return rows
}

// stmtBuf returns storage for n statements: the inline array when they
// fit, one exact allocation otherwise.
func (lw *Lowered) stmtBuf(n int) []Statement {
	if n <= len(lw.inline) {
		return lw.inline[:n]
	}
	return make([]Statement, n)
}

// BufferName is the statement's buffer as Figure 4 writes it: the operand
// name scoped by where the statement puts it ("A.shared", "C.local", "C").
// Nothing on the tuning path needs it; it is built on demand for display.
func (lw *Lowered) BufferName(st *Statement) string {
	name := lw.Task.Output.Name
	if st.Operand != OutputOperand {
		name = lw.Task.Inputs[st.Operand].Name
	}
	switch st.Kind {
	case StmtLoadShared:
		return name + scopeShared
	case StmtInit, StmtEpilogue:
		return name + scopeLocal
	case StmtCompute:
		if st.From == L1 { // the tiled sketch accumulates in registers
			return name + scopeLocal
		}
	case StmtLoadGlobal, StmtStore: // global buffers go by the bare name
	}
	return name
}

const (
	scopeShared = ".shared"
	scopeLocal  = ".local"
)

// Lower materialises the statements of (task, schedule). It never fails:
// resource overflows are left for the analyzer's penalties and the
// simulator's launch check to punish, mirroring how Ansor lets the
// hardware reject invalid programs.
//
//pruner:hotpath
func Lower(t *ir.Task, s *Schedule) *Lowered {
	lw := &Lowered{}
	lw.lower(t, s)
	return lw
}

// lower fills lw, a zeroed Lowered, with the lowering of (t, s).
func (lw *Lowered) lower(t *ir.Task, s *Schedule) {
	lw.Task, lw.Sched = t, s
	lw.Blocks = s.Blocks()
	lw.ThreadsPerBlock = s.ThreadsPerBlock()
	lw.VThreads = s.VThreads()
	if t.Tiled() && s.UseShared {
		lw.lowerTiled()
	} else {
		lw.lowerFlat()
	}
}

// macsPerBlockTrip is the multiply-adds executed by one block during one
// reduction-outer trip.
func (lw *Lowered) macsPerBlockTrip() float64 {
	s := lw.Sched
	m := 1.0
	for d := range s.SpatialTiles {
		tile := s.SpatialTiles[d]
		m *= float64(tile[LvlThread] * tile[LvlVThread] * tile[LvlInner0] * tile[LvlInner1])
	}
	for d := range s.ReduceTiles {
		m *= float64(s.ReduceTiles[d][RLvlMid] * s.ReduceTiles[d][RLvlInner])
	}
	return m
}

// reduceOuterTrips is the product of reduction Outer levels: how often the
// shared-memory stage refills.
func (lw *Lowered) reduceOuterTrips() float64 {
	trips := 1.0
	for d := range lw.Sched.ReduceTiles {
		trips *= float64(lw.Sched.ReduceTiles[d][RLvlOuter])
	}
	return trips
}

// operandSharedTile is the shared-memory tile (words) one block stages for
// the operand during one reduction-outer trip.
func operandSharedTile(s *Schedule, o *ir.Operand) float64 {
	tile := 1.0
	for _, d := range o.SpatialIdx {
		sp := s.SpatialTiles[d]
		tile *= float64(sp[LvlThread] * sp[LvlVThread] * sp[LvlInner0] * sp[LvlInner1])
	}
	for _, r := range o.ReduceIdx {
		rt := s.ReduceTiles[r]
		tile *= float64(rt[RLvlMid] * rt[RLvlInner])
	}
	return tile * o.FootprintScale
}

// sharedPerBlock is S3 (L1MemAlloc) of a tiled schedule: the words of
// shared memory one block stages, summed over the input operands in
// declaration order. It is the one definition of that sum — lowerTiled
// records it as Lowered.SharedPerBlock and the generator's budget check
// reads it without lowering — because the two must agree to the bit: an
// ulp of difference would flip Fits verdicts and with them every RNG
// stream downstream.
//
//pruner:hotpath
func sharedPerBlock(t *ir.Task, s *Schedule) float64 {
	var shared float64
	for i := range t.Inputs {
		shared += operandSharedTile(s, &t.Inputs[i])
	}
	return shared
}

// operandRegTile is the per-thread register fragment of an input operand:
// the paper's L0_A = Prod([I2..I4]) — vthread and inner levels along the
// operand's spatial axes only.
func (lw *Lowered) operandRegTile(o *ir.Operand) float64 {
	tile := 1.0
	for _, d := range o.SpatialIdx {
		tile *= float64(lw.Sched.RegTile(d))
	}
	return tile
}

// operandContigRun is the contiguous run length (elements) of the
// operand's global access within one staged tile.
func (lw *Lowered) operandContigRun(o *ir.Operand) float64 {
	s := lw.Sched
	if o.ContigReduce >= 0 && o.ContigReduce < len(s.ReduceTiles) {
		return float64(s.ReduceInner(o.ContigReduce))
	}
	if o.ContigSpatial >= 0 && o.ContigSpatial < len(s.SpatialTiles) {
		if !o.Touches(o.ContigSpatial) {
			return 1
		}
		sp := s.SpatialTiles[o.ContigSpatial]
		return float64(sp[LvlThread] * sp[LvlVThread] * sp[LvlInner0] * sp[LvlInner1])
	}
	return 1
}

// operandStride is the element distance between consecutive contiguous
// runs: the full extent of the innermost storage dimension.
func (lw *Lowered) operandStride(t *ir.Task, o *ir.Operand) float64 {
	if o.ContigReduce >= 0 && o.ContigReduce < len(t.Reduce) {
		return float64(t.Reduce[o.ContigReduce])
	}
	if o.ContigSpatial >= 0 && o.ContigSpatial < len(t.Spatial) {
		return float64(t.Spatial[o.ContigSpatial])
	}
	return 1
}

func (lw *Lowered) lowerTiled() {
	t, s := lw.Task, lw.Sched
	stmts := lw.stmtBuf(len(t.Inputs) + 4)[:0]
	blocks := float64(lw.Blocks)
	threads := lw.ThreadsPerBlock
	trips := lw.reduceOuterTrips()
	macsPerTrip := lw.macsPerBlockTrip()
	outRegTile := 1.0
	for d := range s.SpatialTiles {
		outRegTile *= float64(s.RegTile(d))
	}

	// Accumulator init.
	stmts = append(stmts, Statement{
		Kind: StmtInit, Operand: OutputOperand,
		From: L0, To: L0,
		AllocWords: outRegTile,
		Threads:    threads, Trips: 1,
	})
	regs := outRegTile

	// Shared loads, one per input operand, in declaration order.
	shared := sharedPerBlock(t, s)
	var global float64
	for i := range t.Inputs {
		o := &t.Inputs[i]
		tile := operandSharedTile(s, o)
		move := blocks * tile * trips
		global += move
		reuse := macsPerTrip / maxF(tile, 1)
		stmts = append(stmts, Statement{
			Kind: StmtLoadShared, Operand: i,
			From: L2, To: L1,
			MoveWords:   move,
			AllocWords:  tile,
			Reuse:       reuse,
			ContigRun:   lw.operandContigRun(o),
			StrideElems: lw.operandStride(t, o),
			Threads:     threads,
			Trips:       trips,
		})
		regs += lw.operandRegTile(o)
	}

	// Compute block.
	threadMacs := outRegTile * float64(t.ReducePoints())
	computeFlops := float64(t.OutputPoints()) * float64(t.ReducePoints()) * t.FlopsPerPoint
	stmts = append(stmts, Statement{
		Kind: StmtCompute, Operand: OutputOperand,
		From: L1, To: L0,
		Flops:      computeFlops,
		MoveWords:  computeFlops / maxF(t.FlopsPerPoint, 1), // shared reads
		AllocWords: regs,
		Reuse:      maxF(macsPerTrip/maxF(shared, 1), 1),
		ContigRun:  float64(s.InnerTile(len(s.SpatialTiles) - 1)),
		Threads:    threads,
		Trips:      trips,
		TensorCore: s.TensorCore,
	})

	// Fused epilogue.
	if t.FusedElemwise > 0 {
		stmts = append(stmts, Statement{
			Kind: StmtEpilogue, Operand: OutputOperand,
			From: L0, To: L0,
			Flops:      float64(t.OutputPoints()) * float64(t.FusedElemwise),
			AllocWords: outRegTile,
			Threads:    threads,
			Trips:      1,
		})
	}

	// Write-back.
	outWords := float64(t.OutputPoints())
	global += outWords
	stmts = append(stmts, Statement{
		Kind: StmtStore, Operand: OutputOperand,
		From: L0, To: L2,
		MoveWords:   outWords,
		ContigRun:   lw.operandContigRun(&t.Output),
		StrideElems: lw.operandStride(t, &t.Output),
		Threads:     threads,
		Trips:       1,
	})

	lw.Stmts = stmts
	lw.RegsPerThread = regs
	lw.ThreadCompute = threadMacs
	lw.SharedPerBlock = shared
	lw.GlobalWords = global
	lw.TotalFlops = t.FLOPs()
}

// lowerFlat lowers elementwise / reduction tasks (and tiled tasks with the
// shared stage disabled): operands stream straight from global memory.
func (lw *Lowered) lowerFlat() {
	t := lw.Task
	stmts := lw.stmtBuf(len(t.Inputs) + 2)[:0]
	threads := lw.ThreadsPerBlock
	serial := 1.0
	for d := range lw.Sched.SpatialTiles {
		serial *= float64(lw.Sched.RegTile(d))
	}
	reducePts := float64(t.ReducePoints())

	var global float64
	for i := range t.Inputs {
		o := &t.Inputs[i]
		elems := 1.0
		for _, d := range o.SpatialIdx {
			elems *= float64(t.Spatial[d])
		}
		for _, r := range o.ReduceIdx {
			elems *= float64(t.Reduce[r])
		}
		global += elems
		stmts = append(stmts, Statement{
			Kind: StmtLoadGlobal, Operand: i,
			From: L2, To: L0,
			MoveWords:   elems,
			AllocWords:  serial,
			Reuse:       1,
			ContigRun:   lw.operandContigRun(o),
			StrideElems: lw.operandStride(t, o),
			Threads:     threads,
			Trips:       reducePts,
		})
	}

	flops := t.FLOPs()
	if flops > 0 {
		stmts = append(stmts, Statement{
			Kind: StmtCompute, Operand: OutputOperand,
			From: L0, To: L0,
			Flops:      flops,
			AllocWords: serial,
			Threads:    threads,
			Trips:      reducePts,
		})
	}

	outWords := float64(t.OutputPoints())
	global += outWords
	stmts = append(stmts, Statement{
		Kind: StmtStore, Operand: OutputOperand,
		From: L0, To: L2,
		MoveWords:   outWords,
		ContigRun:   lw.operandContigRun(&t.Output),
		StrideElems: lw.operandStride(t, &t.Output),
		Threads:     threads,
		Trips:       1,
	})

	lw.Stmts = stmts
	lw.RegsPerThread = serial + 2
	lw.ThreadCompute = serial * reducePts
	lw.SharedPerBlock = 0
	lw.GlobalWords = global
	lw.TotalFlops = flops
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Package features encodes lowered tensor programs into the three feature
// families the paper's cost models consume:
//
//   - Statement features: per-innermost-statement vectors in the style of
//     Ansor/TenSet, whose 164-dim rows a model reads (StmtDim); only the
//     leading StmtSignal dims can be nonzero, and only those are stored.
//   - Temporal dataflow features: the PaCM multi-tiling pattern — one
//     23-dim embedding per data-block movement, a fixed-length sequence
//     (Figure 4). Pure elementwise subgraphs are zero-padded, as in the
//     paper.
//   - Primitive features: TLP-style one-hot encodings of the schedule
//     primitive sequence, where only split factors vary between programs
//     of a task. Tokens are stored PrimSignal wide of the model's PrimDim.
//
// Each family's matrix is one zeroed slab plus one row-header slice,
// both from Lowered.Rows: carved from the round memo's chunks for a
// memoized lowering (valid until the memo's Release), from the heap for
// a plain one. A row narrower than its model width stands for the row
// zero-extended to it: the models' rows op (nn's affineRows) contracts
// only the stored columns against the weight's leading rows, which is
// bitwise the full-width product.
package features

import (
	"math"

	"pruner/internal/schedule"
)

// Dimensions of the three feature families.
const (
	// StmtDim matches Ansor/TenSet's 164-dim per-statement features.
	StmtDim = 164
	// DataflowDim is the paper's 23-dim data-block embedding.
	DataflowDim = 23
	// DataflowSeq is the fixed sequence length (Figure 4: Dim(10,23)).
	DataflowSeq = 10
	// PrimDim is the per-token width of the TLP primitive encoding.
	PrimDim = 64
	// PrimSeq is the primitive sequence length.
	PrimSeq = 24

	// StmtSignal is the stored width of a statement row: 25 statement
	// slots, then the schedule context. Columns StmtSignal..StmtDim-1 are
	// zero in every row and are not stored.
	StmtSignal = 25 + ctxLen
	// PrimSignal is the stored width of a primitive token: 16 one-hot
	// slots, then one factor per spatial tile level (reduction splits use
	// the first NumReduceLevels of them).
	PrimSignal = 16 + schedule.NumSpatialLevels
)

// ctxLen is the number of schedule-context scalars (contextFeatures).
const ctxLen = 25

// Feature-cache slots on schedule.Lowered, one per family. The public
// extractors route through Lowered.FeatureRows, so a program shared via a
// round's lowering memo is featurized at most once per family no matter
// how many pipeline stages touch it. Returned matrices are shared:
// callers must treat them as read-only.
const (
	slotStatement = iota
	slotDataflow
	slotPrimitives
)

// lgTableLen bounds the integer arguments lg reads from lgTable.
const lgTableLen = 4096

// lgTable holds math.Log2(1+n) for 0 < n < lgTableLen, filled at init by
// the very call lg makes for any other argument, so a table read has the
// bits of the direct call on every host.
var lgTable = func() (t [lgTableLen]float64) {
	for n := 1; n < lgTableLen; n++ {
		t[n] = math.Log2(1 + float64(n))
	}
	return t
}()

// lg is a sign-safe log2(1+x) used for all count-valued features. Most
// arguments are counts — tile sizes, threads, trips — so an integer in
// (0, lgTableLen) is read from lgTable; anything else (a fraction, a
// large count, ±Inf, NaN) takes math.Log2.
func lg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < lgTableLen {
		if n := int(x); float64(n) == x {
			return lgTable[n]
		}
	}
	return math.Log2(1 + x)
}

// Statement returns one StmtSignal-wide row per statement of the lowered
// program: the leading StmtSignal dims of the Ansor-compatible StmtDim,
// whose tail is always zero. The result is cached on lw and shared
// between callers — read-only.
func Statement(lw *schedule.Lowered) [][]float64 {
	return lw.FeatureRows(slotStatement, statementRows)
}

func statementRows(lw *schedule.Lowered) [][]float64 {
	rows := lw.Rows(len(lw.Stmts), StmtSignal)
	ctx := contextFeatures(lw)
	for i := range lw.Stmts {
		st := &lw.Stmts[i]
		row := rows[i]
		// Kind one-hot (6 slots).
		row[int(st.Kind)] = 1
		// Level one-hots.
		row[6+int(st.From)] = 1
		row[9+int(st.To)] = 1
		j := 12
		put := func(v float64) { row[j] = v; j++ }
		put(lg(st.Flops))
		put(lg(st.MoveWords))
		put(lg(st.AllocWords))
		put(lg(st.Reuse))
		put(lg(st.ContigRun))
		put(lg(st.StrideElems))
		put(lg(float64(st.Threads)))
		put(lg(st.Trips))
		put(boolF(st.TensorCore))
		// Derived intensities.
		put(lg(st.Flops / math.Max(st.MoveWords, 1)))
		put(lg(st.MoveWords / math.Max(float64(st.Threads), 1)))
		put(lg(st.Flops / math.Max(float64(st.Threads), 1)))
		// Transaction-efficiency proxy of the From-side access.
		put(quantEff(st.ContigRun, 32))
		// Schedule context (shared across statements).
		copy(row[j:], ctx[:])
	}
	return rows
}

// contextFeatures are schedule-level scalars appended to every statement
// row and every dataflow row.
func contextFeatures(lw *schedule.Lowered) [ctxLen]float64 {
	s := lw.Sched
	var ctx [ctxLen]float64
	j := 0
	put := func(v float64) { ctx[j] = v; j++ }
	put(lg(float64(lw.Blocks)))
	put(lg(float64(lw.ThreadsPerBlock)))
	put(lg(float64(lw.VThreads)))
	put(lg(lw.RegsPerThread))
	put(lg(lw.SharedPerBlock))
	put(lg(lw.ThreadCompute))
	put(lg(lw.GlobalWords))
	put(lg(lw.TotalFlops))
	put(float64(s.VectorLen))
	put(lg(float64(s.UnrollStep)))
	put(boolF(s.UseShared))
	put(boolF(s.TensorCore))
	put(float64(lw.ThreadsPerBlock%32) / 32)
	// Per-axis inner tiles (up to 4 spatial, 2 reduce axes), two slots
	// each, left zero where the task has fewer axes.
	for d := range 4 {
		if d < len(s.SpatialTiles) {
			put(lg(float64(s.RegTile(d))))
			put(lg(float64(s.SpatialTiles[d][schedule.LvlThread])))
		} else {
			j += 2
		}
	}
	for d := range 2 {
		if d < len(s.ReduceTiles) {
			put(lg(float64(s.ReduceInner(d))))
			put(lg(float64(s.ReduceTiles[d][schedule.RLvlOuter])))
		} else {
			j += 2
		}
	}
	return ctx
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// quantEff is x / (ceil(x/unit)*unit) in [0,1]: how efficiently a run of
// length x fills unit-sized transactions.
func quantEff(x, unit float64) float64 {
	if x <= 0 {
		return 0
	}
	return x / (math.Ceil(x/unit) * unit)
}

// Dataflow returns the PaCM temporal dataflow feature matrix: exactly
// DataflowSeq rows of DataflowDim values. Rows beyond the program's data
// movements — and all rows of non-tiled programs — are zero (the paper's
// zero-padding for elementwise operators). The result is cached on lw and
// shared between callers — read-only. A hot-path root of its own: the
// batched engine hands it to its sequence batcher as a value, which the
// lint call graph does not follow.
//
//pruner:hotpath
func Dataflow(lw *schedule.Lowered) [][]float64 {
	return lw.FeatureRows(slotDataflow, dataflowRows)
}

func dataflowRows(lw *schedule.Lowered) [][]float64 {
	out := lw.Rows(DataflowSeq, DataflowDim)
	if !lw.Task.Tiled() || !lw.Sched.UseShared {
		return out
	}
	ctx := contextFeatures(lw)
	row := 0
	for i := range lw.Stmts {
		if row >= DataflowSeq {
			break
		}
		st := &lw.Stmts[i]
		r := out[row]
		// [0]: compute density of the block.
		r[0] = lg(st.Flops / math.Max(st.MoveWords, 1))
		// [1..4]: movement-kind one-hot.
		switch st.Kind {
		case schedule.StmtLoadShared, schedule.StmtLoadGlobal:
			r[1] = 1
		case schedule.StmtCompute:
			r[2] = 1
		case schedule.StmtStore:
			r[3] = 1
		default:
			r[4] = 1
		}
		// [5..6]: flow direction.
		r[5] = float64(st.From) / 2
		r[6] = float64(st.To) / 2
		// [7..16]: memory-access behaviour.
		r[7] = lg(st.MoveWords)
		r[8] = lg(st.AllocWords)
		r[9] = lg(st.Reuse)
		r[10] = lg(st.ContigRun)
		r[11] = lg(st.StrideElems)
		r[12] = quantEff(st.ContigRun, 32)
		r[13] = lg(float64(st.Threads))
		r[14] = lg(st.Trips)
		r[15] = float64(lw.Sched.VectorLen)
		r[16] = lg(float64(lw.Sched.UnrollStep))
		// [17..21]: schedule context slice.
		copy(r[17:22], ctx[:5])
		// [22]: alloc-size tail slot (paper: "alloc size:1") + TC flag.
		r[22] = lg(st.AllocWords) + boolF(st.TensorCore)
		row++
	}
	return out
}

// FlatDataflow returns the dataflow matrix as one row-major vector of
// DataflowSeq*DataflowDim values: the slab behind Dataflow's rows, not a
// copy, so it is cached and shared the same way — read-only.
func FlatDataflow(lw *schedule.Lowered) []float64 {
	return Dataflow(lw)[0][:DataflowSeq*DataflowDim]
}

// Primitives returns the TLP-style schedule-primitive sequence: PrimSeq
// tokens of PrimSignal values, the stored part of PrimDim. Token layout:
// [0..15] primitive-type and axis one-hots (structural, near-constant
// across schedules of one task), [16..] factor values. The sparsity of
// varying entries reproduces TLP's low feature diversity. The result is
// cached on lw and shared between callers — read-only. A hot-path root,
// like Dataflow.
//
//pruner:hotpath
func Primitives(lw *schedule.Lowered) [][]float64 {
	return lw.FeatureRows(slotPrimitives, primitiveRows)
}

func primitiveRows(lw *schedule.Lowered) [][]float64 {
	s := lw.Sched
	out := lw.Rows(PrimSeq, PrimSignal)
	tok := 0
	emit := func(fill func(r []float64)) {
		if tok < PrimSeq {
			fill(out[tok])
			tok++
		}
	}
	for d := range s.SpatialTiles {
		d := d
		emit(func(r []float64) {
			r[0] = 1 // split primitive
			r[2+minI(d, 5)] = 1
			for l := 0; l < schedule.NumSpatialLevels; l++ {
				r[16+l] = lg(float64(s.SpatialTiles[d][l]))
			}
		})
	}
	for d := range s.ReduceTiles {
		d := d
		emit(func(r []float64) {
			r[0] = 1
			r[1] = 1 // reduction split
			r[2+minI(d, 5)] = 1
			for l := 0; l < schedule.NumReduceLevels; l++ {
				r[16+l] = lg(float64(s.ReduceTiles[d][l]))
			}
		})
	}
	emit(func(r []float64) { r[8] = 1 }) // reorder
	if s.UseShared {
		emit(func(r []float64) { r[9] = 1 })  // cache_read shared A
		emit(func(r []float64) { r[10] = 1 }) // cache_read shared B
		emit(func(r []float64) { r[11] = 1 }) // compute_at
	}
	emit(func(r []float64) { // unroll annotation
		r[12] = 1
		r[16] = lg(float64(s.UnrollStep))
	})
	emit(func(r []float64) { // vectorize annotation
		r[13] = 1
		r[16] = float64(s.VectorLen)
	})
	if s.TensorCore {
		emit(func(r []float64) { r[14] = 1 })
	}
	return out
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package features

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pruner/internal/ir"
	"pruner/internal/schedule"
	"pruner/internal/workloads"
)

func lowered(t *ir.Task, seed int64) *schedule.Lowered {
	g := schedule.NewGenerator(t)
	return schedule.Lower(t, g.Random(rand.New(rand.NewSource(seed))))
}

// TestStatementDimensions: every family stores rows of exactly its stored
// width — statements StmtSignal, dataflow DataflowDim, primitive tokens
// PrimSignal — each no wider than the model input it feeds, with finite
// values throughout.
func TestStatementDimensions(t *testing.T) {
	if StmtSignal != 50 || PrimSignal != 21 || StmtSignal > StmtDim || PrimSignal > PrimDim {
		t.Fatalf("stored widths %d/%d of model widths %d/%d", StmtSignal, PrimSignal, StmtDim, PrimDim)
	}
	task := ir.NewMatMul(256, 256, 256, ir.FP32, 1)
	lw := lowered(task, 1)
	if n := len(Statement(lw)); n != len(lw.Stmts) {
		t.Fatalf("%d rows for %d statements", n, len(lw.Stmts))
	}
	for _, fam := range []struct {
		name  string
		rows  [][]float64
		width int
	}{
		{"statement", Statement(lw), StmtSignal},
		{"dataflow", Dataflow(lw), DataflowDim},
		{"primitives", Primitives(lw), PrimSignal},
	} {
		for i, r := range fam.rows {
			if len(r) != fam.width {
				t.Fatalf("%s row %d has %d dims, want %d", fam.name, i, len(r), fam.width)
			}
			for j, v := range r {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s row %d dim %d is %g", fam.name, i, j, v)
				}
			}
		}
	}
}

func TestDataflowShapeAndPadding(t *testing.T) {
	task := ir.NewMatMul(256, 256, 256, ir.FP32, 1)
	df := Dataflow(lowered(task, 2))
	if len(df) != DataflowSeq {
		t.Fatalf("%d dataflow rows, want %d", len(df), DataflowSeq)
	}
	nonzero := 0
	for _, r := range df {
		if len(r) != DataflowDim {
			t.Fatalf("dataflow row width %d, want %d", len(r), DataflowDim)
		}
		for _, v := range r {
			if v != 0 {
				nonzero++
				break
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("tiled task should have non-zero dataflow rows")
	}
	if nonzero > DataflowSeq {
		t.Fatal("impossible")
	}
}

// TestElementwiseZeroPadding: the paper zero-pads elementwise operators'
// dataflow features.
func TestElementwiseZeroPadding(t *testing.T) {
	task := ir.NewElementwise(65536, 2, ir.FP32)
	df := Dataflow(lowered(task, 3))
	for i, r := range df {
		for j, v := range r {
			if v != 0 {
				t.Fatalf("elementwise dataflow[%d][%d] = %g, want 0", i, j, v)
			}
		}
	}
}

// TestPrimitivesLowDiversity reproduces the paper's observation that TLP
// features barely differ between schedules of one task: structural
// (one-hot) entries are identical, only split factors vary. The share is
// of all PrimSeq*PrimDim entries the model reads; the unstored tail of
// every token is zero in both programs, so it never differs.
func TestPrimitivesLowDiversity(t *testing.T) {
	task := ir.NewMatMul(512, 512, 512, ir.FP32, 1)
	g := schedule.NewGenerator(task)
	rng := rand.New(rand.NewSource(4))
	a := Primitives(schedule.Lower(task, g.Random(rng)))
	b := Primitives(schedule.Lower(task, g.Random(rng)))
	if len(a) != PrimSeq || len(b) != len(a) {
		t.Fatal("bad primitive dims")
	}
	differing := 0
	for i := range a {
		if len(a[i]) != PrimSignal || len(b[i]) != PrimSignal {
			t.Fatal("bad primitive dims")
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				differing++
			}
		}
	}
	frac := float64(differing) / float64(PrimSeq*PrimDim)
	if frac > 0.05 {
		t.Fatalf("%.2f%% of primitive features differ; the paper reports ~1.4%% for GEMM", frac*100)
	}
	if differing == 0 {
		t.Fatal("two random schedules should differ somewhere")
	}
}

func TestFeaturesDeterministic(t *testing.T) {
	task := ir.NewConv2D(ir.Conv2DShape{
		N: 1, H: 28, W: 28, CI: 128, CO: 128, KH: 3, KW: 3, Stride: 1, Pad: 1,
	}, ir.FP32, 1)
	lw := lowered(task, 5)
	a := FlatDataflow(lw)
	b := FlatDataflow(lw)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("dataflow features not deterministic")
		}
	}
}

// TestDataflowDistinguishesSchedules: different tilings must produce
// different dataflow features (the paper's "distinction between features"
// design goal).
func TestDataflowDistinguishesSchedules(t *testing.T) {
	task := ir.NewMatMul(512, 512, 512, ir.FP32, 0)
	g := schedule.NewGenerator(task)
	rng := rand.New(rand.NewSource(6))
	seen := map[string]bool{}
	distinct := 0
	for i := 0; i < 20; i++ {
		key := ""
		for _, v := range FlatDataflow(schedule.Lower(task, g.Random(rng))) {
			key += string(rune(int(v*7) % 93))
		}
		if !seen[key] {
			seen[key] = true
			distinct++
		}
	}
	if distinct < 18 {
		t.Fatalf("only %d/20 schedules have distinct dataflow features", distinct)
	}
}

func TestLgSafety(t *testing.T) {
	if lg(-5) != 0 || lg(0) != 0 {
		t.Fatal("lg must clamp non-positive inputs to 0")
	}
	if lg(1) != 1 { // log2(2)
		t.Fatalf("lg(1) = %g", lg(1))
	}
}

// TestLgMatchesLog2 checks lg bit for bit against the direct call
// math.Log2(1+x): on every integer through the table's end and one past
// it, on a fraction and a large count, which skip the table, and on ±0, a
// subnormal and +Inf; negatives, −Inf included, clamp to +0 (where the
// direct call is NaN), and NaN stays NaN.
func TestLgMatchesLog2(t *testing.T) {
	xs := []float64{4095.5, 1e9, 0, math.Copysign(0, -1), 5e-324, math.Inf(1)}
	for n := 1; n <= lgTableLen; n++ {
		xs = append(xs, float64(n))
	}
	for _, x := range xs {
		if got, want := lg(x), math.Log2(1+x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("lg(%v) = %v (%#x), math.Log2(1+x) = %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -3, math.Inf(-1)} {
		if got := lg(x); math.Float64bits(got) != 0 {
			t.Errorf("lg(%v) = %v, want +0", x, got)
		}
	}
	if got := lg(math.NaN()); !math.IsNaN(got) {
		t.Errorf("lg(NaN) = %v, want NaN", got)
	}
}

func TestQuantEff(t *testing.T) {
	if quantEff(32, 32) != 1 {
		t.Fatal("full transaction should be 1")
	}
	if got := quantEff(16, 32); got != 0.5 {
		t.Fatalf("quantEff(16,32) = %g", got)
	}
	if quantEff(0, 32) != 0 {
		t.Fatal("empty run should be 0")
	}
}

// pinCases are the lowerings TestFeatureRowsPinned and TestAllocFeatures
// featurize: tiled GEMM with the shared-memory stage on and off, an FP16
// GEMM on TensorCores, a convolution, a reduction and a flat elementwise
// task, several random schedules each.
func pinCases(t *testing.T) []*schedule.Lowered {
	t.Helper()
	conv := ir.NewConv2D(ir.Conv2DShape{N: 1, H: 28, W: 28, CI: 128, CO: 128, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1)
	var out []*schedule.Lowered
	for ci, c := range []struct {
		task            *ir.Task
		tensorCore, off bool
	}{
		{task: ir.NewMatMul(256, 256, 256, ir.FP32, 1)},
		{task: ir.NewMatMul(256, 256, 256, ir.FP32, 1), off: true},
		{task: ir.NewMatMul(512, 512, 512, ir.FP16, 0), tensorCore: true},
		{task: conv},
		{task: ir.NewReduction(1024, 768, ir.FP32, 3)},
		{task: ir.NewElementwise(65536, 2, ir.FP32)},
	} {
		g := schedule.NewGenerator(c.task)
		g.TensorCore = c.tensorCore
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		for i := 0; i < 6; i++ {
			s := g.Random(rng)
			if c.tensorCore && !s.TensorCore {
				t.Fatalf("case %d: no TensorCore schedule drawn", ci)
			}
			if c.off {
				s = s.Clone()
				s.UseShared = false
			}
			out = append(out, schedule.Lower(c.task, s))
		}
	}
	return out
}

// TestFeatureRowsPinned pins every family's values, bit for bit, with each
// row zero-extended to the model input width it feeds (StmtDim,
// DataflowDim, PrimDim): an FNV-1a digest per family over pinCases. The
// stored widths may change; what a model sees may not.
func TestFeatureRowsPinned(t *testing.T) {
	lws := pinCases(t)
	for _, fam := range []struct {
		name  string
		rows  func(*schedule.Lowered) [][]float64
		width int
		want  string
	}{
		{"statement", Statement, StmtDim, "aa0ed563eda7515f"},
		{"dataflow", Dataflow, DataflowDim, "20fc254d2f635485"},
		{"primitives", Primitives, PrimDim, "145ba4d863649fbe"},
	} {
		h := fnv.New64a()
		var buf [8]byte
		for _, lw := range lws {
			rows := fam.rows(lw)
			binary.LittleEndian.PutUint64(buf[:], uint64(len(rows)))
			h.Write(buf[:])
			for _, r := range rows {
				if len(r) > fam.width {
					t.Fatalf("%s: row %d wide, model width %d", fam.name, len(r), fam.width)
				}
				for k := 0; k < fam.width; k++ {
					v := 0.0
					if k < len(r) {
						v = r[k]
					}
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != fam.want {
			t.Errorf("%s rows digest %s, want %s", fam.name, got, fam.want)
		}
	}
}

// TestAllocFeatures is the featurizer's allocation gate, beside
// schedule's TestAllocLower: computing a family's rows for a lowered
// program — the first touch, a Lowered caches the result — costs one
// slab and one row-header slice, on tiled and flat programs alike.
func TestAllocFeatures(t *testing.T) {
	lws := pinCases(t)
	for _, lw := range []*schedule.Lowered{lws[0], lws[len(lws)-1]} {
		for _, fam := range []struct {
			name string
			rows func(*schedule.Lowered) [][]float64
		}{
			{"statement", statementRows},
			{"dataflow", dataflowRows},
			{"primitives", primitiveRows},
		} {
			if avg := testing.AllocsPerRun(100, func() { fam.rows(lw) }); avg > 2 {
				t.Errorf("%s rows of %s: %v allocs per run, want <= 2", fam.name, lw.Task.Name, avg)
			}
		}
	}
}

// BenchmarkFeatureRows times each family's rows over fixed lowerings: 32
// random schedules of each of resnet50's two heaviest convolutions (the
// tasks of the benchmark's online workloads), one op featurizing all 64.
// The lowerings are plain Lower's, so each program's rows are one heap
// slab and one header slice, as TestAllocFeatures counts; rows/op is the
// rows made.
func BenchmarkFeatureRows(b *testing.B) {
	net, err := workloads.ByName("resnet50")
	if err != nil {
		b.Fatal(err)
	}
	var lws []*schedule.Lowered
	for i, task := range net.Representative(2) {
		g := schedule.NewGenerator(task)
		rng := rand.New(rand.NewSource(int64(300 + i)))
		for range 32 {
			lws = append(lws, schedule.Lower(task, g.Random(rng)))
		}
	}
	for _, fam := range []struct {
		name string
		rows func(*schedule.Lowered) [][]float64
	}{
		{"statement", statementRows},
		{"dataflow", dataflowRows},
		{"primitives", primitiveRows},
	} {
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				for _, lw := range lws {
					rows += len(fam.rows(lw))
				}
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}

package schedule

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/workloads"
)

// The draft loop's contract, measured: the sampler's budget check, a
// schedule's key, equality and ordering, and a memo hit never touch the
// heap, and a lowering is one object. These are the dynamic twins of the
// //pruner:hotpath roots on Fits, sharedPerBlock, Key, Memo.Lower and
// Lower (the static hotalloc gate); `make bench-smoke` runs every
// TestAlloc*.

func a100Generator(task *ir.Task) *Generator {
	g := NewGenerator(task)
	g.MaxThreads = device.A100.MaxThreads
	g.MaxSharedWords = device.A100.SharedPerBlock
	return g
}

func TestAllocFits(t *testing.T) {
	task, s := fig3()
	g := a100Generator(task)
	if avg := testing.AllocsPerRun(100, func() { g.Fits(s) }); avg != 0 {
		t.Errorf("Generator.Fits: %v allocs per run, want 0", avg)
	}
}

func TestAllocLower(t *testing.T) {
	task, s := fig3() // GEMM-ReLU: all six statements of the tiled pattern
	if avg := testing.AllocsPerRun(100, func() { Lower(task, s) }); avg > 1 {
		t.Errorf("Lower (tiled): %v allocs per run, want <= 1", avg)
	}
	flat := ir.NewElementwise(1<<16, 2, ir.FP32)
	fs := NewGenerator(flat).Random(rand.New(rand.NewSource(1)))
	if avg := testing.AllocsPerRun(100, func() { Lower(flat, fs) }); avg > 1 {
		t.Errorf("Lower (flat): %v allocs per run, want <= 1", avg)
	}
}

// allocRuns is the run count of the identity alloc gates. Each run takes
// fresh clones (AllocsPerRun adds one warm-up run): a fingerprint built
// by one call would be cached for the next and hide its allocation.
const allocRuns = 100

// freshClones returns allocRuns+1 clones of s, none fingerprinted.
func freshClones(s *Schedule) []*Schedule {
	out := make([]*Schedule, allocRuns+1)
	for i := range out {
		out[i] = s.Clone()
	}
	return out
}

// TestAllocScheduleKey: the draft's identity — hashing, equality and
// ordering — reads the structure in place and builds no fingerprint.
func TestAllocScheduleKey(t *testing.T) {
	_, s := fig3()
	other := s.Clone()
	other.SpatialTiles[0][LvlThread] = 16 // "8 " against "16 ": decided by digits
	firsts, twins, others := freshClones(s), freshClones(s), freshClones(other)
	for _, c := range []struct {
		name string
		run  func(i int)
	}{
		{"Key", func(i int) { firsts[i].Key() }},
		{"Same", func(i int) { firsts[i].Same(twins[i]) }},
		{"CompareFingerprints", func(i int) { CompareFingerprints(firsts[i], others[i]) }},
	} {
		i := 0
		if avg := testing.AllocsPerRun(allocRuns, func() { c.run(i); i++ }); avg != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, avg)
		}
	}
}

// TestAllocMemoHit: a lookup of a schedule the memo already lowered —
// the same *Schedule, as a round's stages hand each other — finds the
// cached program without touching the heap.
func TestAllocMemoHit(t *testing.T) {
	task, s := fig3()
	memo := NewMemo()
	lw := memo.Lower(task, s)
	hit := true
	lookup := func() { hit = hit && memo.Lower(task, s) == lw }
	if avg := testing.AllocsPerRun(allocRuns, lookup); avg != 0 {
		t.Errorf("Memo.Lower hit: %v allocs per run, want 0", avg)
	}
	if !hit {
		t.Fatal("a lowered schedule missed the memo")
	}
}

// TestSharedPerBlockMatchesLowerBitwise: the footprint Fits reads off the
// tiles is, to the bit, the SharedPerBlock a lowering records — over every
// task of four networks and an FP16 LLM, 500 seeded random and mutated
// schedules each. Fits gates every draw, so one ulp of disagreement would
// move verdicts and with them a session's whole RNG stream.
func TestSharedPerBlockMatchesLowerBitwise(t *testing.T) {
	var nets []*workloads.Network
	for _, name := range []string{"resnet50", "bert_tiny", "vit", "wide_resnet50"} {
		n, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	llm, err := workloads.LLM("llama", 4, 128, ir.FP16)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, llm)

	checked := 0
	for ni, n := range nets {
		for ti, task := range n.Tasks {
			g := NewGenerator(task) // no budgets: over-allocating schedules too
			rng := rand.New(rand.NewSource(int64(1000*ni + ti)))
			var s *Schedule
			for i := 0; i < 500; i++ {
				if i%2 == 0 {
					s = g.Random(rng)
				} else {
					s = g.Mutate(rng, s)
				}
				lw := Lower(task, s)
				if !task.Tiled() {
					if lw.SharedPerBlock != 0 {
						t.Fatalf("%s: flat lowering stages %g shared words", task.Name, lw.SharedPerBlock)
					}
					continue
				}
				got := sharedPerBlock(task, s)
				if math.Float64bits(got) != math.Float64bits(lw.SharedPerBlock) {
					t.Fatalf("%s %s: sharedPerBlock %v (%#x) != Lower's %v (%#x)", task.Name, s.Fingerprint(),
						got, math.Float64bits(got), lw.SharedPerBlock, math.Float64bits(lw.SharedPerBlock))
				}
				checked++
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d tiled schedules checked", checked)
	}
}

// TestTensorCoreDrawsAlignedOrUnflagged: a schedule that claims wmma is
// wmma-aligned, on every path out of Random. The clamp fallback used to
// return whatever the clamps left with the flag still set (the first
// task: 1 of these 3 000 draws), and a task whose M is below the fragment
// can never align (the second: all 3 000, each after 64 rejections).
func TestTensorCoreDrawsAlignedOrUnflagged(t *testing.T) {
	for _, task := range []*ir.Task{
		ir.NewMatMul(512, 4096, 768, ir.FP16, 1),
		ir.NewMatMul(1, 512, 512, ir.FP16, 1),
	} {
		g := a100Generator(task)
		g.TensorCore = true
		rng := rand.New(rand.NewSource(1))
		flagged := 0
		for i := 0; i < 3000; i++ {
			s := g.Random(rng)
			if err := s.Validate(task); err != nil {
				t.Fatalf("%s draw %d: %v", task.Name, i, err)
			}
			if !s.TensorCore {
				continue
			}
			flagged++
			if !g.tcAligned(s) {
				t.Fatalf("%s draw %d: TensorCore set on misaligned %s", task.Name, i, s.Fingerprint())
			}
		}
		if want := g.tcAlignable(); (flagged > 0) != want {
			t.Errorf("%s: %d wmma draws, alignable = %v", task.Name, flagged, want)
		}
	}
}

// TestBufferNames pins the on-demand display names to the strings
// statements used to carry.
func TestBufferNames(t *testing.T) {
	names := func(lw *Lowered) []string {
		var out []string
		for i := range lw.Stmts {
			out = append(out, lw.BufferName(&lw.Stmts[i]))
		}
		return out
	}
	task, s := fig3()
	got := names(Lower(task, s))
	if want := []string{"C.local", "A.shared", "B.shared", "C.local", "C.local", "C"}; !slices.Equal(got, want) {
		t.Fatalf("tiled: %v, want %v", got, want)
	}
	flat := ir.NewElementwise(1<<10, 2, ir.FP32)
	got = names(Lower(flat, NewGenerator(flat).Random(rand.New(rand.NewSource(1)))))
	if want := []string{"X", "Y", "Y"}; !slices.Equal(got, want) {
		t.Fatalf("flat: %v, want %v", got, want)
	}
}

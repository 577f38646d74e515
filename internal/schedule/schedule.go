// Package schedule defines the search space of the tuner: Ansor-style
// multi-level tiling schedules over ir.Task loop nests, their random
// sampling and genetic operators, and the lowering of (task, schedule)
// pairs into the buffer statements the analyzer, feature extractors and
// simulator consume.
//
// Tiling convention (matching the paper's Figure 3): every spatial axis is
// split into five levels [Grid, Thread, VThread, Inner0, Inner1] whose
// product equals the axis extent; every reduction axis into three levels
// [Outer, Mid, Inner]. Level 0 maps to blockIdx, level 1 to threadIdx,
// level 2 to virtual threads, levels 3-4 stay in registers. The reduction
// Outer level is the loop that re-fills shared memory.
package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"

	"pruner/internal/ir"
)

// Spatial tile level indices.
const (
	LvlGrid = iota
	LvlThread
	LvlVThread
	LvlInner0
	LvlInner1
	NumSpatialLevels
)

// Reduction tile level indices.
const (
	RLvlOuter = iota
	RLvlMid
	RLvlInner
	NumReduceLevels
)

// UnrollSteps are the auto-unroll annotation choices (0 disables).
var UnrollSteps = []int{0, 16, 64, 512, 1024}

// VectorLens are the vectorised-access annotation choices.
var VectorLens = []int{1, 2, 4}

// Schedule is one point in the search space for a task.
type Schedule struct {
	SpatialTiles [][NumSpatialLevels]int
	ReduceTiles  [][NumReduceLevels]int
	UnrollStep   int
	VectorLen    int
	// UseShared enables the cooperative shared-memory cache-read stage.
	// Sketch rules force it on for tiled tasks; it is part of the space so
	// ablations can disable it.
	UseShared bool
	// TensorCore requests wmma execution (FP16 tiled tasks only). Inner
	// spatial/reduction tiles must align to the device fragment size.
	TensorCore bool

	// fp caches Fingerprint. Schedules are immutable once the generator
	// returns them; the cache is atomic because measurement workers may
	// fingerprint concurrently. The draft never builds the string: it
	// deduplicates and orders through Key, Same and CompareFingerprints
	// (key.go), so fp is filled only for schedules that reach a record,
	// the store, the wire or the simulator.
	fp atomic.Pointer[string]
}

// Clone returns a deep copy. The fingerprint cache is deliberately not
// carried over, so the copy may be changed before it is first
// fingerprinted.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		UnrollStep: s.UnrollStep,
		VectorLen:  s.VectorLen,
		UseShared:  s.UseShared,
		TensorCore: s.TensorCore,
	}
	c.SpatialTiles = make([][NumSpatialLevels]int, len(s.SpatialTiles))
	copy(c.SpatialTiles, s.SpatialTiles)
	c.ReduceTiles = make([][NumReduceLevels]int, len(s.ReduceTiles))
	copy(c.ReduceTiles, s.ReduceTiles)
	return c
}

// Fingerprint is the schedule's canonical string identity: what records,
// the store and the wire carry, and what the simulator's jitter hash
// reads. In memory, Same and Key give the same identity without building
// it.
func (s *Schedule) Fingerprint() string {
	if p := s.fp.Load(); p != nil {
		return *p
	}
	// Built with strconv rather than fmt (an order of magnitude cheaper),
	// but byte-identical to the historical fmt-based format: the string
	// also feeds the simulator's deterministic micro-jitter hash, so its
	// exact bytes are part of the calibrated ground truth.
	nS := len(s.SpatialTiles)
	b := make([]byte, 0, 24*(nS+len(s.ReduceTiles))+32)
	for i := 0; i < nS+len(s.ReduceTiles); i++ {
		prefix, tile := byte('s'), []int(nil)
		if i < nS {
			tile = s.SpatialTiles[i][:]
		} else {
			prefix, tile = 'r', s.ReduceTiles[i-nS][:]
		}
		b = append(b, prefix, '[')
		for j, v := range tile {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	b = append(b, "|u"...)
	b = strconv.AppendInt(b, int64(s.UnrollStep), 10)
	b = append(b, "|v"...)
	b = strconv.AppendInt(b, int64(s.VectorLen), 10)
	b = append(b, "|sh"...)
	b = strconv.AppendBool(b, s.UseShared)
	b = append(b, "|tc"...)
	b = strconv.AppendBool(b, s.TensorCore)
	str := string(b)
	s.fp.Store(&str)
	return str
}

// ThreadsPerBlock is the product of thread-level tile extents.
func (s *Schedule) ThreadsPerBlock() int {
	t := 1
	for _, tile := range s.SpatialTiles {
		t *= tile[LvlThread]
	}
	return t
}

// Blocks is the grid size (product of grid-level tile extents).
func (s *Schedule) Blocks() int64 {
	b := int64(1)
	for _, tile := range s.SpatialTiles {
		b *= int64(tile[LvlGrid])
	}
	return b
}

// VThreads is the product of virtual-thread tile extents.
func (s *Schedule) VThreads() int {
	v := 1
	for _, tile := range s.SpatialTiles {
		v *= tile[LvlVThread]
	}
	return v
}

// Validate checks structural consistency against the task.
func (s *Schedule) Validate(t *ir.Task) error {
	if len(s.SpatialTiles) != len(t.Spatial) {
		return fmt.Errorf("schedule has %d spatial tiles, task %s has %d axes", len(s.SpatialTiles), t.Name, len(t.Spatial))
	}
	if len(s.ReduceTiles) != len(t.Reduce) {
		return fmt.Errorf("schedule has %d reduce tiles, task %s has %d axes", len(s.ReduceTiles), t.Name, len(t.Reduce))
	}
	for d, tile := range s.SpatialTiles {
		p := 1
		for l, f := range tile {
			if f <= 0 {
				return fmt.Errorf("spatial tile[%d][%d]=%d", d, l, f)
			}
			p *= f
		}
		if p != t.Spatial[d] {
			return fmt.Errorf("spatial tile %d: product %d != extent %d", d, p, t.Spatial[d])
		}
	}
	for d, tile := range s.ReduceTiles {
		p := 1
		for l, f := range tile {
			if f <= 0 {
				return fmt.Errorf("reduce tile[%d][%d]=%d", d, l, f)
			}
			p *= f
		}
		if p != t.Reduce[d] {
			return fmt.Errorf("reduce tile %d: product %d != extent %d", d, p, t.Reduce[d])
		}
	}
	if s.VectorLen <= 0 {
		return fmt.Errorf("vector length %d", s.VectorLen)
	}
	if s.TensorCore && !t.TensorCoreEligible() {
		return fmt.Errorf("tensorcore schedule on ineligible task %s", t.Name)
	}
	return nil
}

// RegTile is the per-thread output tile along axis d (vthread and inner
// levels).
func (s *Schedule) RegTile(d int) int {
	tile := s.SpatialTiles[d]
	return tile[LvlVThread] * tile[LvlInner0] * tile[LvlInner1]
}

// InnerTile is the innermost serial tile along axis d (levels 3-4 only).
func (s *Schedule) InnerTile(d int) int {
	tile := s.SpatialTiles[d]
	return tile[LvlInner0] * tile[LvlInner1]
}

// ReduceInner is the shared-memory-resident reduction extent along axis d
// (Mid * Inner).
func (s *Schedule) ReduceInner(d int) int {
	tile := s.ReduceTiles[d]
	return tile[RLvlMid] * tile[RLvlInner]
}

// ---------------------------------------------------------------------------
// Factorisation utilities.

// maxPrimeFactors bounds the prime factors (with multiplicity) of any int:
// 2^63 overflows, so there are at most 62. Callers on the generation path
// factor into a stack buffer of this size and never touch the heap.
const maxPrimeFactors = 64

// appendPrimeFactors appends the prime factorisation of n to dst,
// ascending and with multiplicity.
func appendPrimeFactors(dst []int, n int) []int {
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			dst = append(dst, p)
			n /= p
		}
	}
	if n > 1 {
		dst = append(dst, n)
	}
	return dst
}

// largestPrimeFactor is the last entry of n's factorisation (n > 1).
func largestPrimeFactor(n int) int {
	var buf [maxPrimeFactors]int
	fs := appendPrimeFactors(buf[:0], n)
	return fs[len(fs)-1]
}

// scatterFactors fills tile with factors whose product is the product of
// fs: each tile entry starts at 1 and each prime of fs, in order,
// multiplies a uniformly drawn entry (one draw per prime).
func scatterFactors(rng *rand.Rand, fs []int, tile []int) {
	for i := range tile {
		tile[i] = 1
	}
	for _, p := range fs {
		tile[rng.Intn(len(tile))] *= p
	}
}

// ---------------------------------------------------------------------------
// Generation.

// Generator samples and mutates schedules for one task. It embodies the
// sketch-generation rules: tiled tasks get the full multi-level structure
// with a shared-memory stage; elementwise tasks get a flat grid/thread
// split.
type Generator struct {
	Task *ir.Task
	// MaxThreads bounds threadIdx extents during sampling (rejection).
	MaxThreads int
	// MaxSharedWords bounds the shared-memory allocation (in 4-byte
	// words); 0 disables the check. Sampling rejects over-allocating
	// schedules, mirroring Ansor's validity filter on sampled programs.
	MaxSharedWords int
	// TensorCore makes the generator emit wmma-aligned schedules.
	TensorCore bool
	// WMMA is the fragment size for TensorCore alignment (16).
	WMMA int

	// memo, when set, is the memo the generator carves its results from
	// (WithMemo); nil puts them on the heap.
	memo *Memo
}

// NewGenerator returns a generator with default constraints.
func NewGenerator(t *ir.Task) *Generator {
	return &Generator{Task: t, MaxThreads: 1024, WMMA: 16}
}

// WithMemo returns a copy of g bound to m: the schedules it makes —
// Random's results and Mutate's and Crossover's new ones — are carved
// from m's chunks, not the heap, and live only until m's Release. A
// tuning round binds its generator to the round memo, since nearly every
// schedule the search makes dies with the round; whatever must outlive
// it is cloned to the heap. It draws the same schedules and RNG stream
// as g.
func (g *Generator) WithMemo(m *Memo) *Generator {
	b := *g
	b.memo = m
	return &b
}

// result returns a schedule of its own equal to c, a candidate in
// call-local scratch: carved from the generator's memo when it is bound
// to one, on the heap otherwise.
func (g *Generator) result(c *Schedule) *Schedule {
	if g.memo != nil {
		return g.memo.carve(c)
	}
	return c.Clone()
}

// Fits reports whether a schedule satisfies the generator's resource
// constraints (the sampler-side validity pre-filter). The sampler calls it
// on every draw, mutation and crossover, so it reads the shared footprint
// straight off the tiles instead of lowering the candidate.
//
//pruner:hotpath
func (g *Generator) Fits(s *Schedule) bool {
	tp := s.ThreadsPerBlock()
	if tp < 1 || tp > g.MaxThreads {
		return false
	}
	return g.sharedFits(s)
}

// sharedFits reports whether the schedule's shared-memory allocation is
// within MaxSharedWords (always, when the budget is off or nothing is
// staged).
func (g *Generator) sharedFits(s *Schedule) bool {
	if g.MaxSharedWords <= 0 || !g.Task.Tiled() || !s.UseShared {
		return true
	}
	words4 := sharedPerBlock(g.Task, s) * float64(g.Task.Precision.Bytes()) / 4
	// Ceil, not truncate: a fractional word still allocates a whole one,
	// so truncation admitted schedules just past the budget to
	// measurement — the exact class of invalid program the draft stage
	// exists to prune.
	return int(math.Ceil(words4)) <= g.MaxSharedWords
}

// draftAxes is how many spatial, and how many reduction, axes a task may
// have for the genetic operators to build their candidates in stack
// arrays; a task with more takes that scratch from the heap. Every task
// the workloads build has at most three and two.
const draftAxes = 6

// rowsOn returns n rows of buf, or n fresh rows when buf is too short.
func rowsOn[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n:n]
	}
	return make([]T, n)
}

// Random samples one valid schedule: it draws up to 64 candidates and
// returns the first that fits the budgets (and, when it asks for wmma,
// aligns to the fragment); when none does, it clamps the last draw that
// missed a budget (a 65th draw, when every miss was a misaligned wmma
// draw) into them.
//
// Only the result leaves the call: on the heap, or carved from the memo
// of a bound generator (WithMemo). Draws land in two call-local
// candidates — the one being drawn and the last one rejected, which the
// clamp fallback needs — whose tiles live in stack arrays, and each axis
// extent is factored once per call, so a call costs one schedule's
// objects however many draws it rejects (none, from a warmed memo). The
// draw sequence is the one a fresh schedule per draw made.
func (g *Generator) Random(rng *rand.Rand) *Schedule {
	const attempts = 64
	t := g.Task
	nS, nR := len(t.Spatial), len(t.Reduce)
	var spBuf [2 * draftAxes][NumSpatialLevels]int
	var rpBuf [2 * draftAxes][NumReduceLevels]int
	sp, rp := rowsOn(spBuf[:], 2*nS), rowsOn(rpBuf[:], 2*nR)
	// fs holds every axis's prime factors, axis i's ending at ends[i].
	var fsBuf [2 * maxPrimeFactors]int
	var endsBuf [2 * draftAxes]int
	fs, ends := fsBuf[:0], rowsOn(endsBuf[:], nS+nR)
	for i, e := range t.Spatial {
		fs = appendPrimeFactors(fs, e)
		ends[i] = len(fs)
	}
	for i, e := range t.Reduce {
		fs = appendPrimeFactors(fs, e)
		ends[nS+i] = len(fs)
	}
	tc := g.TensorCore && t.TensorCoreEligible() && g.tcAlignable()
	x := Schedule{SpatialTiles: sp[:nS], ReduceTiles: rp[:nR], UseShared: t.Tiled(), TensorCore: tc}
	y := Schedule{SpatialTiles: sp[nS:], ReduceTiles: rp[nR:], UseShared: t.Tiled(), TensorCore: tc}
	cur, other := &x, &y
	var rejected *Schedule
	for i := 0; i < attempts; i++ {
		g.drawInto(rng, cur, fs, ends)
		if g.Fits(cur) {
			if cur.TensorCore && !g.tcAligned(cur) {
				continue
			}
			return g.result(cur)
		}
		rejected = cur
		cur, other = other, cur
	}
	// Fall back to clamping: force thread and shared-memory budgets. The
	// clamps move factors without regard to the wmma fragment, so a
	// schedule they leave misaligned runs on the CUDA cores instead.
	if rejected == nil {
		g.drawInto(rng, cur, fs, ends)
		rejected = cur
	}
	g.clampThreads(rejected)
	g.clampShared(rejected)
	if rejected.TensorCore && !g.tcAligned(rejected) {
		rejected.TensorCore = false
	}
	return g.result(rejected)
}

// clampShared moves reduction factors from the shared-resident levels to
// the outer (refill) level, and spatial inner factors to the grid level,
// until the shared allocation fits the budget.
func (g *Generator) clampShared(s *Schedule) {
	for iter := 0; iter < 64 && !g.sharedFits(s); iter++ {
		// Prefer shrinking the shared-resident reduction extent.
		bestD, bestV := -1, 1
		for d := range s.ReduceTiles {
			if v := s.ReduceInner(d); v > bestV {
				bestV, bestD = v, d
			}
		}
		if bestD >= 0 && bestV > 1 {
			tile := &s.ReduceTiles[bestD]
			lvl := RLvlMid
			if tile[RLvlInner] > tile[RLvlMid] {
				lvl = RLvlInner
			}
			p := largestPrimeFactor(tile[lvl])
			tile[lvl] /= p
			tile[RLvlOuter] *= p
			continue
		}
		// Then shrink the block's spatial tile.
		bestD, bestV = -1, 1
		for d := range s.SpatialTiles {
			if v := s.RegTile(d); v > bestV {
				bestV, bestD = v, d
			}
		}
		if bestD < 0 {
			return
		}
		tile := &s.SpatialTiles[bestD]
		lvl := LvlVThread
		for _, l := range []int{LvlInner1, LvlInner0, LvlVThread} {
			if tile[l] > 1 {
				lvl = l
				break
			}
		}
		if tile[lvl] == 1 {
			return
		}
		p := largestPrimeFactor(tile[lvl])
		tile[lvl] /= p
		tile[LvlGrid] *= p
	}
}

// drawInto draws s's annotations and tiles — the unroll step, the vector
// length, then each axis's factors scattered over its levels — from fs,
// the task's prime factors with axis i's ending at ends[i]. s's tile
// counts and flags are the task's; drawInto sets everything else.
func (g *Generator) drawInto(rng *rand.Rand, s *Schedule, fs, ends []int) {
	s.UnrollStep = UnrollSteps[rng.Intn(len(UnrollSteps))]
	s.VectorLen = VectorLens[rng.Intn(len(VectorLens))]
	lo := 0
	for d := range s.SpatialTiles {
		scatterFactors(rng, fs[lo:ends[d]], s.SpatialTiles[d][:])
		lo = ends[d]
	}
	for d := range s.ReduceTiles {
		hi := ends[len(s.SpatialTiles)+d]
		scatterFactors(rng, fs[lo:hi], s.ReduceTiles[d][:])
		lo = hi
	}
	if !g.Task.Tiled() {
		// Flat sketch: no vthread, no shared stage; fold everything beyond
		// grid/thread into the serial inner levels.
		for d := range s.SpatialTiles {
			tile := &s.SpatialTiles[d]
			tile[LvlInner0] *= tile[LvlVThread]
			tile[LvlVThread] = 1
		}
	}
}

// tcAlignable reports whether any schedule of the task can satisfy
// tcAligned. The block tiles tcAligned tests divide the M, N and K
// extents, so a task with an extent that is no multiple of the fragment
// has no aligned schedule at all: the generator samples it for the CUDA
// cores rather than rejecting 64 draws each time to learn the same thing.
func (g *Generator) tcAlignable() bool {
	t := g.Task
	n := len(t.Spatial)
	if n < 2 || len(t.Reduce) == 0 {
		return false
	}
	w := g.WMMA
	return t.Spatial[n-2]%w == 0 && t.Spatial[n-1]%w == 0 && t.ReducePoints()%int64(w) == 0
}

// tcAligned reports whether the two innermost spatial axes' thread-local
// tiles and the reduction inner extent align to the wmma fragment.
func (g *Generator) tcAligned(s *Schedule) bool {
	n := len(s.SpatialTiles)
	if n < 2 || len(s.ReduceTiles) == 0 {
		return false
	}
	m := s.RegTile(n-2) * s.SpatialTiles[n-2][LvlThread]
	nn := s.RegTile(n-1) * s.SpatialTiles[n-1][LvlThread]
	k := s.ReduceInner(0)
	for _, t := range s.ReduceTiles[1:] {
		k *= t[RLvlMid] * t[RLvlInner]
	}
	w := g.WMMA
	return m%w == 0 && nn%w == 0 && k%w == 0
}

// clampThreads rebalances thread-level factors into the grid level until
// the block size is legal.
func (g *Generator) clampThreads(s *Schedule) {
	for s.ThreadsPerBlock() > g.MaxThreads {
		// Move the largest prime factor of the largest thread tile to grid.
		bestD, bestV := -1, 1
		for d := range s.SpatialTiles {
			if s.SpatialTiles[d][LvlThread] > bestV {
				bestV = s.SpatialTiles[d][LvlThread]
				bestD = d
			}
		}
		if bestD < 0 {
			return
		}
		p := largestPrimeFactor(bestV)
		s.SpatialTiles[bestD][LvlThread] /= p
		s.SpatialTiles[bestD][LvlGrid] *= p
	}
}

// InitPopulation samples n distinct schedules (best effort on
// distinctness).
func (g *Generator) InitPopulation(rng *rand.Rand, n int) []*Schedule {
	seen := NewSet(n)
	out := make([]*Schedule, 0, n)
	for tries := 0; len(out) < n && tries < n*8; tries++ {
		s := g.Random(rng)
		if _, added := seen.Add(s); added {
			out = append(out, s)
		}
	}
	for len(out) < n { // tiny spaces: allow duplicates rather than starve
		out = append(out, g.Random(rng))
	}
	return out
}

// Mutate returns a mutated copy of s, or s itself when the mutation
// leaves it unchanged. Mutations move a prime factor between two levels
// of one axis (the paper's tiling-factor transformation), or flip an
// annotation.
//
// The candidate is built in call-local scratch, as Random's draws are,
// and only a changed result is made, as Random's is. Handing back s
// itself is safe because schedules are immutable once returned: no code
// outside the generator writes one.
func (g *Generator) Mutate(rng *rand.Rand, s *Schedule) *Schedule {
	var spBuf [draftAxes][NumSpatialLevels]int
	var rpBuf [draftAxes][NumReduceLevels]int
	c := scratchCopy(s, spBuf[:], rpBuf[:])
	g.mutate(rng, &c, s)
	return g.settle(&c, s, s)
}

// mutate applies Mutate's mutation to c, a copy of s.
func (g *Generator) mutate(rng *rand.Rand, c, s *Schedule) {
	nSpatial := len(c.SpatialTiles)
	nReduce := len(c.ReduceTiles)
	for attempt := 0; attempt < 8; attempt++ {
		switch choice := rng.Intn(10); {
		case choice < 6 && nSpatial > 0: // spatial tile move
			d := rng.Intn(nSpatial)
			if g.moveFactor(rng, c.SpatialTiles[d][:]) {
				if !g.Task.Tiled() {
					c.SpatialTiles[d][LvlInner0] *= c.SpatialTiles[d][LvlVThread]
					c.SpatialTiles[d][LvlVThread] = 1
				}
				if g.Fits(c) && (!c.TensorCore || g.tcAligned(c)) {
					return
				}
				c.SpatialTiles[d] = s.SpatialTiles[d] // undo: the only tile touched
			}
		case choice < 8 && nReduce > 0: // reduction tile move
			d := rng.Intn(nReduce)
			if g.moveFactor(rng, c.ReduceTiles[d][:]) {
				if g.Fits(c) && (!c.TensorCore || g.tcAligned(c)) {
					return
				}
				c.ReduceTiles[d] = s.ReduceTiles[d]
			}
		case choice == 8:
			c.UnrollStep = UnrollSteps[rng.Intn(len(UnrollSteps))]
			return
		default:
			c.VectorLen = VectorLens[rng.Intn(len(VectorLens))]
			return
		}
	}
}

// scratchCopy returns a copy of s whose tile rows live in sp and rp when
// they are long enough (in fresh rows otherwise).
func scratchCopy(s *Schedule, sp [][NumSpatialLevels]int, rp [][NumReduceLevels]int) Schedule {
	sp, rp = rowsOn(sp, len(s.SpatialTiles)), rowsOn(rp, len(s.ReduceTiles))
	copy(sp, s.SpatialTiles)
	copy(rp, s.ReduceTiles)
	return Schedule{
		SpatialTiles: sp,
		ReduceTiles:  rp,
		UnrollStep:   s.UnrollStep,
		VectorLen:    s.VectorLen,
		UseShared:    s.UseShared,
		TensorCore:   s.TensorCore,
	}
}

// settle returns the parent a genetic operator's scratch result c equals,
// or, when it equals neither, a copy of c of its own (g.result).
func (g *Generator) settle(c, a, b *Schedule) *Schedule {
	switch {
	case c.Same(a):
		return a
	case c.Same(b):
		return b
	}
	return g.result(c)
}

// moveFactor transfers one prime factor between two random levels of a
// tile; returns false if the tile is all ones.
func (g *Generator) moveFactor(rng *rand.Rand, tile []int) bool {
	var srcLevels [NumSpatialLevels]int
	n := 0
	for l, f := range tile {
		if f > 1 {
			srcLevels[n] = l
			n++
		}
	}
	if n == 0 {
		return false
	}
	src := srcLevels[rng.Intn(n)]
	dst := rng.Intn(len(tile) - 1)
	if dst >= src {
		dst++
	}
	var buf [maxPrimeFactors]int
	fs := appendPrimeFactors(buf[:0], tile[src])
	p := fs[rng.Intn(len(fs))]
	tile[src] /= p
	tile[dst] *= p
	return true
}

// Crossover combines per-axis tiles of two parents. A result that
// breaks the budgets gives a back, and one that equals a parent gives that
// parent: like Mutate, Crossover makes only a new schedule.
func (g *Generator) Crossover(rng *rand.Rand, a, b *Schedule) *Schedule {
	var spBuf [draftAxes][NumSpatialLevels]int
	var rpBuf [draftAxes][NumReduceLevels]int
	c := scratchCopy(a, spBuf[:], rpBuf[:])
	for d := range c.SpatialTiles {
		if rng.Intn(2) == 1 {
			c.SpatialTiles[d] = b.SpatialTiles[d]
		}
	}
	for d := range c.ReduceTiles {
		if rng.Intn(2) == 1 {
			c.ReduceTiles[d] = b.ReduceTiles[d]
		}
	}
	if rng.Intn(2) == 1 {
		c.UnrollStep = b.UnrollStep
	}
	if rng.Intn(2) == 1 {
		c.VectorLen = b.VectorLen
	}
	if !g.Fits(&c) || (c.TensorCore && !g.tcAligned(&c)) {
		return a
	}
	return g.settle(&c, a, b)
}

package schedule

import (
	"math/rand"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/workloads"
)

// The generator builds its candidates in call-local scratch and allocates
// only what it returns. These tests hold it to the generator that
// allocated a fresh schedule per draw and a clone per genetic operation
// (the ref* functions below, kept verbatim apart from their names and the
// path counters): the same results and the same RNG stream, since every
// later draw of a session hangs on both.

// refPaths counts which way refRandom returned.
type refPaths struct {
	accepted, clamped, redrawn int // a fitting draw; the last miss clamped; a 65th draw clamped
	missThenWmma               int // clamped calls whose last miss was followed by misaligned wmma draws
	draws                      int // randomOnce calls
}

func refRandom(g *Generator, rng *rand.Rand, paths *refPaths) *Schedule {
	const attempts = 64
	var best *Schedule
	wmmaSinceMiss := false
	for i := 0; i < attempts; i++ {
		s := refRandomOnce(g, rng, paths)
		if g.Fits(s) {
			if s.TensorCore && !g.tcAligned(s) {
				wmmaSinceMiss = true
				continue
			}
			paths.accepted++
			return s
		}
		best, wmmaSinceMiss = s, false
	}
	switch {
	case best == nil:
		best = refRandomOnce(g, rng, paths)
		paths.redrawn++
	case wmmaSinceMiss:
		paths.missThenWmma++
		fallthrough
	default:
		paths.clamped++
	}
	g.clampThreads(best)
	g.clampShared(best)
	if best.TensorCore && !g.tcAligned(best) {
		best.TensorCore = false
	}
	return best
}

func refRandomOnce(g *Generator, rng *rand.Rand, paths *refPaths) *Schedule {
	paths.draws++
	t := g.Task
	s := &Schedule{
		SpatialTiles: make([][NumSpatialLevels]int, len(t.Spatial)),
		ReduceTiles:  make([][NumReduceLevels]int, len(t.Reduce)),
		UnrollStep:   UnrollSteps[rng.Intn(len(UnrollSteps))],
		VectorLen:    VectorLens[rng.Intn(len(VectorLens))],
		UseShared:    t.Tiled(),
		TensorCore:   g.TensorCore && t.TensorCoreEligible() && g.tcAlignable(),
	}
	for d, e := range t.Spatial {
		refRandomFactorization(rng, e, s.SpatialTiles[d][:])
	}
	for d, e := range t.Reduce {
		refRandomFactorization(rng, e, s.ReduceTiles[d][:])
	}
	if !t.Tiled() {
		for d := range s.SpatialTiles {
			tile := &s.SpatialTiles[d]
			tile[LvlInner0] *= tile[LvlVThread]
			tile[LvlVThread] = 1
		}
	}
	return s
}

func refRandomFactorization(rng *rand.Rand, extent int, tile []int) {
	for i := range tile {
		tile[i] = 1
	}
	var buf [maxPrimeFactors]int
	for _, p := range appendPrimeFactors(buf[:0], extent) {
		tile[rng.Intn(len(tile))] *= p
	}
}

func refMutate(g *Generator, rng *rand.Rand, s *Schedule) *Schedule {
	c := s.Clone()
	nSpatial := len(c.SpatialTiles)
	nReduce := len(c.ReduceTiles)
	for attempt := 0; attempt < 8; attempt++ {
		switch choice := rng.Intn(10); {
		case choice < 6 && nSpatial > 0:
			d := rng.Intn(nSpatial)
			if g.moveFactor(rng, c.SpatialTiles[d][:]) {
				if !g.Task.Tiled() {
					c.SpatialTiles[d][LvlInner0] *= c.SpatialTiles[d][LvlVThread]
					c.SpatialTiles[d][LvlVThread] = 1
				}
				if g.Fits(c) && (!c.TensorCore || g.tcAligned(c)) {
					return c
				}
				c.SpatialTiles[d] = s.SpatialTiles[d]
			}
		case choice < 8 && nReduce > 0:
			d := rng.Intn(nReduce)
			if g.moveFactor(rng, c.ReduceTiles[d][:]) {
				if g.Fits(c) && (!c.TensorCore || g.tcAligned(c)) {
					return c
				}
				c.ReduceTiles[d] = s.ReduceTiles[d]
			}
		case choice == 8:
			c.UnrollStep = UnrollSteps[rng.Intn(len(UnrollSteps))]
			return c
		default:
			c.VectorLen = VectorLens[rng.Intn(len(VectorLens))]
			return c
		}
	}
	return c
}

// refCrossover also reports whether it rejected the bred result.
func refCrossover(g *Generator, rng *rand.Rand, a, b *Schedule) (*Schedule, bool) {
	c := a.Clone()
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
	if !g.Fits(c) || (c.TensorCore && !g.tcAligned(c)) {
		return a.Clone(), true
	}
	return c, false
}

// deviceGenerator configures a generator for a task on a device as a
// tuning session does.
func deviceGenerator(task *ir.Task, dev *device.Device, tensorCore bool) *Generator {
	g := NewGenerator(task)
	g.MaxThreads = dev.MaxThreads
	g.MaxSharedWords = dev.SharedPerBlock
	g.TensorCore = tensorCore && task.TensorCoreEligible()
	if dev.WMMA > 0 {
		g.WMMA = dev.WMMA
	}
	return g
}

// genOps are a generator's three operations.
type genOps struct {
	random    func(*rand.Rand) *Schedule
	mutate    func(rng *rand.Rand, s *Schedule) *Schedule
	crossover func(rng *rand.Rand, a, b *Schedule) *Schedule
}

func (g *Generator) ops() genOps { return genOps{g.Random, g.Mutate, g.Crossover} }

// refOps are the reference operations on g.
func refOps(g *Generator, paths *refPaths) genOps {
	return genOps{
		random: func(rng *rand.Rand) *Schedule { return refRandom(g, rng, paths) },
		mutate: func(rng *rand.Rand, s *Schedule) *Schedule { return refMutate(g, rng, s) },
		crossover: func(rng *rand.Rand, a, b *Schedule) *Schedule {
			c, _ := refCrossover(g, rng, a, b)
			return c
		},
	}
}

// checkAgainstReference runs Random, Mutate and Crossover on g and the
// reference on a twin generator from equal RNGs, ops times each, and
// fails on the first result that is not Same or RNG stream that parts.
func checkAgainstReference(t *testing.T, name string, g *Generator, seed int64, ops int, paths *refPaths) {
	t.Helper()
	checkOps(t, name, seed, ops, g.ops(), refOps(g, paths))
}

// checkOps runs got's operations and want's from equal RNGs — Random,
// then Mutate, then Crossover, ops times each, the genetic operators on
// earlier results — and fails on the first result that is not Same or
// RNG stream that parts.
func checkOps(t *testing.T, name string, seed int64, ops int, g, r genOps) {
	t.Helper()
	rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	var pop, refPop []*Schedule
	check := func(op string, got, want *Schedule) {
		t.Helper()
		if !got.Same(want) {
			t.Fatalf("%s: %s %d: got %s, reference %s", name, op, len(pop), got.Fingerprint(), want.Fingerprint())
		}
		if a, b := rng.Int63(), ref.Int63(); a != b {
			t.Fatalf("%s: %s %d: the RNG streams part after the call", name, op, len(pop))
		}
		pop, refPop = append(pop, got), append(refPop, want)
	}
	for i := 0; i < ops; i++ {
		check("Random", g.random(rng), r.random(ref))
	}
	for i := 0; i < ops; i++ {
		j := i % len(pop)
		check("Mutate", g.mutate(rng, pop[j]), r.mutate(ref, refPop[j]))
	}
	for i := 0; i < ops; i++ {
		j, k := i%len(pop), (7*i+3)%len(pop)
		check("Crossover", g.crossover(rng, pop[j], pop[k]), r.crossover(ref, refPop[j], refPop[k]))
	}
}

// TestRandomMatchesReference: over every task of every model-zoo network
// on three devices, a TensorCore generator, and generators whose budgets
// force Random's fallback down each of its paths, the scratch generator
// returns what the allocating one did and leaves the RNG where it did.
func TestRandomMatchesReference(t *testing.T) {
	ops := 24
	if testing.Short() {
		ops = 6
	}
	var zoo refPaths
	for ni, name := range workloads.Names() {
		n, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for di, dev := range []*device.Device{device.A100, device.TitanV, device.Orin} {
			for ti, task := range n.Tasks {
				g := deviceGenerator(task, dev, false)
				checkAgainstReference(t, name+"/"+dev.Name+"/"+task.Name, g, int64(10000*ni+100*di+ti), ops, &zoo)
			}
		}
	}
	if zoo.accepted == 0 || zoo.clamped == 0 {
		t.Errorf("model zoo: %d accepted and %d clamped draws, want both", zoo.accepted, zoo.clamped)
	}
	t.Logf("model zoo: %.2f draws per Random call", float64(zoo.draws)/float64(zoo.accepted+zoo.clamped+zoo.redrawn))

	for _, c := range []struct {
		name string
		g    func() *Generator
		want func(p refPaths) bool
	}{
		{"tensorcore", func() *Generator {
			return deviceGenerator(ir.NewMatMul(512, 4096, 768, ir.FP16, 1), device.A100, true)
		}, func(p refPaths) bool { return p.accepted > 0 }},
		// Every draw fits, and with a 32-wide fragment over 32-long axes
		// wmma alignment is rare: the fallback draws a 65th candidate.
		{"redraw", func() *Generator {
			g := deviceGenerator(ir.NewMatMul(32, 32, 32, ir.FP16, 0), device.A100, true)
			g.WMMA = 32
			return g
		}, func(p refPaths) bool { return p.redrawn > 0 }},
		// Draws miss the thread budget or the wmma fragment about evenly:
		// the miss the fallback clamps is often followed by misaligned
		// draws, so it must outlive them.
		{"miss-then-wmma", func() *Generator {
			g := deviceGenerator(ir.NewMatMul(32, 32, 32, ir.FP16, 0), device.A100, true)
			g.WMMA, g.MaxThreads = 32, 16
			return g
		}, func(p refPaths) bool { return p.missThenWmma > 0 }},
		// Almost every draw is over the thread or shared budget: the
		// fallback clamps the last miss.
		{"threads", func() *Generator {
			g := deviceGenerator(ir.NewMatMul(1024, 1024, 512, ir.FP32, 1), device.A100, false)
			g.MaxThreads = 2
			return g
		}, func(p refPaths) bool { return p.clamped > 0 }},
		{"shared", func() *Generator {
			g := deviceGenerator(ir.NewConv2D(ir.Conv2DShape{N: 1, H: 28, W: 28, CI: 128, CO: 256, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1), device.A100, false)
			g.MaxSharedWords = 64
			return g
		}, func(p refPaths) bool { return p.clamped > 0 }},
	} {
		var p refPaths
		checkAgainstReference(t, c.name, c.g(), 7, 4*ops, &p)
		if !c.want(p) {
			t.Errorf("%s: did not take the path it exists for: %+v", c.name, p)
		}
	}
}

// TestMemoGeneratorMatchesHeap: on TestRandomMatchesReference's
// generators — every model-zoo task on three devices, and those that
// force Random's fallback paths — a generator bound to a memo returns
// what the heap generator does from the same seed and leaves the RNG
// where it does. Each generator's run draws a memo and releases it, so
// later runs carve from recycled chunks.
func TestMemoGeneratorMatchesHeap(t *testing.T) {
	ops := 24
	if testing.Short() {
		ops = 6
	}
	check := func(name string, g *Generator, seed int64, ops int) {
		t.Helper()
		memo := NewMemo()
		checkOps(t, name, seed, ops, g.WithMemo(memo).ops(), g.ops())
		memo.Release()
	}
	for ni, name := range workloads.Names() {
		n, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for di, dev := range []*device.Device{device.A100, device.TitanV, device.Orin} {
			for ti, task := range n.Tasks {
				check(name+"/"+dev.Name+"/"+task.Name, deviceGenerator(task, dev, false), int64(10000*ni+100*di+ti), ops)
			}
		}
	}
	tc := deviceGenerator(ir.NewMatMul(512, 4096, 768, ir.FP16, 1), device.A100, true)
	redraw := deviceGenerator(ir.NewMatMul(32, 32, 32, ir.FP16, 0), device.A100, true)
	redraw.WMMA = 32
	missThenWmma := *redraw
	missThenWmma.MaxThreads = 16
	threads := deviceGenerator(ir.NewMatMul(1024, 1024, 512, ir.FP32, 1), device.A100, false)
	threads.MaxThreads = 2
	shared := deviceGenerator(ir.NewConv2D(ir.Conv2DShape{N: 1, H: 28, W: 28, CI: 128, CO: 256, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1), device.A100, false)
	shared.MaxSharedWords = 64
	for _, c := range []struct {
		name string
		g    *Generator
	}{{"tensorcore", tc}, {"redraw", redraw}, {"miss-then-wmma", &missThenWmma}, {"threads", threads}, {"shared", shared}} {
		check(c.name, c.g, 7, 4*ops)
	}
}

// TestGeneticOperatorsShareUnchangedParents: a mutation or crossover
// whose result equals a parent returns that parent's pointer, and every
// other result is a schedule of its own.
func TestGeneticOperatorsShareUnchangedParents(t *testing.T) {
	task := ir.NewMatMul(64, 64, 64, ir.FP32, 1)
	g := a100Generator(task)
	rng := rand.New(rand.NewSource(3))
	pop := g.InitPopulation(rng, 16)
	shared, fresh := 0, 0
	check := func(op string, i int, got *Schedule, parents ...*Schedule) {
		for _, p := range parents {
			if got == p {
				shared++
				return
			}
			if got.Same(p) {
				t.Fatalf("%s %d: a result equal to a parent is a copy of it", op, i)
			}
		}
		fresh++
	}
	for i := 0; i < 2000; i++ {
		a, b := pop[i%len(pop)], pop[(i*5+1)%len(pop)]
		check("Mutate", i, g.Mutate(rng, a), a)
		c := g.Crossover(rng, a, b)
		check("Crossover", i, c, a, b)
		pop[i%len(pop)] = c
	}
	if shared == 0 || fresh == 0 {
		t.Fatalf("%d shared and %d fresh results, want both", shared, fresh)
	}
}

// sink keeps results on the heap, as a caller that stores them does.
var sink *Schedule

// TestAllocRandom: on a generator that rejects most draws, a Random call
// allocates exactly the objects of the one schedule it returns.
func TestAllocRandom(t *testing.T) {
	task := ir.NewMatMul(1024, 1024, 512, ir.FP32, 1)
	g := a100Generator(task)
	g.MaxThreads = 64
	var p refPaths
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		refRandom(g, rng, &p)
	}
	if perCall := float64(p.draws) / 200; perCall < 3 {
		t.Fatalf("%.2f draws per call: the generator rejects too few draws to test", perCall)
	}
	s := g.Random(rng)
	want := testing.AllocsPerRun(allocRuns, func() { sink = s.Clone() })
	if got := testing.AllocsPerRun(allocRuns, func() { sink = g.Random(rng) }); got != want {
		t.Errorf("Random: %v allocs per run, want %v (one schedule)", got, want)
	}
}

// TestAllocGenerateInMemo: from a warmed memo, a bound generator's
// Random, a Mutate that changes its parent and a Crossover that makes a
// new schedule allocate nothing: each result is carved from chunks an
// earlier round grew.
func TestAllocGenerateInMemo(t *testing.T) {
	task := ir.NewMatMul(256, 256, 256, ir.FP32, 1)
	g := a100Generator(task)
	rng := rand.New(rand.NewSource(4))
	a, b := g.Random(rng), g.Random(rng)
	var changed, bred int64 = -1, -1
	for seed := int64(0); seed < 1000 && (changed < 0 || bred < 0); seed++ {
		rng.Seed(seed)
		if changed < 0 && g.Mutate(rng, a) != a {
			changed = seed
		}
		rng.Seed(seed)
		if c := g.Crossover(rng, a, b); bred < 0 && c != a && c != b {
			bred = seed
		}
	}
	if changed < 0 || bred < 0 {
		t.Fatalf("no seed under 1000 gives a changing mutation (%d) and a new crossover (%d)", changed, bred)
	}
	cases := []struct {
		name string
		seed int64
		run  func(*Generator) *Schedule
	}{
		{"Random", 5, func(g *Generator) *Schedule { return g.Random(rng) }},
		{"changing Mutate", changed, func(g *Generator) *Schedule { return g.Mutate(rng, a) }},
		{"new Crossover", bred, func(g *Generator) *Schedule { return g.Crossover(rng, a, b) }},
	}
	memo := NewMemo()
	bound := g.WithMemo(memo)
	for range 2 * (allocRuns + 2) { // twice what the checks below carve
		for _, c := range cases {
			rng.Seed(c.seed)
			sink = c.run(bound)
		}
	}
	memo.Release()
	if NewMemo() != memo {
		t.Fatal("NewMemo did not draw the memo parked last")
	}
	for _, c := range cases {
		rng.Seed(c.seed)
		if got := c.run(bound); got == a || got == b {
			t.Fatalf("%s: returned a parent, want a new schedule", c.name)
		}
		if avg := testing.AllocsPerRun(allocRuns, func() { rng.Seed(c.seed); sink = c.run(bound) }); avg != 0 {
			t.Errorf("%s: %v allocs per run from a warmed memo, want 0", c.name, avg)
		}
	}
	memo.Release()
}

// TestAllocMutate: a mutation that leaves its parent unchanged, and a
// crossover the budgets reject, allocate nothing: their scratch is on
// the stack and they return a parent.
func TestAllocMutate(t *testing.T) {
	task := ir.NewMatMul(256, 256, 256, ir.FP32, 1)
	g := a100Generator(task)
	rng := rand.New(rand.NewSource(2))
	s := g.Random(rng)
	// b breaks the thread budget on every spatial axis, so a crossover
	// that takes any of b's spatial tiles is rejected.
	b := s.Clone()
	for d := range b.SpatialTiles {
		b.SpatialTiles[d][LvlThread] = 2 * g.MaxThreads
	}
	var noop, rejected int64 = -1, -1
	for seed := int64(0); seed < 1000 && (noop < 0 || rejected < 0); seed++ {
		ref := rand.New(rand.NewSource(seed))
		if noop < 0 && refMutate(g, ref, s).Same(s) {
			noop = seed
		}
		ref.Seed(seed)
		if _, rej := refCrossover(g, ref, s, b); rejected < 0 && rej {
			rejected = seed
		}
	}
	if noop < 0 || rejected < 0 {
		t.Fatalf("no seed under 1000 gives a no-op mutation (%d) and a rejected crossover (%d)", noop, rejected)
	}
	for _, c := range []struct {
		name string
		seed int64
		run  func() *Schedule
	}{
		{"no-op Mutate", noop, func() *Schedule { return g.Mutate(rng, s) }},
		{"rejected Crossover", rejected, func() *Schedule { return g.Crossover(rng, s, b) }},
	} {
		rng.Seed(c.seed)
		if got := c.run(); got != s {
			t.Fatalf("%s: returned a new schedule, want its parent", c.name)
		}
		if avg := testing.AllocsPerRun(allocRuns, func() { rng.Seed(c.seed); sink = c.run() }); avg != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, avg)
		}
	}
}

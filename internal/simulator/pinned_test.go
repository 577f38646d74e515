package simulator

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
	"pruner/internal/workloads"
)

// TestLatencyBitsPinned pins the simulator's latency — bit for bit, build
// errors included — over 1 600 seeded candidates (random draws and
// mutations of them) on each task of the four bench workloads
// (online_pruner and online_ansor share resnet50's) and on the two flat
// sketches. The hashes were recorded at 3b542ba, when statements carried
// concatenated buffer names and uniqueBytes matched them as strings;
// matching by operand index must not move a single bit. The candidates
// come from Generator, so the same hashes also pin its RNG stream.
func TestLatencyBitsPinned(t *testing.T) {
	bench := func(network string) []*ir.Task {
		net, err := workloads.ByName(network)
		if err != nil {
			t.Fatal(err)
		}
		return net.Representative(2)
	}
	cases := []struct {
		dev   *device.Device
		tasks []*ir.Task
		want  [2]uint64
	}{
		{device.A100, bench("resnet50"), [2]uint64{0x55c5e76a46a18c76, 0xe7d061ab23bb2d2a}},
		{device.Orin, bench("bert_tiny"), [2]uint64{0x623bfbd3610897f0, 0xb769e82ae074a549}},
		{device.TitanV, bench("vit"), [2]uint64{0x237cfcd2b82bb941, 0xdffe1caf000ce629}},
		// Not bench tasks: the flat sketches, whose loads stream from global
		// memory under the operand's bare name.
		{device.A100, []*ir.Task{ir.NewElementwise(1<<20, 3, ir.FP32), ir.NewReduction(4096, 1024, ir.FP32, 1)}, [2]uint64{0x447ddd9f64dd70dc, 0x60f9b216913fef3f}},
	}
	for _, c := range cases {
		sim := New(c.dev)
		for ti, task := range c.tasks {
			g := schedule.NewGenerator(task)
			g.MaxThreads = c.dev.MaxThreads
			g.MaxSharedWords = c.dev.SharedPerBlock
			rng := rand.New(rand.NewSource(int64(1500 + ti)))
			h := fnv.New64a()
			var buf [8]byte
			failed := 0
			for i := 0; i < 1600; i++ {
				s := g.Random(rng)
				if i%2 == 1 {
					s = g.Mutate(rng, s)
				}
				lat, err := sim.Latency(task, s)
				if err != nil {
					lat = math.Inf(1)
					failed++
				}
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(lat))
				_, _ = h.Write(buf[:])
			}
			if failed == 1600 {
				t.Fatalf("%s/%s: every candidate failed to build; the pin is vacuous", c.dev.Name, task.Name)
			}
			if got := h.Sum64(); got != c.want[ti] {
				t.Errorf("%s/%s: latency hash %#016x, want %#016x", c.dev.Name, task.Name, got, c.want[ti])
			}
		}
	}
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pruner/internal/parallel"
)

// AddGrads accumulates scale * src's gradients into dst's: dst[i].Grad
// += src[i].Grad * scale, element by element. With ZeroGrad before it,
// once per replica in replica order, it is the reduction Adam.StepFrom's
// first pass replaced: the reference that pass is checked against.
func AddGrads(dst, src []*Tensor, scale float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: AddGrads count mismatch %d vs %d", len(dst), len(src)))
	}
	for i, d := range dst {
		g := src[i].Grad
		if len(g) != len(d.Grad) {
			panic(fmt.Sprintf("nn: AddGrads shape mismatch at %d", i))
		}
		for j, v := range g {
			d.Grad[j] += v * scale
		}
	}
}

// adamShapes are parameter shapes around the shard size: single
// elements, a parameter of exactly one shard, ragged last shards and a
// parameter of several.
var adamShapes = [][2]int{{1, 1}, {3, 5}, {1, shardSize}, {2, shardSize + 1}, {96, 48}, {7, 1}, {164, 96}}

// adamSetup builds params of adamShapes with Gaussian weights and reps
// replicas of them whose gradients are Gaussian, about a third zero, a
// few −0.0.
func adamSetup(rng *rand.Rand, reps int) (params []*Tensor, replicas [][]*Tensor) {
	for _, sh := range adamShapes {
		params = append(params, randParam(rng, sh[0], sh[1]))
	}
	replicas = make([][]*Tensor, reps)
	for r := range replicas {
		for _, p := range params {
			rp := ZeroParam(p.R, p.C)
			rp.Data = p.Data
			for i := range rp.Grad {
				switch rng.Intn(6) {
				case 0, 1:
				case 2:
					rp.Grad[i] = math.Copysign(0, -1)
				default:
					rp.Grad[i] = rng.NormFloat64()
				}
			}
			replicas[r] = append(replicas[r], rp)
		}
	}
	return params, replicas
}

// cloneParams deep-copies tensors, values and gradients.
func cloneParams(ps []*Tensor) []*Tensor {
	out := make([]*Tensor, len(ps))
	for i, p := range ps {
		c := ZeroParam(p.R, p.C)
		copy(c.Data, p.Data)
		copy(c.Grad, p.Grad)
		out[i] = c
	}
	return out
}

// TestAdamShardedMatchesSerial checks Adam.StepFrom — the replicas'
// gradients combined shard by shard on the pool, the norm taken
// serially, the update run shard by shard on the pool in lanes — against
// the sequence it replaced (ZeroGrad, AddGrads once per replica in order,
// GradNorm and Step) over three steps at pool sizes 1,
// 2 and 8, with clipping engaged and off: the weights, m and v must be
// bit-equal, and the replicas' gradients zero after each step.
func TestAdamShardedMatchesSerial(t *testing.T) {
	for _, clip := range []float64{0, 5, 1e-3} {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("clip=%g workers=%d", clip, workers)
			rng := rand.New(rand.NewSource(91))
			params, reps := adamSetup(rng, 3)
			ref := NewAdam(cloneParams(params), 7e-4)
			got := NewAdam(params, 7e-4)
			ref.ClipNorm, got.ClipNorm = clip, clip
			pool := parallel.New(workers)
			const scale = 1.0 / 3
			for step := 0; step < 3; step++ {
				ref.ZeroGrad()
				for _, rep := range reps {
					AddGrads(ref.params, rep, scale)
				}
				ref.Step()
				saved := make([][]*Tensor, len(reps))
				for r, rep := range reps {
					saved[r] = cloneParams(rep)
				}
				got.StepFrom(pool, reps, scale)
				for pi, p := range got.params {
					what := fmt.Sprintf("%s step %d param %d", name, step, pi)
					bitsEqual(t, what+" weights", p.Data, ref.params[pi].Data)
					bitsEqual(t, what+" gradient", p.Grad, ref.params[pi].Grad)
					bitsEqual(t, what+" m", got.m[pi], ref.m[pi])
					bitsEqual(t, what+" v", got.v[pi], ref.v[pi])
					for r, rep := range reps {
						for i, g := range rep[pi].Grad {
							if math.Float64bits(g) != 0 {
								t.Fatalf("%s: replica %d gradient %d is %v after the step, want +0", what, r, i, g)
							}
						}
						// The next step's gradients: the same values again.
						copy(rep[pi].Grad, saved[r][pi].Grad)
					}
				}
			}
		}
	}
}

// adamEdge are the gradient, moment and weight values the update meets at
// its edges: signed zeros, subnormals, infinities and NaNs of several
// payloads and signs, besides ordinary values.
var adamEdge = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -2.5e-310,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xfff4000000000abc), 1e300, -1e-300, 1, -1.5,
}

// adamEdgeVector returns n values, about half from adamEdge and the rest
// Gaussian, the Gaussian ones non-negative when nonneg is set.
func adamEdgeVector(rng *rand.Rand, n int, nonneg bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(2) == 0 {
			x[i] = adamEdge[rng.Intn(len(adamEdge))]
		} else if x[i] = rng.NormFloat64(); nonneg {
			x[i] = math.Abs(x[i])
		}
	}
	return x
}

// BenchmarkAdamStepFrom times one optimiser step from two replicas over
// PaCM's parameter shapes on a pool of one worker (the fit's tail while
// the draft holds the pool's other slot) and of two (after the session
// joins the fit).
func BenchmarkAdamStepFrom(b *testing.B) {
	rng := rand.New(rand.NewSource(95))
	var params []*Tensor
	for _, sh := range [][2]int{{164, 96}, {1, 96}, {96, 96}, {1, 96}, {23, 48}, {1, 48},
		{48, 48}, {1, 48}, {48, 48}, {1, 48}, {48, 48}, {1, 48}, {48, 48}, {1, 48}, {1, 48}, {1, 48},
		{144, 64}, {1, 64}, {64, 1}, {1, 1}} {
		params = append(params, randParam(rng, sh[0], sh[1]))
	}
	reps := make([][]*Tensor, 2)
	for r := range reps {
		for _, p := range params {
			reps[r] = append(reps[r], randParam(rng, p.R, p.C))
		}
	}
	adam := NewAdam(params, 7e-4)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.New(workers)
			for i := 0; i < b.N; i++ {
				for _, rep := range reps {
					for _, p := range rep {
						p.Grad[0] = 1 // a fresh gradient for the step to read
					}
				}
				adam.StepFrom(pool, reps, 0.5)
			}
		})
	}
}

package nn

import (
	"math"

	"pruner/internal/parallel"
)

// Adam is the Adam optimiser with gradient clipping, the training
// configuration the paper's cost models use.
//
// A data-parallel fit steps it from its replicas' gradients (StepFrom) in
// three passes over a shard plan built once, in NewAdam: runs of at most
// shardSize elements of one parameter, in parameter then element order,
// fixed by the parameter shapes alone, so no pass depends on the worker
// count. The first pass sums the replicas' gradients into the live ones
// and zeroes the replicas', shard by shard on the pool; the second takes
// the squared norm serially, in parameter then element order; the third
// runs the update shard by shard on the pool, each shard in lanes
// (adamUpdate). Every element's value is the same sequence of rounded
// operations as in the serial loop each pass replaces, so the weights
// are bitwise independent of the pool (TestAdamShardedMatchesSerial), and
// a warmed step allocates nothing beyond the pool's own fan-out.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // 0 disables clipping

	params []*Tensor
	m, v   [][]float64
	step   int
	shards []shard
	// The step in progress, read by the shard passes: the replicas'
	// gradients and their weight, and the update's constants.
	reps     [][]*Tensor
	repScale float64
	k        adamConsts
	// The pool passes over shard i, bound once so a step allocates none.
	combinePass, updatePass func(i int)
}

// shard is elements [lo, hi) of parameter p.
type shard struct{ p, lo, hi int }

// shardSize bounds a shard, so a step's ~45 k PaCM elements make 39
// shards to spread over the pool. The value is not tuned:
// BenchmarkAdamStepFrom on one and two workers reads the same, within its
// run-to-run spread, at 512, 2,048 and 8,192 and with one shard per
// parameter (EXPERIMENTS.md).
const shardSize = 2048

// adamConsts are one step's constants, in the order the lane kernel
// (optim_amd64.s) reads them.
type adamConsts struct {
	scale       float64 // the clipping factor applied to every gradient
	beta1, omb1 float64 // β1 and 1 − β1
	beta2, omb2 float64 // β2 and 1 − β2
	lr          float64
	b1c, b2c    float64 // the bias corrections 1 − β1ᵗ and 1 − β2ᵗ
	eps         float64
}

// NewAdam builds an optimiser over the parameters with defaults
// (lr, β1=0.9, β2=0.999, eps=1e-8) and its shard plan.
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5,
		params: params,
	}
	for pi, p := range params {
		a.m = append(a.m, make([]float64, len(p.Data)))
		a.v = append(a.v, make([]float64, len(p.Data)))
		for lo := 0; lo < len(p.Data); lo += shardSize {
			a.shards = append(a.shards, shard{pi, lo, min(lo+shardSize, len(p.Data))})
		}
	}
	a.combinePass, a.updatePass = a.combineShard, a.updateShard
	return a
}

// ZeroGrad clears the parameters' gradients, ahead of a backward on the
// live model stepped with Step.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		clear(p.Grad)
	}
}

// GradNorm returns the global L2 norm of all gradients.
func (a *Adam) GradNorm() float64 {
	var sq float64
	for _, p := range a.params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}

// Step applies one update from the parameters' own gradients as one
// serial loop over every element, with no shard plan and no lanes. It is
// the reference StepFrom is checked against (TestAdamShardedMatchesSerial)
// and the step of the single-model reference fits in tests; the fit
// steps with StepFrom, and no other code should.
func (a *Adam) Step() {
	a.step++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / n
		}
	}
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for pi, p := range a.params {
		m, v := a.m[pi], a.v[pi]
		for i := range p.Data {
			g := p.Grad[i] * scale
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			p.Data[i] -= a.LR * (m[i] / b1c) / (math.Sqrt(v[i]/b2c) + a.Eps)
		}
	}
}

// StepFrom applies one update from replicas' gradients on pool: the
// parameters' gradient is (+0 + reps[0]·scale) + reps[1]·scale + …, in
// replica order, element by element, and each replica's gradients are
// zeroed as they are read, ready for its next backward. reps[r] lists
// replica r's tensors in the parameters' order and shapes.
func (a *Adam) StepFrom(pool *parallel.Pool, reps [][]*Tensor, scale float64) {
	a.reps, a.repScale = reps, scale
	pool.ForEach(len(a.shards), a.combinePass)
	a.reps = nil
	a.prepare()
	pool.ForEach(len(a.shards), a.updatePass)
}

// combineShard sums the replicas' gradients over shard i into the
// parameters' and zeroes the replicas'.
func (a *Adam) combineShard(i int) {
	sh := a.shards[i]
	g := a.params[sh.p].Grad[sh.lo:sh.hi]
	clear(g)
	for _, rep := range a.reps {
		drainInto(g, rep[sh.p].Grad[sh.lo:sh.hi], a.repScale)
	}
}

// prepare advances the step count and fixes the step's constants: the
// clipping factor from the gradients' norm and the bias corrections.
func (a *Adam) prepare() {
	a.step++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / n
		}
	}
	a.k = adamConsts{
		scale: scale,
		beta1: a.Beta1, omb1: 1 - a.Beta1,
		beta2: a.Beta2, omb2: 1 - a.Beta2,
		lr:  a.LR,
		b1c: 1 - math.Pow(a.Beta1, float64(a.step)),
		b2c: 1 - math.Pow(a.Beta2, float64(a.step)),
		eps: a.Eps,
	}
}

// updateShard runs the update over shard i.
func (a *Adam) updateShard(i int) {
	sh := a.shards[i]
	p := a.params[sh.p]
	adamUpdate(p.Data[sh.lo:sh.hi], p.Grad[sh.lo:sh.hi], a.m[sh.p][sh.lo:sh.hi], a.v[sh.p][sh.lo:sh.hi], &a.k)
}

// adamGo is the update in Go, element by element: the loop the lane
// kernel reproduces bit for bit and the fallback where there is none.
func adamGo(p, g, m, v []float64, k *adamConsts) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for i := range p {
		gi := g[i] * k.scale
		mi := k.beta1*m[i] + k.omb1*gi
		vi := k.beta2*v[i] + k.omb2*gi*gi
		m[i], v[i] = mi, vi
		p[i] -= k.lr * (mi / k.b1c) / (math.Sqrt(vi/k.b2c) + k.eps)
	}
}

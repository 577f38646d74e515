package costmodel

import (
	"math"
	"math/rand"

	"pruner/internal/features"
	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// The references the engines are compared against, kept in a test file so
// production code cannot call them: a per-candidate forward composed from
// plain nn operators for each model, the per-candidate Predict loop over
// it, and the serial one-step-per-group fit loop.

// forwardOne scores one candidate with the unbatched composition: every
// layer an Affine over the full-width input, the feature rows
// zero-extended to the model width (so the rows op's narrow rows and its
// multiply by W's leading rows are checked independently), whole-program
// one-segment sums and means, and the attention block over one segment
// with no dedup.
func (m *TenSetMLP) forwardOne(lw *schedule.Lowered) *nn.Tensor {
	emb := reluLayers(m.embed, padded(features.Statement(lw), features.StmtDim))
	return m.head.Forward(nn.SegmentSumRows(emb, []int{emb.R}))
}

// forwardOne: see TenSetMLP.forwardOne.
func (m *PaCM) forwardOne(lw *schedule.Lowered) *nn.Tensor {
	var parts *nn.Tensor
	if m.UseStatement {
		emb := reluLayers(m.stmtEmbed, padded(features.Statement(lw), features.StmtDim))
		parts = nn.SegmentSumRows(emb, []int{emb.R})
	}
	if m.UseDataflow {
		tokens := nn.Tanh(m.dfProj.Forward(padded(features.Dataflow(lw), features.DataflowDim)))
		ctx := nn.SegmentMeanRows(wholeAttention(m.dfAttn, tokens), []int{tokens.R})
		if parts == nil {
			parts = ctx
		} else {
			parts = nn.ConcatCols(parts, ctx)
		}
	}
	return m.head.Forward(parts)
}

// forwardOne: see TenSetMLP.forwardOne.
func (m *TLP) forwardOne(lw *schedule.Lowered) *nn.Tensor {
	x := wholeAttention(m.attn, m.proj.Forward(padded(features.Primitives(lw), features.PrimDim)))
	return m.head.Forward(nn.SegmentMeanRows(x, []int{x.R}))
}

// padded is FromRows over the rows zero-extended to width: the input a
// model's first layer would read if features stored every column.
func padded(rows [][]float64, width int) *nn.Tensor {
	x := nn.New(len(rows), width)
	for i, r := range rows {
		copy(x.Data[i*width:(i+1)*width], r)
	}
	return x
}

// reluLayers applies each layer of m as an Affine through ReLU, the last
// one included: MLP.ForwardReLURows without the rows op.
func reluLayers(m *nn.MLP, x *nn.Tensor) *nn.Tensor {
	for _, l := range m.Layers {
		x = nn.Affine(x, l.W, l.B, true)
	}
	return x
}

// wholeAttention runs the attention block over all of x as one segment,
// each row its own representative.
func wholeAttention(a *nn.SelfAttention, x *nn.Tensor) *nn.Tensor {
	idx := make([]int, x.R)
	for i := range idx {
		idx[i] = i
	}
	return a.ForwardSegmentsDedup(x, idx, []int{x.R})
}

// predictReference is the per-candidate Predict: one tape-free forward
// per schedule, fanned over the pool — the ground truth for the
// bitwise-equivalence tests and BenchmarkPredictBatched's baseline arm.
func predictReference(pool *parallel.Pool, params []*nn.Tensor, t *ir.Task, schs []*schedule.Schedule, one func(*schedule.Lowered) *nn.Tensor) []float64 {
	defer nn.FreezeParams(params)()
	out := make([]float64, len(schs))
	pool.ForEach(len(schs), func(i int) {
		out[i] = one(schedule.Lower(t, schs[i])).At(0, 0)
	})
	return out
}

// stepFn is one reference training step over a group's lowered programs:
// forward, LambdaRank loss and backward on the live parameters. It
// returns the loss.
type stepFn func(lws []*schedule.Lowered, rel []float64) float64

// groupStep is the step over one batched forward of the whole group.
func groupStep(forward forwardFn) stepFn {
	return func(lws []*schedule.Lowered, rel []float64) float64 {
		loss := nn.LambdaRankLoss(forward(nil, lws), rel)
		nn.Backward(loss)
		return loss.Data[0]
	}
}

// rankFitReference is the serial fit loop — one optimiser step per task
// group, every record lowered by plain schedule.Lower — the ground truth
// for the trainer's equivalence tests and BenchmarkFit's baseline arm.
func rankFitReference(recs []Record, opt FitOptions, adam *nn.Adam, step stepFn, seed int64) FitReport {
	opt = opt.withDefaults()
	groups := groupByTask(recs, lowerAll(recs))
	report := FitReport{Loss: math.NaN()}
	if len(groups) == 0 {
		return report
	}
	rng := rand.New(rand.NewSource(seed ^ opt.Seed))
	for _, g := range groups {
		report.Samples += len(g.lws)
	}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		batches := epochBatches(groups, rng)
		var epochLoss float64
		for _, b := range batches {
			adam.ZeroGrad()
			epochLoss += step(b.lws, b.rel)
			adam.Step()
			report.Batches++
			report.SampleVisits += len(b.lws)
		}
		if len(batches) > 0 {
			report.Loss = epochLoss / float64(len(batches))
		}
	}
	return report
}

// lowerAll lowers each record with plain schedule.Lower, on the heap.
func lowerAll(recs []Record) []*schedule.Lowered {
	lws := make([]*schedule.Lowered, len(recs))
	for i, r := range recs {
		lws[i] = schedule.Lower(r.Task, r.Sched)
	}
	return lws
}

// batchOf is one task's records as a training batch: their heap
// lowerings and relevance labels.
func batchOf(recs []Record) trainBatch {
	lats := make([]float64, len(recs))
	for i, r := range recs {
		lats[i] = r.Latency
	}
	return trainBatch{task: recs[0].Task, lws: lowerAll(recs), rel: Relevances(lats)}
}

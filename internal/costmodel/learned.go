package costmodel

import (
	"math/rand"

	"pruner/internal/features"
	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// arch is what differs between the learned models: the parameters and the
// one forward over them. forward takes one task's lowered candidates and
// returns their (N x 1) score column, built on s (nil = heap): the result
// aliases s and dies at its next Reset. It is nn operators throughout, so
// it records its tape on s when the parameters carry gradients (training)
// and records nothing under nn.FreezeParams (Predict), where a warmed call
// allocates nothing (TestAllocPredictChunk) and scores bitwise as the
// per-candidate reference does (TestPredictBatchedMatchesReference).
type arch interface {
	Name() string
	Params() []*nn.Tensor
	forward(s *nn.Scratch, lws []*schedule.Lowered) *nn.Tensor
}

// learned is the core every learned model embeds: the session wiring
// (pool, round memo, observer), the optimiser and the lazily built
// parallel trainer, and over them Predict and Fit, implemented once.
type learned struct {
	self arch
	// replica builds a fresh architecture of self's seed and shape: what a
	// training worker needs. Replicas alias the live weights and never
	// step, so they carry no core of their own.
	replica func() arch
	adam    *nn.Adam
	seed    int64
	pool    *parallel.Pool
	memo    *schedule.Memo
	mo      *modelObs
	tr      *trainer
}

func newLearned(self arch, seed int64, lr float64, replica func() arch) learned {
	return learned{self: self, replica: replica, adam: nn.NewAdam(self.Params(), lr), seed: seed}
}

// PoolUser is implemented by models whose batched inference can run on a
// caller-provided worker pool. The tuner injects its session pool so one
// pool's budget governs every layer of a session.
type PoolUser interface {
	SetPool(p *parallel.Pool)
}

// SetPool implements PoolUser.
func (c *learned) SetPool(p *parallel.Pool) { c.pool = p }

// SetMemo implements MemoUser.
func (c *learned) SetMemo(m *schedule.Memo) { c.memo = m }

// SetObserver implements ObsUser.
func (c *learned) SetObserver(o *obs.Observer) { c.mo = newModelObs(o, c.self.Name()) }

// trainer lazily builds the model's parallel training state; its
// replicas are architectures of the same shape whose weights alias the
// live model.
func (c *learned) trainer() *trainer {
	if c.tr == nil {
		live := c.self.Params()
		c.tr = &trainer{params: live, build: func() *replica {
			r := c.replica()
			nn.AliasParams(r.Params(), live)
			return &replica{forward: r.forward, params: r.Params()}
		}}
	}
	return c.tr
}

// Predict implements Model: candidates run through the batched engine
// (predictBatched), bitwise identical to a per-candidate forward.
func (c *learned) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	return c.mo.predict(len(schs), func() []float64 {
		return predictBatched(c.pool, c.self, c.memo, t, schs)
	})
}

// Fit implements Model: training runs on the data-parallel engine over
// the session pool (rankFit, model.go).
func (c *learned) Fit(recs []Record, opt FitOptions) FitReport {
	return c.mo.fit(len(recs), func() FitReport {
		return rankFit(recs, opt, c.adam, c.pool, c.seed, c.trainer(), macroBatch)
	})
}

// TenSetMLP is the statement-feature MLP baseline (TenSet's cost model and
// the stand-in for Ansor's learned model): every innermost statement's
// feature row (164-dim as the model reads it, stored 50 wide) is
// embedded, per-program embeddings are summed, and a linear head emits
// the score.
type TenSetMLP struct {
	learned
	embed *nn.MLP
	head  *nn.MLP
}

// NewTenSetMLP builds the model with the given init seed.
func NewTenSetMLP(seed int64) *TenSetMLP {
	m := newTenSetMLPArch(seed)
	m.learned = newLearned(m, seed, 7e-4, func() arch { return newTenSetMLPArch(seed) })
	return m
}

func newTenSetMLPArch(seed int64) *TenSetMLP {
	rng := rand.New(rand.NewSource(seed))
	return &TenSetMLP{
		embed: nn.NewMLP(rng, features.StmtDim, 128, 128),
		head:  nn.NewMLP(rng, 128, 64, 1),
	}
}

// Name implements Model.
func (m *TenSetMLP) Name() string { return "tensetmlp" }

// Params implements Model.
func (m *TenSetMLP) Params() []*nn.Tensor {
	return append(m.embed.Params(), m.head.Params()...)
}

// Costs implements Model.
func (m *TenSetMLP) Costs() Costs { return Costs{FeatureX: 1, InferX: 1, TrainX: 1} }

// forward embeds the whole batch's statement rows in one fused pair of
// GEMMs, fed straight from the rows, and pools them per candidate with a
// segmented sum.
//
//pruner:hotpath
func (m *TenSetMLP) forward(s *nn.Scratch, lws []*schedule.Lowered) *nn.Tensor {
	rows, lens := statementBatch(s, lws)
	emb := m.embed.ForwardReLURows(s, rows, features.StmtSignal)
	return m.head.Forward(nn.SegmentSumRows(emb, lens))
}

// PaCM is the paper's Pattern-aware Cost Model: a multi-branch network
// combining summed statement embeddings with a self-attention encoding of
// the temporal dataflow feature sequence (Figure 4). Branches can be
// disabled for the Table 12 ablations (w/o S.F., w/o T.D.F).
type PaCM struct {
	// UseStatement / UseDataflow select the active branches.
	UseStatement bool
	UseDataflow  bool

	learned
	stmtEmbed *nn.MLP
	dfProj    *nn.Linear
	dfAttn    *nn.SelfAttention
	head      *nn.MLP
}

const (
	pacmStmtDim = 96
	pacmDfDim   = 48
)

// NewPaCM builds the full two-branch model.
func NewPaCM(seed int64) *PaCM { return newPaCM(seed, true, true) }

// NewPaCMAblated builds a PaCM with selected branches, for ablations.
func NewPaCMAblated(seed int64, useStatement, useDataflow bool) *PaCM {
	if !useStatement && !useDataflow {
		panic("costmodel: PaCM needs at least one branch")
	}
	return newPaCM(seed, useStatement, useDataflow)
}

func newPaCM(seed int64, useStmt, useDf bool) *PaCM {
	m := newPaCMArch(seed, useStmt, useDf)
	m.learned = newLearned(m, seed, 7e-4, func() arch { return newPaCMArch(seed, useStmt, useDf) })
	return m
}

func newPaCMArch(seed int64, useStmt, useDf bool) *PaCM {
	rng := rand.New(rand.NewSource(seed))
	m := &PaCM{
		UseStatement: useStmt,
		UseDataflow:  useDf,
		stmtEmbed:    nn.NewMLP(rng, features.StmtDim, pacmStmtDim, pacmStmtDim),
		dfProj:       nn.NewLinear(rng, features.DataflowDim, pacmDfDim),
		dfAttn:       nn.NewSelfAttention(rng, pacmDfDim),
	}
	width := 0
	if useStmt {
		width += pacmStmtDim
	}
	if useDf {
		width += pacmDfDim
	}
	m.head = nn.NewMLP(rng, width, 64, 1)
	return m
}

// Name implements Model.
func (m *PaCM) Name() string {
	switch {
	case !m.UseStatement:
		return "pacm-no-sf"
	case !m.UseDataflow:
		return "pacm-no-tdf"
	default:
		return "pacm"
	}
}

// Params implements Model. All branch parameters are always exposed so
// Siamese snapshots stay architecture-compatible across ablations.
func (m *PaCM) Params() []*nn.Tensor {
	ps := m.stmtEmbed.Params()
	ps = append(ps, m.dfProj.Params()...)
	ps = append(ps, m.dfAttn.Params()...)
	return append(ps, m.head.Params()...)
}

// Costs implements Model: slightly heavier than the MLP, far lighter than
// TLP.
func (m *PaCM) Costs() Costs { return Costs{FeatureX: 1.1, InferX: 1.2, TrainX: 1.6} }

// forward pools the statement branch's fused embeddings with a segmented
// sum; the dataflow branch projects each distinct row once and runs the
// segment attention over the gathered tokens. Disabled branches are
// skipped, which is why the head width follows the ablation flags.
//
//pruner:hotpath
func (m *PaCM) forward(s *nn.Scratch, lws []*schedule.Lowered) *nn.Tensor {
	var parts *nn.Tensor
	if m.UseStatement {
		rows, lens := statementBatch(s, lws)
		emb := m.stmtEmbed.ForwardReLURows(s, rows, features.StmtSignal)
		parts = nn.SegmentSumRows(emb, lens)
	}
	if m.UseDataflow {
		uniq, idx, lens := sequenceBatch(s, lws, features.Dataflow, features.DataflowSeq)
		tokens := nn.Tanh(m.dfProj.ForwardRows(s, uniq, features.DataflowDim))
		ctx := nn.SegmentMeanRows(m.dfAttn.ForwardSegmentsDedup(tokens, idx, lens), lens)
		if parts == nil {
			parts = ctx
		} else {
			parts = nn.ConcatCols(parts, ctx)
		}
	}
	return m.head.Forward(parts)
}

// TLP is the schedule-primitive transformer baseline. Its tokens are
// near-constant one-hots where only split factors vary, which makes small
// online datasets hard to learn from — the behaviour behind the paper's
// disappearing tuning curves.
type TLP struct {
	learned
	proj *nn.Linear
	attn *nn.SelfAttention
	head *nn.MLP
}

// NewTLP builds the model. TLP trains with a higher learning rate on
// sparse features; this is part of why online fine-tuning can
// destabilise it.
func NewTLP(seed int64) *TLP {
	m := newTLPArch(seed)
	m.learned = newLearned(m, seed, 1.2e-3, func() arch { return newTLPArch(seed) })
	return m
}

func newTLPArch(seed int64) *TLP {
	rng := rand.New(rand.NewSource(seed))
	m := &TLP{
		proj: nn.NewLinear(rng, features.PrimDim, features.PrimDim),
		attn: nn.NewSelfAttention(rng, features.PrimDim),
	}
	m.head = nn.NewMLP(rng, features.PrimDim, 64, 1)
	return m
}

// Name implements Model.
func (m *TLP) Name() string { return "tlp" }

// Params implements Model.
func (m *TLP) Params() []*nn.Tensor {
	ps := m.proj.Params()
	ps = append(ps, m.attn.Params()...)
	return append(ps, m.head.Params()...)
}

// Costs implements Model: cheap features, heavy model.
func (m *TLP) Costs() Costs { return Costs{FeatureX: 0.35, InferX: 3.5, TrainX: 8} }

// forward projects each distinct primitive token once, runs the segment
// attention over the gathered sequence and takes per-candidate means.
//
//pruner:hotpath
func (m *TLP) forward(s *nn.Scratch, lws []*schedule.Lowered) *nn.Tensor {
	uniq, idx, lens := sequenceBatch(s, lws, features.Primitives, features.PrimSeq)
	tokens := m.proj.ForwardRows(s, uniq, features.PrimSignal)
	x := m.attn.ForwardSegmentsDedup(tokens, idx, lens)
	return m.head.Forward(nn.SegmentMeanRows(x, lens))
}

// Package analyzer implements the paper's Latent Schedule Explorer draft
// model: hardware-aware symbols (Table 2), the hierarchical penalty terms
// (§4.1) and the Symbol-based Analyzer (SA) — an empirical-formula cost
// model that estimates a schedule's latency without any learned weights.
package analyzer

import (
	"math"

	"pruner/internal/device"
	"pruner/internal/schedule"
)

// Symbols are the hardware-aware symbols of Table 2, aggregated over the
// lowered program. S5/S7/S8 are also tracked per statement during cost
// evaluation; the aggregate values are exposed for features and tests.
type Symbols struct {
	S1L0MemAlloc     float64 // register words per thread
	S2L0CompCount    float64 // MACs per thread
	S3L1MemAlloc     float64 // shared-memory words per block
	S4L1ParaInfo     float64 // threads per block
	S5L2MemFootprint float64 // words moved through global memory
	S6L2ParaInfo     float64 // blocks in the grid
	S7L2TransDim     float64 // innermost contiguous global run (min over stmts)
	S8L2CompCount    float64 // total floating-point operations
}

// Extract computes the aggregate symbols of a lowered program.
func Extract(lw *schedule.Lowered) Symbols {
	sy := Symbols{
		S1L0MemAlloc:  lw.RegsPerThread,
		S2L0CompCount: lw.ThreadCompute,
		S3L1MemAlloc:  lw.SharedPerBlock,
		S4L1ParaInfo:  float64(lw.ThreadsPerBlock),
		S6L2ParaInfo:  float64(lw.Blocks),
		S8L2CompCount: lw.TotalFlops,
	}
	sy.S7L2TransDim = math.Inf(1)
	for i := range lw.Stmts {
		st := &lw.Stmts[i]
		if st.From == schedule.L2 || st.To == schedule.L2 {
			sy.S5L2MemFootprint += st.MoveWords
			if st.ContigRun > 0 && st.ContigRun < sy.S7L2TransDim {
				sy.S7L2TransDim = st.ContigRun
			}
		}
	}
	if math.IsInf(sy.S7L2TransDim, 1) {
		sy.S7L2TransDim = 1
	}
	return sy
}

// Penalties are the hardware-aware penalty terms P_{li,*} of §4.1.
// All terms lie in (0, 1] except PL0C, which follows the paper's
// definition P_{l0,c} = 1 + S2/S1 (a compute-to-allocation bonus).
type Penalties struct {
	PL0M    float64 // min(m_l0 / S1, 1)
	PL0C    float64 // 1 + S2/S1
	PL1M    float64 // min(m_l1 / S3, 1)
	PL1C    float64 // warp-scheduler quantisation
	AlphaL1 float64 // partial-warp waste
	PL2C    float64 // SM wave quantisation
	PL2M    float64 // memory-transaction efficiency (per statement)
	PTC     float64 // TensorCore fragment utilisation (1 when unused)
}

// Config selects penalty groups, enabling the Table 10 ablations.
type Config struct {
	// DisableComputePenalties removes every P_{li,c} term (w/o P_c).
	DisableComputePenalties bool
	// DisableMemoryPenalties removes every P_{li,m} term (w/o P_m).
	DisableMemoryPenalties bool
}

// Analyzer evaluates schedules against one device.
type Analyzer struct {
	Dev *device.Device
	Cfg Config
}

// New returns an analyzer with default configuration.
func New(dev *device.Device) *Analyzer {
	return &Analyzer{Dev: dev}
}

// quant computes x / (ceil(x/unit) * unit): the utilisation of a resource
// consumed in indivisible units.
func quant(x, unit float64) float64 {
	if x <= 0 || unit <= 0 {
		return 1
	}
	return x / (math.Ceil(x/unit) * unit)
}

// Penalties derives the penalty terms of a lowered program.
func (a *Analyzer) Penalties(lw *schedule.Lowered) Penalties {
	d := a.Dev
	sy := Extract(lw)
	p := Penalties{PL0M: 1, PL0C: 1, PL1M: 1, PL1C: 1, AlphaL1: 1, PL2C: 1, PL2M: 1, PTC: 1}

	if sy.S1L0MemAlloc > 0 {
		p.PL0M = math.Min(float64(d.RegsPerThread)/sy.S1L0MemAlloc, 1)
		// The paper defines P_{l0,c} = 1 + S2/S1 ("the bigger, the higher
		// computing efficiency") as an unbounded bonus. We normalise it by
		// the compute-to-alloc ratio at which the device becomes compute
		// bound (peak FLOPs per transferred word), keeping the term in
		// (0, 1] so U_p stays a true utilisation.
		rho := 1 + d.PeakFLOPS/d.PeakBW*4
		p.PL0C = math.Min(1, (1+sy.S2L0CompCount/sy.S1L0MemAlloc)/rho)
	}
	if sy.S3L1MemAlloc > 0 {
		p.PL1M = math.Min(float64(d.SharedPerBlock)/sy.S3L1MemAlloc, 1)
	}
	// sch_l1 = ceil(S4 / n_l1): warps per block; quantised by the warp
	// schedulers that issue concurrently.
	schL1 := math.Ceil(sy.S4L1ParaInfo / float64(d.WarpSize))
	p.PL1C = quant(schL1, float64(d.WarpSchedulers))
	p.AlphaL1 = sy.S4L1ParaInfo / (schL1 * float64(d.WarpSize))
	p.PL2C = quant(sy.S6L2ParaInfo, float64(d.NumSMs))
	p.PL2M = quant(sy.S7L2TransDim, float64(d.Transaction))
	if lw.Sched.TensorCore {
		p.PTC = a.tensorCoreUtil(lw)
	}
	return p
}

// tensorCoreUtil scores how well the block tile feeds wmma fragments:
// every warp should own at least one 16x16 fragment pair and the
// shared-resident reduction extent should cover a fragment K step.
func (a *Analyzer) tensorCoreUtil(lw *schedule.Lowered) float64 {
	w := float64(a.Dev.WMMA)
	if w == 0 {
		return 0.25 // wmma on a device without TensorCores: heavy penalty
	}
	s := lw.Sched
	n := len(s.SpatialTiles)
	if n < 2 || len(s.ReduceTiles) == 0 {
		return 0.5
	}
	mTile := float64(s.RegTile(n-2) * s.SpatialTiles[n-2][schedule.LvlThread])
	nTile := float64(s.RegTile(n-1) * s.SpatialTiles[n-1][schedule.LvlThread])
	kInner := 1.0
	for d := range s.ReduceTiles {
		kInner *= float64(s.ReduceInner(d))
	}
	warps := math.Max(1, math.Ceil(float64(lw.ThreadsPerBlock)/float64(a.Dev.WarpSize)))
	frags := (mTile / w) * (nTile / w)
	util := math.Min(1, frags/warps) * math.Min(1, kInner/w)
	if util < 0.05 {
		util = 0.05
	}
	return util
}

// Utilization returns the estimated fraction of peak compute (Up/Tp) and
// peak bandwidth (Um/Tm) as products of the penalty terms, honouring the
// ablation configuration.
func (a *Analyzer) Utilization(p Penalties) (up, um float64) {
	up, um = 1, 1
	if !a.Cfg.DisableComputePenalties {
		up = p.PL0C * p.PL1C * p.AlphaL1 * p.PL2C * p.PTC
	}
	if !a.Cfg.DisableMemoryPenalties {
		um = p.PL0M * p.PL1M * p.PL2M
	}
	return up, um
}

// EstimateLatency is Eq. 1: per-statement compute and memory latencies
// against the penalised peaks, summed over the program. The value is a
// draft-model score in pseudo-seconds — meaningful for ranking schedules
// of one task, not as wall-clock.
func (a *Analyzer) EstimateLatency(lw *schedule.Lowered) float64 {
	d := a.Dev
	p := a.Penalties(lw)
	up, um := a.Utilization(p)

	peak := d.PeakFLOPS
	if lw.Sched.TensorCore && d.PeakTensorF > 0 {
		peak = d.PeakTensorF
	}
	uP := peak * up
	uM := d.PeakBW * um

	wordBytes := float64(lw.Task.Precision.Bytes())
	var total float64
	for i := range lw.Stmts {
		st := &lw.Stmts[i]
		if st.Flops > 0 {
			total += st.Flops / uP
		}
		if st.MoveWords > 0 && (st.From == schedule.L2 || st.To == schedule.L2) {
			total += st.MoveWords * wordBytes / uM
		}
	}
	return total * a.overflowFactor(lw)
}

// overflowFactor punishes schedules that cannot launch on the device —
// shared-memory tiles beyond the block limit or register tiles far beyond
// the spill horizon. The piecewise P_{l*,m} penalties degrade such
// programs linearly; the cubic term below keeps them out of the drafted
// candidate set entirely, as an unbuildable program would be on hardware.
func (a *Analyzer) overflowFactor(lw *schedule.Lowered) float64 {
	d := a.Dev
	wordBytes := float64(lw.Task.Precision.Bytes())
	f := 1.0
	if shared := lw.SharedPerBlock * wordBytes / 4; shared > float64(d.SharedPerBlock) {
		r := shared / float64(d.SharedPerBlock)
		f *= r * r * r
	}
	if regs := lw.RegsPerThread * wordBytes / 4; regs > 2*float64(d.RegsPerThread) {
		r := regs / (2 * float64(d.RegsPerThread))
		f *= r * r
	}
	return f
}

// Score is the hardware-fitness objective the LSE maximises. It runs once
// per drafted candidate — thousands of times a round — and is pure
// arithmetic over the lowered program.
//
//pruner:hotpath
func (a *Analyzer) Score(lw *schedule.Lowered) float64 {
	return -a.EstimateLatency(lw)
}

package main

import (
	"context"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"pruner"
	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/search"
	"pruner/internal/tuner"
)

// traceCap holds every span of one traced operation (a round is ~8
// spans, an operation a few dozen rounds) so the ring never evicts.
const traceCap = 1 << 14

// tracer times one traced operation's layer boundaries from outside the
// program. It owns the Observer the operation is armed with — so the
// engine's own tuner.* and costmodel.* spans land next to the
// decorators' spans — and the exact counts the decorators take.
type tracer struct {
	ob      *pruner.Observer
	session int // index of the operation within the run, stamped on its spans

	requested, returned       int // search: batch sizes asked for / proposed
	predictCalls, predictRows int
	fitCalls, fitVisits       int
	// measure: counted on the engine's measurement goroutine
	batches, schedules, valid, failedBatches atomic.Int64
}

func newTracer(session int) *tracer {
	return &tracer{ob: pruner.NewObserver(traceCap), session: session}
}

// spans returns the operation's spans, each stamped with its session.
func (t *tracer) spans() []obs.Span {
	spans := t.ob.Sink().Snapshot()
	for i := range spans {
		spans[i].Attrs = append(spans[i].Attrs, obs.Int("session", t.session))
	}
	return spans
}

// counts writes the decorators' exact counts into an operation's layer
// observations.
func (t *tracer) counts(observe func(name string, v float64)) {
	observe("search.batch_fill", ratio(float64(t.returned), float64(t.requested)))
	observe("search.valid_share", ratio(float64(t.valid.Load()), float64(t.schedules.Load())))
	observe("costmodel.predict_calls", float64(t.predictCalls))
	observe("costmodel.predict_rows", float64(t.predictRows))
	observe("costmodel.fit_calls", float64(t.fitCalls))
	observe("costmodel.fit_sample_visits", float64(t.fitVisits))
	observe("measure.batches", float64(t.batches.Load()))
	observe("measure.schedules", float64(t.schedules.Load()))
	observe("measure.failed_batches", float64(t.failedBatches.Load()))
	observe("measure.failover_share", 0) // in-process: nothing to fail over to
}

// policy decorates a search.Policy with a search.next_batch span.
func (t *tracer) policy(p search.Policy) search.Policy { return &tracedPolicy{Policy: p, t: t} }

type tracedPolicy struct {
	search.Policy
	t *tracer
}

func (p *tracedPolicy) NextBatch(ctx *search.Context, n int) []*schedule.Schedule {
	sp := p.t.ob.Trace().Start("search.next_batch", obs.String("parent", "tuner.plan"), obs.Int("requested", n))
	out := p.Policy.NextBatch(ctx, n)
	sp.End(obs.Int("returned", len(out)))
	p.t.requested += n
	p.t.returned += len(out)
	return out
}

// SpecBudget forwards search.SpecBudgeter, so an adaptive engine reads
// the wrapped policy's draft budget (0, the engine's own default for a
// policy without one, otherwise).
func (p *tracedPolicy) SpecBudget() int {
	if sb, ok := p.Policy.(search.SpecBudgeter); ok {
		return sb.SpecBudget()
	}
	return 0
}

// model decorates a costmodel.Model with exact work counts. Its spans
// are the costmodel.predict / costmodel.fit spans the model itself
// records once the engine hands it the Observer, which is why the
// optional wiring interfaces are forwarded rather than absorbed.
func (t *tracer) model(m costmodel.Model) costmodel.Model { return &tracedModel{Model: m, t: t} }

type tracedModel struct {
	costmodel.Model
	t *tracer
}

func (m *tracedModel) Predict(task *ir.Task, schs []*schedule.Schedule) []float64 {
	m.t.predictCalls++
	m.t.predictRows += len(schs)
	return m.Model.Predict(task, schs)
}

func (m *tracedModel) Fit(recs []costmodel.Record, opt costmodel.FitOptions) costmodel.FitReport {
	rep := m.Model.Fit(recs, opt)
	m.t.fitCalls++
	m.t.fitVisits += rep.SampleVisits
	return rep
}

func (m *tracedModel) SetPool(p *parallel.Pool) {
	if u, ok := m.Model.(costmodel.PoolUser); ok {
		u.SetPool(p)
	}
}

func (m *tracedModel) SetMemo(memo *schedule.Memo) {
	if u, ok := m.Model.(costmodel.MemoUser); ok {
		u.SetMemo(memo)
	}
}

func (m *tracedModel) SetObserver(o *obs.Observer) {
	if u, ok := m.Model.(costmodel.ObsUser); ok {
		u.SetObserver(o)
	}
}

// measurer decorates a measure.Measurer with a measure.batch span: the
// time a batch really took, where the engine's tuner.measure span is
// dispatch-to-commit.
func (t *tracer) measurer(m measure.Measurer) measure.Measurer {
	return &tracedMeasurer{Measurer: m, t: t}
}

type tracedMeasurer struct {
	measure.Measurer
	t *tracer
}

func (m *tracedMeasurer) Measure(ctx context.Context, req measure.Request) ([]measure.Result, error) {
	sp := m.t.ob.Trace().Start("measure.batch", obs.String("parent", "tuner.measure"), obs.Int("batch", len(req.Batch)))
	res, err := m.Measurer.Measure(ctx, req)
	sp.End(obs.Bool("err", err != nil))
	m.t.batches.Add(1)
	m.t.schedules.Add(int64(len(req.Batch)))
	if err != nil {
		m.t.failedBatches.Add(1)
	}
	for _, r := range res {
		if r.Valid {
			m.t.valid.Add(1)
		}
	}
	return res, err
}

// progressRecorder is the Config.Progress decorator: it stamps every committed round
// with the wall clock, which the engine itself never reads.
func progressRecorder(start time.Time, rounds *[]roundSample) func(tuner.ProgressEvent) {
	best := map[string]float64{}
	return func(ev tuner.ProgressEvent) {
		prev, seen := best[ev.TaskID]
		best[ev.TaskID] = ev.TaskBest
		*rounds = append(*rounds, roundSample{
			wall:     time.Since(start).Seconds(),
			sim:      ev.SimSeconds,
			latMS:    ev.WorkloadLat * 1e3,
			inFlight: ev.InFlight,
			improved: !seen || ev.TaskBest < prev,
		})
	}
}

// spanTimes reduces spans to per-layer seconds: the sum of each span
// name, plus the nesting a layer's self time needs —
//
//   - "costmodel.predict in tuner.plan" and "costmodel.fit in
//     tuner.commit": the child time a plan or commit span covers (a
//     warm-started session's priming fit runs before round 0, outside
//     any commit);
//   - "tuner.measure_wait": the time some batch was out being measured
//     (the union of the tuner.measure spans) while the session goroutine
//     was in neither a plan nor a commit span, i.e. really blocked on
//     the backend. Under pipelining most of a measure span overlaps the
//     next round's plan, so the span sum alone overstates it.
func spanTimes(spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	byName := map[string][]obs.Span{}
	for _, sp := range spans {
		out[sp.Name] += float64(sp.End-sp.Start) / 1e9
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, s := range byName {
		sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	}
	// Plan and commit spans are sequential on the session goroutine, so
	// sorted by Start they are also disjoint and sorted by End.
	plan, commit := byName["tuner.plan"], byName["tuner.commit"]
	busy := append(append([]obs.Span(nil), plan...), commit...)
	sort.Slice(busy, func(i, j int) bool { return busy[i].Start < busy[j].Start })
	out["costmodel.predict in tuner.plan"] = float64(covered(byName["costmodel.predict"], plan)) / 1e9
	out["costmodel.fit in tuner.commit"] = float64(covered(byName["costmodel.fit"], commit)) / 1e9
	var waiting []obs.Span // the union of the measure spans, as disjoint pieces
	var end int64
	for _, w := range byName["tuner.measure"] {
		if lo := max(w.Start, end); lo < w.End {
			waiting = append(waiting, obs.Span{Start: lo, End: w.End})
			end = w.End
		}
	}
	var total int64
	for _, w := range waiting {
		total += w.End - w.Start
	}
	out["tuner.measure_wait"] = float64(total-covered(waiting, busy)) / 1e9
	return out
}

// covered is the total time of xs that falls inside the cover spans,
// which must be disjoint and sorted by Start.
func covered(xs, cover []obs.Span) int64 {
	var ns int64
	for _, x := range xs {
		i := sort.Search(len(cover), func(i int) bool { return cover[i].End > x.Start })
		for ; i < len(cover) && cover[i].Start < x.End; i++ {
			ns += min(cover[i].End, x.End) - max(cover[i].Start, x.Start)
		}
	}
	return ns
}

// toTarget is the first committed round at or under the target latency:
// its wall-clock and simulated time, or the last round's and false.
func toTarget(rounds []roundSample, targetMS float64) (wall, sim float64, reached bool) {
	for _, r := range rounds {
		if r.latMS <= targetMS {
			return r.wall, r.sim, true
		}
	}
	if n := len(rounds); n > 0 {
		return rounds[n-1].wall, rounds[n-1].sim, false
	}
	return 0, 0, false
}

// quantile is the q-quantile of xs by linear interpolation (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean, the average for latencies of different
// sessions (ratios between sessions matter, not differences).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package tuner

import "pruner/internal/obs"

// Metric names the tuning engine exports, shared with scrape tests and
// the serving daemon's documentation.
const (
	// MetricStageSeconds is a histogram of per-stage engine latency,
	// labelled stage=plan|measure|commit|fit_wait. fit_wait is the time
	// the session goroutine blocks joining an online fit that ran beside
	// the next draft (inside plan, or before a commit or the session's
	// end): near zero when the overlap hides the fit.
	MetricStageSeconds = "pruner_tuner_stage_seconds"
	// MetricRoundSeconds is a histogram of whole-round latency (plan
	// dispatch to commit completion; overlapping under pipelining).
	MetricRoundSeconds = "pruner_tuner_round_seconds"
	// MetricVerifyBatch is a histogram of verify-set sizes — the number
	// of candidates the policy promoted to measurement each round.
	MetricVerifyBatch = "pruner_tuner_verify_batch_size"
	// MetricRounds counts committed rounds.
	MetricRounds = "pruner_tuner_rounds_total"
	// MetricTrials counts committed measurements (warm-start excluded).
	MetricTrials = "pruner_tuner_trials_total"
	// MetricInFlight gauges the pipeline window occupancy at the last
	// commit (1 on the serial path).
	MetricInFlight = "pruner_tuner_inflight_batches"
	// MetricCalibError is a histogram of the adaptive controller's
	// smoothed per-round rank error (0 perfect, 0.5 random); only
	// populated when Options.AdaptBudget is set.
	MetricCalibError = "pruner_tuner_calibration_error"
	// MetricVerifyBudget / MetricDraftBudget / MetricTargetDepth gauge
	// the controller's decisions at the last committed round: the
	// measured-batch bound, the LSE |S_spec| handed to the policy, and
	// the pipeline-window bound. Adaptive sessions only.
	MetricVerifyBudget = "pruner_tuner_verify_budget"
	MetricDraftBudget  = "pruner_tuner_draft_budget"
	MetricTargetDepth  = "pruner_tuner_target_depth"
)

// engineObs is the round engine's prepared instrument set. It is built
// unconditionally — under a nil Observer every instrument is nil (their
// methods no-op) and the clock is the no-op clock — so the engine's hot
// path instruments without branching on whether anyone is watching.
type engineObs struct {
	clock obs.Clock
	tr    *obs.Tracer

	planSeconds    *obs.Histogram
	measureSeconds *obs.Histogram
	commitSeconds  *obs.Histogram
	fitWaitSeconds *obs.Histogram
	roundSeconds   *obs.Histogram
	verifyBatch    *obs.Histogram
	rounds         *obs.Counter
	trials         *obs.Counter
	inFlight       *obs.Gauge
	calibError     *obs.Histogram
	verifyBudget   *obs.Gauge
	draftBudget    *obs.Gauge
	targetDepth    *obs.Gauge
}

func newEngineObs(o *obs.Observer) engineObs {
	r := o.Reg()
	stage := r.HistogramVec(MetricStageSeconds,
		"Tuning engine stage latency by stage (plan, measure, commit, fit_wait: blocked joining an online fit).", nil, "stage")
	return engineObs{
		clock:          o.Clock(),
		tr:             o.Trace(),
		planSeconds:    stage.With("plan"),
		measureSeconds: stage.With("measure"),
		commitSeconds:  stage.With("commit"),
		fitWaitSeconds: stage.With("fit_wait"),
		roundSeconds: r.Histogram(MetricRoundSeconds,
			"Whole-round latency from plan dispatch to commit.", nil),
		verifyBatch: r.Histogram(MetricVerifyBatch,
			"Candidates promoted to measurement per round.", obs.SizeBuckets),
		rounds: r.Counter(MetricRounds, "Committed tuning rounds."),
		trials: r.Counter(MetricTrials, "Committed measurements (warm-start excluded)."),
		inFlight: r.Gauge(MetricInFlight,
			"Measurement batches in flight at the last commit."),
		calibError: r.Histogram(MetricCalibError,
			"Smoothed predicted-vs-measured rank error per committed round (adaptive sessions).",
			[]float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.75}),
		verifyBudget: r.Gauge(MetricVerifyBudget,
			"Adaptive verify/measure batch bound at the last committed round."),
		draftBudget: r.Gauge(MetricDraftBudget,
			"Adaptive LSE draft budget (|S_spec|) at the last committed round."),
		targetDepth: r.Gauge(MetricTargetDepth,
			"Adaptive pipeline-window bound at the last committed round."),
	}
}

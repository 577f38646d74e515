package tuner

import (
	"context"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/parallel"
	"pruner/internal/search"
)

// tuneAt runs a fixed-seed Pruner session on the given pool (nil: the
// process pool). The model is rebuilt per call: Fit mutates
// it, so sharing one across runs would leak state between the compared
// sessions.
func tuneAt(pool *parallel.Pool) *Result {
	return Tune(device.T4, twoTasks(), Options{
		Trials:      60,
		BatchSize:   10,
		Policy:      search.NewPrunerPolicy(),
		Model:       costmodel.NewPaCM(3),
		OnlineTrain: true,
		Seed:        9,
		Pool:        pool,
	})
}

// TestTuneDeterministicAcrossParallelism is the parallel runtime's
// contract: the same Seed yields a bitwise-identical Result whether the
// session runs serially or on 8 workers, because every random draw comes
// from a task-owned (or scheduler-owned) stream on the serial path and
// workers evaluate only pure functions.
func TestTuneDeterministicAcrossParallelism(t *testing.T) {
	equalResults(t, "P=1 vs P=8", tuneAt(parallel.New(1)), tuneAt(parallel.New(8)))
}

// equalResults is the bitwise-reproducibility assertion shared by the
// determinism tests.
func equalResults(t *testing.T, label string, serial, wide *Result) {
	t.Helper()
	if len(serial.Curve) != len(wide.Curve) {
		t.Fatalf("%s: curve length differs: %d vs %d", label, len(serial.Curve), len(wide.Curve))
	}
	for i := range serial.Curve {
		if serial.Curve[i] != wide.Curve[i] {
			t.Fatalf("%s: curve[%d] differs: %+v vs %+v", label, i, serial.Curve[i], wide.Curve[i])
		}
	}
	if serial.FinalLatency != wide.FinalLatency || serial.Clock != wide.Clock || serial.Warm != wide.Warm {
		t.Fatalf("%s: summary differs: lat %g vs %g, warm %d vs %d, clock %+v vs %+v", label,
			serial.FinalLatency, wide.FinalLatency, serial.Warm, wide.Warm, serial.Clock, wide.Clock)
	}
	if len(serial.Records) != len(wide.Records) {
		t.Fatalf("%s: record count differs: %d vs %d", label, len(serial.Records), len(wide.Records))
	}
	for i := range serial.Records {
		a, b := serial.Records[i], wide.Records[i]
		if a.Task.ID != b.Task.ID || a.Latency != b.Latency ||
			a.Sched.Fingerprint() != b.Sched.Fingerprint() {
			t.Fatalf("%s: record %d differs: {%s %g} vs {%s %g}",
				label, i, a.Task.ID, a.Latency, b.Task.ID, b.Latency)
		}
	}
	if len(serial.Best) != len(wide.Best) {
		t.Fatalf("%s: best map size differs: %d vs %d", label, len(serial.Best), len(wide.Best))
	}
	for id, a := range serial.Best {
		b, ok := wide.Best[id]
		if !ok {
			t.Fatalf("%s: task %s missing from parallel result", label, id)
		}
		if a.Latency != b.Latency {
			t.Fatalf("%s: task %s best latency differs: %g vs %g", label, id, a.Latency, b.Latency)
		}
		if (a.Sched == nil) != (b.Sched == nil) {
			t.Fatalf("%s: task %s best schedule presence differs", label, id)
		}
		if a.Sched != nil && a.Sched.Fingerprint() != b.Sched.Fingerprint() {
			t.Fatalf("%s: task %s best schedule differs: %s vs %s",
				label, id, a.Sched.Fingerprint(), b.Sched.Fingerprint())
		}
	}
}

// TestTuneFittedParamsDeterministicAcrossParallelism extends the
// contract through the parallel training engine: after identical
// sessions at P=1 and P=8, the online-trained cost model's parameters —
// not just the search results downstream of them — are bitwise
// identical, because per-group gradients reduce in fixed group order no
// matter which worker computed them.
func TestTuneFittedParamsDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) (*Result, *costmodel.PaCM) {
		m := costmodel.NewPaCM(3)
		res := Tune(device.T4, twoTasks(), Options{
			Trials:      60,
			BatchSize:   10,
			Policy:      search.NewPrunerPolicy(),
			Model:       m,
			OnlineTrain: true,
			Seed:        9,
			Pool:        parallel.New(parallelism),
		})
		return res, m
	}
	serialRes, serialM := run(1)
	wideRes, wideM := run(8)
	equalResults(t, "fitted P=1 vs P=8", serialRes, wideRes)
	ps, pw := serialM.Params(), wideM.Params()
	for i := range ps {
		for j := range ps[i].Data {
			if ps[i].Data[j] != pw[i].Data[j] {
				t.Fatalf("fitted param %d[%d] differs across parallelism: %g vs %g",
					i, j, ps[i].Data[j], pw[i].Data[j])
			}
		}
	}
}

// TestTuneWarmStartDeterministicAcrossParallelism extends the contract to
// warm-started sessions (the daemon's resume path): a fixed seed with
// identical warm-start records is bitwise reproducible at any parallelism,
// and warm-starting actually changes the session (the warm records are in
// the measured set, so the search proceeds differently than from scratch).
func TestTuneWarmStartDeterministicAcrossParallelism(t *testing.T) {
	warm := tuneAt(parallel.New(1)).Records
	if len(warm) == 0 {
		t.Fatal("no warm records produced")
	}
	run := func(parallelism int) *Result {
		return Tune(device.T4, twoTasks(), Options{
			Trials:      40,
			BatchSize:   10,
			Policy:      search.NewPrunerPolicy(),
			Model:       costmodel.NewPaCM(3),
			OnlineTrain: true,
			Seed:        9,
			Pool:        parallel.New(parallelism),
			WarmStart:   warm,
		})
	}
	serial := run(1)
	if serial.Warm == 0 {
		t.Fatal("warm-start records were not accepted")
	}
	if len(serial.Records) <= serial.Warm {
		t.Fatalf("no new measurements: %d records, %d warm", len(serial.Records), serial.Warm)
	}
	equalResults(t, "warm P=1 vs P=8", serial, run(8))
	equalResults(t, "warm repeat", serial, run(1))
}

// TestTuneContextCancellation pins the cancellation semantics: a
// pre-cancelled context stops before any round and marks the Result
// interrupted; an un-cancelled context changes nothing.
func TestTuneContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Tune(device.T4, twoTasks(), Options{
		Trials:    40,
		BatchSize: 10,
		Policy:    search.NewPrunerPolicy(),
		Model:     costmodel.NewPaCM(3),
		Seed:      9,
		Ctx:       ctx,
	})
	if !res.Interrupted {
		t.Fatal("cancelled session should report Interrupted")
	}
	if len(res.Curve) != 0 || len(res.Records) != 0 {
		t.Fatalf("pre-cancelled session ran %d rounds", len(res.Curve))
	}

	live := Tune(device.T4, twoTasks(), Options{
		Trials:    20,
		BatchSize: 10,
		Policy:    search.NewPrunerPolicy(),
		Model:     costmodel.NewPaCM(3),
		Seed:      9,
		Ctx:       context.Background(),
	})
	if live.Interrupted {
		t.Fatal("live context should not interrupt")
	}
	if len(live.Curve) == 0 {
		t.Fatal("live session produced no rounds")
	}
}

// TestTuneDefaultParallelismMatchesSerial pins the default (NumCPU)
// configuration to the same contract, since that is what the facade runs.
func TestTuneDefaultParallelismMatchesSerial(t *testing.T) {
	def := tuneAt(nil) // a nil Pool is the runtime.NumCPU() process pool
	serial := tuneAt(parallel.New(1))
	if def.FinalLatency != serial.FinalLatency || def.Clock != serial.Clock {
		t.Fatalf("default-parallelism session diverged: lat %g vs %g, clock %+v vs %+v",
			def.FinalLatency, serial.FinalLatency, def.Clock, serial.Clock)
	}
}

package measure

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// sampleRecords is a two-task log (a matmul and a conv2d) whose last
// record is a failed build.
func sampleRecords(t *testing.T) ([]*ir.Task, []costmodel.Record) {
	t.Helper()
	a := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	b := ir.NewConv2D(ir.Conv2DShape{
		N: 1, H: 28, W: 28, CI: 64, CO: 64, KH: 3, KW: 3, Stride: 1, Pad: 1,
	}, ir.FP32, 0)
	rng := rand.New(rand.NewSource(1))
	var recs []costmodel.Record
	for i, task := range []*ir.Task{a, b, a} {
		g := schedule.NewGenerator(task)
		lat := float64(i+1) * 1e-4
		if i == 2 {
			lat = math.Inf(1) // a failed build
		}
		recs = append(recs, costmodel.Record{Task: task, Sched: g.Random(rng), Latency: lat})
	}
	return []*ir.Task{a, b}, recs
}

// TestRecordsRoundtrip pins what a multi-task log adds to
// TestCodecExactRoundTrip's single-task exactness: every line resolves to
// its own task (tiled matmul and conv2d alike), in log order.
func TestRecordsRoundtrip(t *testing.T) {
	tasks, recs := sampleRecords(t)
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Task != recs[i].Task {
			t.Fatalf("record %d resolved to task %s, want %s", i, got[i].Task.ID, recs[i].Task.ID)
		}
		if got[i].Sched.Fingerprint() != recs[i].Sched.Fingerprint() {
			t.Fatalf("record %d schedule mismatch", i)
		}
		if math.Float64bits(got[i].Latency) != math.Float64bits(recs[i].Latency) {
			t.Fatalf("record %d latency %g want %g", i, got[i].Latency, recs[i].Latency)
		}
	}
}

// TestRecordsRoundtripNonFinite is the property test for the failed-build
// sentinel on one long log: the invalid latencies TestCodecExactRoundTrip
// and FuzzCodecRoundTrip's seeds do not carry (-Inf, the smallest
// negative) interleaved with finite positives across the plausible range.
// None may abort the stream — json.Marshal rejects NaN/Inf, so letting
// one through would truncate the log — the invalid ones decode as the
// +Inf failure marker and the rest bitwise.
func TestRecordsRoundtripNonFinite(t *testing.T) {
	task := ir.NewMatMul(64, 64, 64, ir.FP32, 0)
	gen := schedule.NewGenerator(task)
	rng := rand.New(rand.NewSource(7))

	latencies := []float64{math.Inf(-1), -math.SmallestNonzeroFloat64}
	for i := 0; i < 40; i++ {
		latencies = append(latencies, math.Exp(rng.Float64()*20-14)) // ~1e-6s..4e2s
	}
	rng.Shuffle(len(latencies), func(i, j int) { latencies[i], latencies[j] = latencies[j], latencies[i] })
	var recs []costmodel.Record
	for _, lat := range latencies {
		recs = append(recs, costmodel.Record{Task: task, Sched: gen.Random(rng), Latency: lat})
	}

	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatalf("WriteRecords: %v", err)
	}
	got, err := ReadRecords(&buf, []*ir.Task{task})
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d (a non-finite latency truncated the log)", len(got), len(recs))
	}
	for i, want := range latencies {
		lat := got[i].Latency
		if want < 0 {
			if !math.IsInf(lat, 1) {
				t.Errorf("record %d: latency %v should decode as the +Inf failure sentinel, got %g", i, want, lat)
			}
		} else if math.Float64bits(lat) != math.Float64bits(want) {
			t.Errorf("record %d: latency %g, want %g", i, lat, want)
		}
	}
}

func TestReadRecordsSkipsUnknownTasks(t *testing.T) {
	tasks, recs := sampleRecords(t)
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf, tasks[:1]) // only the matmul
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Task.ID != tasks[0].ID {
			t.Fatal("unknown task leaked through")
		}
	}
	if len(got) != 2 {
		t.Fatalf("expected 2 matmul records, got %d", len(got))
	}
}

func TestReadRecordsRejectsCorruptLines(t *testing.T) {
	tasks, _ := sampleRecords(t)
	if _, err := ReadRecords(strings.NewReader("{not json"), tasks); err == nil {
		t.Fatal("corrupt line should error")
	}
	// A structurally valid line with tiles that don't match the task.
	bad := `{"task_id":"` + tasks[0].ID + `","spatial_tiles":[[1,1,1,1,1]],"reduce_tiles":[[128,1,1]],"vector_len":1}`
	if _, err := ReadRecords(strings.NewReader(bad), tasks); err == nil {
		t.Fatal("schedule/task mismatch should error")
	}
}

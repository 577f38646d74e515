package pruner

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// TestSaveLoadModelRoundtrip pins the model-bundle format behind the
// -model-out/-model-in CLI flags: kind plus bitwise-identical weights,
// with architecture-mismatched or unknown bundles rejected.
func TestSaveLoadModelRoundtrip(t *testing.T) {
	train, err := GenerateDataset(context.Background(), T4, []string{"dcgan"}, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := PretrainModel("tlp", train, 2, 3)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveModel(&buf, pre); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != "tlp" || len(got.Weights) != len(pre.Weights) {
		t.Fatalf("bundle mangled: kind %q, %d weights", got.Kind, len(got.Weights))
	}
	for i, w := range pre.Weights {
		for j := range w.Data {
			if w.Data[j] != got.Weights[i].Data[j] {
				t.Fatalf("weight %d[%d] differs after roundtrip", i, j)
			}
		}
	}

	if err := SaveModel(&buf, nil); err == nil {
		t.Error("nil bundle should not save")
	}
	if err := SaveModel(&buf, &Pretrained{Kind: "xgboost", Weights: pre.Weights}); err == nil {
		t.Error("unknown kind should not save")
	}
	if _, err := LoadModel(bytes.NewReader([]byte("not a bundle"))); err == nil {
		t.Error("garbage bundle should not load")
	}
}

func TestLoadNetworkAndNames(t *testing.T) {
	names := NetworkNames()
	if len(names) < 15 {
		t.Fatalf("only %d networks registered", len(names))
	}
	for _, n := range names {
		if _, err := LoadNetwork(n); err != nil {
			t.Errorf("LoadNetwork(%q): %v", n, err)
		}
	}
	if _, err := LoadNetwork("vgg16"); err == nil {
		t.Error("unknown network should error")
	}
}

func TestDeviceByNameFacade(t *testing.T) {
	for _, n := range []string{"a100", "titanv", "orin", "k80", "t4"} {
		if _, err := DeviceByName(n); err != nil {
			t.Errorf("DeviceByName(%q): %v", n, err)
		}
	}
}

func TestTuneRequiresPretrained(t *testing.T) {
	net, _ := LoadNetwork("bert_tiny")
	for _, m := range []Method{MethodMoAPruner, MethodTenSetMLP, MethodTLP, MethodPrunerOffline} {
		if _, err := Tune(A100, net, Config{Method: m, Trials: 10}); err == nil {
			t.Errorf("method %s without pretrained weights should error", m)
		}
	}
	if _, err := Tune(A100, net, Config{Method: "magic", Trials: 10}); err == nil {
		t.Error("unknown method should error")
	}
	// Kind mismatch.
	ds, err := GenerateDataset(context.Background(), K80, []string{"dcgan"}, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := PretrainModel("tensetmlp", ds, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tune(A100, net, Config{Method: MethodMoAPruner, Trials: 10, Pretrained: pre}); err == nil {
		t.Error("pacm method with mlp weights should error")
	}
}

// TestTuneRejectsNegativeBudgets pins Tune's budget check: a negative
// trials budget or batch size errors instead of tuning nothing.
func TestTuneRejectsNegativeBudgets(t *testing.T) {
	net, _ := LoadNetwork("bert_tiny")
	for _, cfg := range []Config{
		{Method: MethodPruner, MaxTasks: 1, Trials: -5},
		{Method: MethodPruner, MaxTasks: 1, Trials: 10, BatchSize: -1},
	} {
		if res, err := Tune(A100, net, cfg); err == nil {
			t.Errorf("trials %d, batch size %d: want an error, got a result at %g s",
				cfg.Trials, cfg.BatchSize, res.FinalLatency)
		}
	}
}

func TestEndToEndFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	net, err := LoadNetwork("bert_tiny")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(A100, net, Config{
		Method:   MethodPruner,
		Trials:   60,
		Seed:     1,
		MaxTasks: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.FinalLatency, 1) || res.FinalLatency <= 0 {
		t.Fatalf("final latency %g", res.FinalLatency)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no tuning curve")
	}

	// Framework baselines are instant and positive.
	for _, fw := range []string{"pytorch", "triton", "tensorrt", "cudalib"} {
		lat, err := FrameworkLatency(fw, A100, net)
		if err != nil || lat <= 0 {
			t.Errorf("FrameworkLatency(%s): %g, %v", fw, lat, err)
		}
	}
	if _, err := FrameworkLatency("onnxruntime", A100, net); err == nil {
		t.Error("unknown framework should error")
	}
}

func TestPretrainAndTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("training")
	}
	train, err := GenerateDataset(context.Background(), T4, []string{"dcgan"}, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, pre, err := PretrainModel("pacm", train, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Kind != "pacm" || len(pre.Weights) == 0 {
		t.Fatal("bad pretrained bundle")
	}
	top1 := EvaluateTopK(m, train, 1)
	if top1 <= 0 || top1 > 1 {
		t.Fatalf("Top-1 on train data = %g, want (0,1]", top1)
	}
	if _, _, err := PretrainModel("xgboost", train, 1, 1); err == nil {
		t.Error("unknown model kind should error")
	}
}

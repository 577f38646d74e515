package pruner

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestMethodSessionsPinned pins the session every facade method assembles:
// one short tuning run per Method, digested over its record log (task,
// schedule fingerprint, latency bits), its final latency and its clock
// total. The offline and MoA methods start from bundles pretrained on K80,
// so a change to how Tune wires a method's policy, model, online training,
// adaptation or weights moves its digest.
func TestMethodSessionsPinned(t *testing.T) {
	net, err := LoadNetwork("bert_tiny")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(context.Background(), K80, []string{"dcgan"}, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	bundles := map[string]*Pretrained{}
	for _, kind := range []string{"pacm", "tensetmlp", "tlp"} {
		_, pre, err := PretrainModel(kind, ds, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		bundles[kind] = pre
	}
	for _, c := range []struct {
		method Method
		bundle string
		digest string
	}{
		{MethodPruner, "", "484fc1ec9aec6367"},
		{MethodMoAPruner, "pacm", "dda46974b8481482"},
		{MethodAnsor, "", "02d65c66ac1d96b9"},
		{MethodTenSetMLP, "tensetmlp", "bd4b85b0d27fe6d2"},
		{MethodTLP, "tlp", "c36525fe7df0bfcc"},
		{MethodPrunerOffline, "pacm", "101e5cc5e816c75f"},
		{MethodMetaSchedule, "", "cff55c505f935d95"},
		{MethodRoller, "", "f526d8cac6ef8c8e"},
	} {
		res, err := Tune(T4, net, Config{
			Method:     c.method,
			Trials:     20,
			Seed:       3,
			MaxTasks:   1,
			Pool:       NewPool(2),
			Pretrained: bundles[c.bundle],
		})
		if err != nil {
			t.Fatalf("%s: %v", c.method, err)
		}
		h := fnv.New64a()
		for _, r := range res.Records {
			fmt.Fprintf(h, "%s,%s,%x;", r.Task.ID, r.Sched.Fingerprint(), math.Float64bits(r.Latency))
		}
		fmt.Fprintf(h, "final:%x;clock:%x", math.Float64bits(res.FinalLatency), math.Float64bits(res.Clock.Total()))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.digest {
			t.Errorf("%s: session digest %s, pinned %s", c.method, got, c.digest)
		}
	}
}

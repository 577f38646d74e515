package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pruner/internal/parallel"
)

// TestFastExperimentsShareTestSplit runs fig14 and table10 side by side
// on one pool: both read the T4 test split, built once for both, and
// each prints what it prints when run alone. It sits in the package's
// first test file, so unless -run leaves other tests out the split is
// built here, by the side-by-side runs.
func TestFastExperimentsShareTestSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment execution")
	}
	ids := []string{"fig14", "table10"}
	run := func(pool *parallel.Pool) []string {
		return parallel.Map(pool, len(ids), func(i int) string {
			var sb strings.Builder
			r, _ := Lookup(ids[i])
			if err := r(Config{Seed: 7, Out: &sb, CacheDir: t.TempDir(), Pool: pool}); err != nil {
				t.Errorf("%s: %v", ids[i], err)
			}
			return sb.String()
		})
	}
	side := run(parallel.New(2))
	alone := run(parallel.New(1))
	for i, id := range ids {
		if side[i] != alone[i] {
			t.Errorf("%s side by side printed\n%s\nalone\n%s", id, side[i], alone[i])
		}
	}
}

// testKey names a fresh artifact per call, so tests share no key with
// each other, with the experiments or with a -count rerun.
var testKeys atomic.Int64

func testKey(t *testing.T) string {
	return fmt.Sprintf("%s-%d", t.Name(), testKeys.Add(1))
}

// TestBuildOnceConcurrentCallers: eight goroutines asking for one key
// while it builds all get the one build.
func TestBuildOnceConcurrentCallers(t *testing.T) {
	key := testKey(t)
	var builds atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	build := func() *int {
		if builds.Add(1) == 1 {
			close(started)
		}
		<-release
		v := 42
		return &v
	}
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = buildOnce(context.Background(), key, build)
		}()
	}
	<-started
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i, p := range got {
		if p != got[0] || *p != 42 {
			t.Fatalf("caller %d got %p (%v), caller 0 got %p", i, p, p, got[0])
		}
	}
	if p := buildOnce(context.Background(), key, build); p != got[0] || builds.Load() != 1 {
		t.Fatal("a later caller rebuilt a kept artifact")
	}
}

// TestBuildOnceDropsCancelledBuild: a build that ends with its run
// cancelled is not kept. Its caller gets what it built; a caller that
// waited on it, and the next caller, build again.
func TestBuildOnceDropsCancelledBuild(t *testing.T) {
	key := testKey(t)
	var builds atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	partial := make(chan string)
	go func() {
		partial <- buildOnce(ctx, key, func() string {
			builds.Add(1)
			close(started)
			<-release
			return "partial"
		})
	}()
	<-started
	waited := make(chan string)
	go func() {
		waited <- buildOnce(context.Background(), key, func() string { builds.Add(1); return "whole" })
	}()
	cancel()
	close(release)
	if got := <-partial; got != "partial" {
		t.Fatalf("the cancelled build's caller got %q", got)
	}
	if got := <-waited; got != "whole" {
		t.Fatalf("a caller of the cancelled build's key got %q, want a build of its own", got)
	}
	if got := buildOnce(context.Background(), key, func() string { builds.Add(1); return "again" }); got != "whole" {
		t.Fatalf("the kept build was not served: got %q", got)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want the cancelled one and one rebuild", n)
	}
}

// TestBuildOnceKeysIndependent: a build blocked on one key does not
// hold up a build of another.
func TestBuildOnceKeysIndependent(t *testing.T) {
	a, b := testKey(t), testKey(t)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		done <- buildOnce(context.Background(), a, func() int { close(started); <-release; return 1 })
	}()
	<-started
	got := make(chan int)
	go func() { got <- buildOnce(context.Background(), b, func() int { return 2 }) }()
	select {
	case v := <-got:
		if v != 2 {
			t.Fatalf("key b built %d", v)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("key b waited on key a's build")
	}
	close(release)
	if v := <-done; v != 1 {
		t.Fatalf("key a built %d", v)
	}
}

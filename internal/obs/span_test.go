package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTrace("job-1", "job")
	q := tr.Root().StartChild("queue")
	q.End()
	run := tr.Root().StartChild("run")
	s1 := run.StartChild("setup")
	s1.Set("model", "m-1")
	s1.End()
	s2 := run.StartChild("search")
	s2.End()
	run.End()
	tr.End()

	snap := tr.Snapshot()
	if snap.Name != "job" || len(snap.Children) != 2 {
		t.Fatalf("bad root: %+v", snap)
	}
	if snap.Children[0].Name != "queue" || snap.Children[1].Name != "run" {
		t.Fatalf("bad child order: %+v", snap.Children)
	}
	rc := snap.Children[1]
	if len(rc.Children) != 2 || rc.Children[0].Name != "setup" || rc.Children[1].Name != "search" {
		t.Fatalf("bad nesting: %+v", rc)
	}
	if rc.Children[0].Attrs["model"] != "m-1" {
		t.Fatalf("missing attr: %+v", rc.Children[0])
	}
	if snap.Running {
		t.Fatal("ended root should not be running")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTrace("job-2", "job")
	ctx := ContextWithSpan(context.Background(), tr.Root())
	ctx2, child := StartSpan(ctx, "phase")
	if child == nil {
		t.Fatal("expected a child span")
	}
	_, grand := StartSpan(ctx2, "subphase")
	grand.End()
	child.End()
	snap := tr.Snapshot()
	if len(snap.Children) != 1 || len(snap.Children[0].Children) != 1 {
		t.Fatalf("context nesting wrong: %+v", snap)
	}
	if snap.Children[0].Children[0].Name != "subphase" {
		t.Fatalf("grandchild name: %+v", snap)
	}

	// No span in context: everything is a safe no-op.
	ctx3, none := StartSpan(context.Background(), "orphan")
	if none != nil || ctx3 != context.Background() {
		t.Fatal("StartSpan without a parent should be inert")
	}
	none.End()
	none.Set("k", "v")
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace("job-3", "job")
	var wg sync.WaitGroup
	const workers, per = 8, 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c := tr.Root().StartChild(fmt.Sprintf("w%d-%d", w, i))
				c.Set("i", i)
				c.End()
			}
		}(w)
	}
	wg.Wait()
	tr.End()
	snap := tr.Snapshot()
	if len(snap.Children) != workers*per {
		t.Fatalf("children = %d, want %d", len(snap.Children), workers*per)
	}
	for _, c := range snap.Children {
		if c.Running || c.DurationMS < 0 {
			t.Fatalf("bad child: %+v", c)
		}
	}
}

func TestSpanChildCapBoundsMemory(t *testing.T) {
	tr := NewTrace("job-4", "job")
	for i := 0; i < MaxChildren+10; i++ {
		c := tr.Root().StartChild("stride")
		c.End() // nil-safe after the cap
	}
	snap := tr.Snapshot()
	if len(snap.Children) != MaxChildren {
		t.Fatalf("children = %d, want cap %d", len(snap.Children), MaxChildren)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
}

// TestSpanCappedStartChildAllocatesNothing pins that a start refused by
// the child cap allocates nothing: a long job drops most of its
// per-stride spans this way.
func TestSpanCappedStartChildAllocatesNothing(t *testing.T) {
	tr := NewTrace("job-5", "job")
	for i := 0; i < MaxChildren; i++ {
		tr.Root().StartChild("stride").End()
	}
	allocs := testing.AllocsPerRun(100, func() {
		if c := tr.Root().StartChild("stride"); c != nil {
			t.Fatal("start past the cap returned a span")
		}
	})
	if allocs != 0 {
		t.Fatalf("capped StartChild allocated %v times per call, want 0", allocs)
	}
}

func TestSpanSetOverwritesExistingKey(t *testing.T) {
	tr := NewTrace("job-6", "job")
	r := tr.Root()
	r.Set("evals", 1)
	r.Set("model", "m-1")
	r.Set("evals", 2)
	tr.End()
	b, err := json.Marshal(tr.Snapshot().Attrs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `{"evals":2,"model":"m-1"}`; got != want {
		t.Fatalf("attrs JSON = %s, want %s", got, want)
	}
}

func TestNilTraceAndSpanSafe(t *testing.T) {
	var tr *Trace
	tr.End()
	_ = tr.Snapshot()
	var s *Span
	s.End()
	s.Set("a", 1)
	if c := s.StartChild("x"); c != nil {
		t.Fatal("nil span should produce nil children")
	}
}

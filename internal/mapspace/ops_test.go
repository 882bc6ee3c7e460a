package mapspace

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

func TestPerturbProducesValidNeighbors(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(31))
		m := s.Random(rng)
		changed := 0
		for i := 0; i < 100; i++ {
			n := s.Perturb(rng, &m)
			if err := s.IsMember(&n); err != nil {
				t.Fatalf("%s: perturbed mapping invalid: %v", s.Prob.Name, err)
			}
			if n.String() != m.String() {
				changed++
			}
			m = n
		}
		if changed < 60 {
			t.Fatalf("%s: only %d/100 perturbations changed the mapping", s.Prob.Name, changed)
		}
	}
}

func TestPerturbDoesNotMutateInput(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(32))
	m := s.Random(rng)
	snapshot := m.String()
	for i := 0; i < 20; i++ {
		s.Perturb(rng, &m)
	}
	if m.String() != snapshot {
		t.Fatal("Perturb mutated its input mapping")
	}
}

func TestCrossoverProducesValidChildren(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(33))
		for i := 0; i < 50; i++ {
			a := s.Random(rng)
			b := s.Random(rng)
			child := s.Crossover(rng, &a, &b)
			if err := s.IsMember(&child); err != nil {
				t.Fatalf("%s: crossover child invalid: %v", s.Prob.Name, err)
			}
		}
	}
}

func TestCrossoverMixesParents(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(34))
	a := s.Random(rng)
	b := s.Random(rng)
	fromA, fromB := 0, 0
	for i := 0; i < 30; i++ {
		child := s.Crossover(rng, &a, &b)
		for dim := range s.Prob.Shape {
			switch child.Chain(dim) {
			case a.Chain(dim):
				fromA++
			case b.Chain(dim):
				fromB++
			}
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Fatalf("crossover never mixed: a=%d b=%d", fromA, fromB)
	}
}

func TestMutateRateZeroIsIdentity(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(35))
	m := s.Random(rng)
	out := s.Mutate(rng, &m, 0)
	if out.String() != m.String() {
		t.Fatal("rate-0 mutation changed the mapping")
	}
}

func TestMutateRateOneChanges(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(36))
	m := s.Random(rng)
	same := 0
	for i := 0; i < 20; i++ {
		out := s.Mutate(rng, &m, 1)
		if err := s.IsMember(&out); err != nil {
			t.Fatalf("mutated mapping invalid: %v", err)
		}
		if out.String() == m.String() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("rate-1 mutation left mapping unchanged %d/20 times", same)
	}
}

// Property: arbitrary chains of operator applications preserve validity.
func TestOperatorChainsStayValidProperty(t *testing.T) {
	s := testSpaceMTTKRP(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := s.Random(rng)
		b := s.Random(rng)
		for step := 0; step < 10; step++ {
			switch rng.Intn(3) {
			case 0:
				a = s.Perturb(rng, &a)
			case 1:
				a = s.Crossover(rng, &a, &b)
			case 2:
				a = s.Mutate(rng, &a, 0.3)
			}
			if s.IsMember(&a) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomMapping(b *testing.B) {
	s := testSpaceCNN(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Random(rng)
	}
}

func BenchmarkPerturb(b *testing.B) {
	s := testSpaceCNN(b)
	rng := rand.New(rand.NewSource(1))
	m := s.Random(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = s.Perturb(rng, &m)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	s := testSpaceCNN(b)
	rng := rand.New(rand.NewSource(1))
	m := s.Random(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec := s.Encode(&m)
		if _, err := s.Decode(vec); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSpaceCNN is the cnn-layer space of the search benchmarks.
func benchSpaceCNN(t testing.TB) *Space {
	t.Helper()
	p, err := loopnest.NewCNNProblem("bench", 16, 256, 256, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(arch.Default(2), p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOperatorAllocations bounds the allocations of the operators every
// search runs per candidate, at their current counts: a mapping costs two
// (one int slab, one float slab) and projection temporaries come from
// pooled scratch. Re-adding a per-call temporary fails here.
func TestOperatorAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random, so scratch reallocates")
	}
	s := benchSpaceCNN(t)
	rng := rand.New(rand.NewSource(5))
	a, b := s.Random(rng), s.Random(rng)
	invalid := a.Clone()
	invalid.Tile[arch.DRAM][2] *= 3 // break the factorization of dim C
	if s.IsMember(&invalid) == nil {
		t.Fatal("test mapping should be invalid")
	}
	cases := []struct {
		name string
		max  float64
		op   func()
	}{
		{"Repair(invalid)", 2, func() { s.Repair(invalid) }},
		{"Crossover", 2, func() { s.Crossover(rng, &a, &b) }},
		{"Mutate", 2, func() { s.Mutate(rng, &a, 1) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(200, c.op); got > c.max {
			t.Errorf("%s: %v allocs per call, want <= %v", c.name, got, c.max)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSharedSpaceConcurrentOperators runs the operators from several
// goroutines on one shared Space: pooled scratch must never leak between
// calls, so each goroutine reproduces its serial results exactly.
func TestSharedSpaceConcurrentOperators(t *testing.T) {
	s := benchSpaceCNN(t)
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		a, b := s.Random(rng), s.Random(rng)
		var out []string
		for i := 0; i < 50; i++ {
			c := s.Crossover(rng, &a, &b)
			c = s.Mutate(rng, &c, 0.3)
			p := s.Perturb(rng, &c)
			d, err := s.Decode(s.Encode(&p))
			if err != nil {
				t.Error(err)
				return nil
			}
			out = append(out, d.String())
			a, b = b, d
		}
		return out
	}
	const workers = 4
	want := make([][]string, workers)
	for w := range want {
		want[w] = run(int64(w))
	}
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run(int64(w))
		}(w)
	}
	wg.Wait()
	for w := range want {
		for i := range want[w] {
			if i >= len(got[w]) || got[w][i] != want[w][i] {
				t.Fatalf("worker %d step %d diverged from its serial run", w, i)
			}
		}
	}
}

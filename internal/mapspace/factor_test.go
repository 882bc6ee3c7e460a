package mapspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDivisors(t *testing.T) {
	cases := map[int][]int{
		1:  {1},
		12: {1, 2, 3, 4, 6, 12},
		13: {1, 13},
		16: {1, 2, 4, 8, 16},
	}
	for n, want := range cases {
		got := Divisors(n)
		if len(got) != len(want) {
			t.Fatalf("Divisors(%d) = %v, want %v", n, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Divisors(%d) = %v, want %v", n, got, want)
			}
		}
	}
	if Divisors(0) != nil {
		t.Fatal("Divisors(0) must be nil")
	}
}

func TestEnumerateChainsSmall(t *testing.T) {
	chains := EnumerateChains(4)
	// Ordered 4-way factorizations of 2^2: C(2+3,3) = 10.
	if len(chains) != 10 {
		t.Fatalf("chains(4) = %d, want 10", len(chains))
	}
	for _, c := range chains {
		if c.Product() != 4 {
			t.Fatalf("chain %v product %d != 4", c, c.Product())
		}
	}
}

func TestEnumerateChainsCount(t *testing.T) {
	// d4(12) = d4(2^2 * 3) = C(5,3) * C(4,3) = 10*4 = 40.
	if got := len(EnumerateChains(12)); got != 40 {
		t.Fatalf("chains(12) = %d, want 40", got)
	}
	if got := countChains(12); got != 40 {
		t.Fatalf("countChains(12) = %v, want 40", got)
	}
}

func TestEnumerateChainsDistinct(t *testing.T) {
	seen := map[FactorChain]bool{}
	for _, c := range EnumerateChains(24) {
		if seen[c] {
			t.Fatalf("duplicate chain %v", c)
		}
		seen[c] = true
	}
}

// Property: every enumerated chain multiplies back to n, and the count
// matches countChains, for arbitrary small n.
func TestEnumerateChainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		chains := EnumerateChains(n)
		if float64(len(chains)) != countChains(n) {
			return false
		}
		for _, c := range chains {
			if c.Product() != n {
				return false
			}
			for _, f := range c {
				if f < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChainLogs(t *testing.T) {
	c := FactorChain{1, 2, 4, 8}
	logs := c.Logs()
	for i, want := range []float64{0, 1, 2, 3} {
		if math.Abs(logs[i]-want) > 1e-12 {
			t.Fatalf("Logs = %v", logs)
		}
	}
}

func TestLogDistance(t *testing.T) {
	c := FactorChain{2, 2, 2, 2}
	d := c.LogDistance([4]float64{1, 1, 1, 1})
	if d != 0 {
		t.Fatalf("distance to self = %v", d)
	}
	d = c.LogDistance([4]float64{0, 1, 1, 1})
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("distance = %v, want 1", d)
	}
}

func TestSmallestPrimeFactor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 9: 3, 15: 3, 49: 7, 97: 97}
	for n, want := range cases {
		if got := smallestPrimeFactor(n); got != want {
			t.Fatalf("spf(%d) = %d, want %d", n, got, want)
		}
	}
}

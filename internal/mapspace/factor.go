package mapspace

import (
	"math"
	"sort"
)

// Divisors returns the positive divisors of n in ascending order.
func Divisors(n int) []int {
	if n < 1 {
		return nil
	}
	var out []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if other := n / d; other != d {
				out = append(out, other)
			}
		}
	}
	sort.Ints(out)
	return out
}

// FactorChain is an ordered 4-way factorization of a dimension size into
// the per-band tile factors (L1 temporal, spatial, L2 temporal, DRAM
// temporal). The product of the four entries equals the dimension size.
type FactorChain [4]int

// Positions within a FactorChain.
const (
	ChainL1 = iota
	ChainSpatial
	ChainL2
	ChainDRAM
)

// Product returns the product of the chain's factors.
func (c FactorChain) Product() int {
	return c[0] * c[1] * c[2] * c[3]
}

// Logs returns the base-2 logarithms of the chain's factors.
func (c FactorChain) Logs() [4]float64 {
	var out [4]float64
	for i, f := range c {
		out[i] = math.Log2(float64(f))
	}
	return out
}

// LogDistance returns the squared Euclidean distance between the chain's
// log2 factors and the desired log2 factors, the metric used by projection
// (paper §4.2: "nearest neighbor valid mappings based on euclidean
// distance").
func (c FactorChain) LogDistance(desired [4]float64) float64 {
	logs := c.Logs()
	return logDistance(&logs, &desired)
}

// logDistance is LogDistance on precomputed chain logs: one subtract,
// square and add per band, in band order, so the result is bit-identical
// whether the logs were just taken or stored by New.
func logDistance(logs, desired *[4]float64) float64 {
	sum := 0.0
	for i := range logs {
		d := logs[i] - desired[i]
		sum += d * d
	}
	return sum
}

// EnumerateChains returns every ordered 4-way factorization of n. The count
// is the multiplicative function ∏ C(e_i+3, 3) over n's prime-power
// exponents — a few hundred entries for the dimension sizes in Table 1.
func EnumerateChains(n int) []FactorChain {
	if n < 1 {
		return nil
	}
	// Every divisor of n/a or n/a/b divides n, so the inner loops filter
	// n's ascending divisors instead of recomputing each remainder's: the
	// same chains in the same order, without a slice and sort per step.
	divs := Divisors(n)
	var out []FactorChain
	for _, a := range divs {
		rem1 := n / a
		for _, b := range divs {
			if b > rem1 {
				break
			}
			if rem1%b != 0 {
				continue
			}
			rem2 := rem1 / b
			for _, c := range divs {
				if c > rem2 {
					break
				}
				if rem2%c == 0 {
					out = append(out, FactorChain{a, b, c, rem2 / c})
				}
			}
		}
	}
	return out
}

// countChains returns the number of ordered 4-way factorizations of n
// without materializing them, used for map-space size estimation.
func countChains(n int) float64 {
	count := 0.0
	for _, a := range Divisors(n) {
		rem1 := n / a
		for _, b := range Divisors(rem1) {
			count += float64(len(Divisors(rem1 / b)))
		}
	}
	return count
}

// smallestPrimeFactor returns the smallest prime dividing n, or 1 for n<=1.
func smallestPrimeFactor(n int) int {
	if n <= 1 {
		return 1
	}
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			return p
		}
	}
	return n
}

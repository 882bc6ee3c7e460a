package mapspace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// allocTolerance absorbs floating-point slop in allocation-sum and
// footprint-fit comparisons.
const allocTolerance = 1e-9

// Space is the mapping space M(a,p) for one accelerator and one problem
// (paper Definition 2.2). It provides the three routines the Mind Mappings
// API requires (Appendix B): Random (getMapping), IsMember, and Project
// (getProjection), plus the perturbation/recombination operators the
// black-box baselines use.
type Space struct {
	Arch arch.Spec
	Prob loopnest.Problem

	// chains holds each dimension's ordered 4-way factorizations and
	// chainLogs their log2 factors (chainLogs[d][i] = chains[d][i].Logs()),
	// so projection scans never take a logarithm. Both are written once by
	// New; a Space is read-only afterwards and safe for concurrent use.
	chains    [][]FactorChain
	chainLogs [][][4]float64
}

// New constructs the map space for the given accelerator and problem,
// pre-enumerating per-dimension tile factorizations. It fails if the
// problem or architecture is invalid, or if even the minimal tiling cannot
// fit the on-chip buffers.
func New(a arch.Spec, p loopnest.Problem) (*Space, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("mapspace: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("mapspace: %w", err)
	}
	s := &Space{Arch: a, Prob: p}
	for _, size := range p.Shape {
		chains := EnumerateChains(size)
		logs := make([][4]float64, len(chains))
		for i, c := range chains {
			logs[i] = c.Logs()
		}
		s.chains = append(s.chains, chains)
		s.chainLogs = append(s.chainLogs, logs)
	}
	min := s.minimalMapping()
	if err := s.IsMember(&min); err != nil {
		return nil, fmt.Errorf("mapspace: even minimal tiling invalid: %w", err)
	}
	return s, nil
}

// NumDims returns the number of problem dimensions.
func (s *Space) NumDims() int { return len(s.Prob.Shape) }

// NumTensors returns the number of tensors in the algorithm.
func (s *Space) NumTensors() int { return len(s.Prob.Algo.Tensors) }

// Chains exposes the pre-enumerated factorization chains of dimension d.
func (s *Space) Chains(d int) []FactorChain { return s.chains[d] }

// FootprintWords returns tensor t's resident footprint in words at an
// on-chip level under mapping m.
func (s *Space) FootprintWords(m *Mapping, level arch.Level, t int) float64 {
	tile := m.CumulativeTile(level)
	return float64(s.Prob.Algo.Tensors[t].Footprint(tile))
}

// footprints returns every tensor's footprint in words at a level, in the
// scratch's fp buffer.
func (s *Space) footprints(sc *scratch, m *Mapping, level arch.Level) []float64 {
	sc.tile = m.CumulativeTileInto(sc.tile, level)
	sc.fp = resize(sc.fp, s.NumTensors())
	for t := range sc.fp {
		sc.fp[t] = float64(s.Prob.Algo.Tensors[t].Footprint(sc.tile))
	}
	return sc.fp
}

// totalFootprint returns the summed tensor footprints at a level.
func (s *Space) totalFootprint(sc *scratch, m *Mapping, level arch.Level) float64 {
	total := 0.0
	for _, fp := range s.footprints(sc, m, level) {
		total += fp
	}
	return total
}

// fitsBuffers reports whether the summed footprints fit the raw capacity of
// both on-chip levels (a necessary condition for any allocation to exist).
func (s *Space) fitsBuffers(sc *scratch, m *Mapping) bool {
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		if s.totalFootprint(sc, m, level) > float64(s.Arch.LevelWords(level))+allocTolerance {
			return false
		}
	}
	return true
}

// IsMember checks mapping validity (paper §4.1.1's isMember): structural
// shape, exact factorization of every dimension, spatial budget,
// permutation validity, allocation bounds, and per-tensor footprint fit
// within the allocated buffer share. A nil error means m ∈ M(a,p).
func (s *Space) IsMember(m *Mapping) error {
	sc := getScratch()
	defer putScratch(sc)
	return s.checkMember(sc, m, true)
}

// isMember is IsMember without building an error message, for the
// operators' hot paths.
func (s *Space) isMember(m *Mapping) bool {
	sc := getScratch()
	defer putScratch(sc)
	return s.checkMember(sc, m, false) == nil
}

// errNotMember is checkMember's failure when no explanation is asked for.
var errNotMember = errors.New("mapspace: not a member")

// checkMember runs the membership checks. With explain false a failure
// returns errNotMember, so rejecting a mapping formats nothing.
func (s *Space) checkMember(sc *scratch, m *Mapping, explain bool) error {
	d := s.NumDims()
	for l := arch.L1; l < arch.NumLevels; l++ {
		if len(m.Tile[l]) != d {
			if !explain {
				return errNotMember
			}
			return fmt.Errorf("mapspace: level %s has %d tile factors, want %d", l, len(m.Tile[l]), d)
		}
		if len(m.Order[l]) != d {
			if !explain {
				return errNotMember
			}
			return fmt.Errorf("mapspace: level %s has %d order entries, want %d", l, len(m.Order[l]), d)
		}
	}
	if len(m.Spatial) != d {
		if !explain {
			return errNotMember
		}
		return fmt.Errorf("mapspace: %d spatial factors, want %d", len(m.Spatial), d)
	}
	for dim := 0; dim < d; dim++ {
		c := m.Chain(dim)
		for _, f := range c {
			if f < 1 {
				if !explain {
					return errNotMember
				}
				return fmt.Errorf("mapspace: dim %s has non-positive factor in %v",
					s.Prob.Algo.DimNames[dim], c)
			}
		}
		if c.Product() != s.Prob.Shape[dim] {
			if !explain {
				return errNotMember
			}
			return fmt.Errorf("mapspace: dim %s factors %v product %d != size %d",
				s.Prob.Algo.DimNames[dim], c, c.Product(), s.Prob.Shape[dim])
		}
	}
	if pes := m.SpatialPEs(); pes > s.Arch.NumPEs {
		if !explain {
			return errNotMember
		}
		return fmt.Errorf("mapspace: spatial product %d exceeds %d PEs", pes, s.Arch.NumPEs)
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		if !isPermutation(m.Order[l], d) {
			if !explain {
				return errNotMember
			}
			return fmt.Errorf("mapspace: level %s order %v is not a permutation", l, m.Order[l])
		}
	}
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		if len(m.Alloc[level]) != nt {
			if !explain {
				return errNotMember
			}
			return fmt.Errorf("mapspace: level %s has %d allocations, want %d",
				level, len(m.Alloc[level]), nt)
		}
		sum := 0.0
		for t, a := range m.Alloc[level] {
			if a < 0 || a > 1 {
				if !explain {
					return errNotMember
				}
				return fmt.Errorf("mapspace: level %s tensor %s allocation %v out of [0,1]",
					level, s.Prob.Algo.Tensors[t].Name, a)
			}
			sum += a
		}
		if sum > 1+allocTolerance {
			if !explain {
				return errNotMember
			}
			return fmt.Errorf("mapspace: level %s allocations sum to %v > 1", level, sum)
		}
		capWords := float64(s.Arch.LevelWords(level))
		for t, fp := range s.footprints(sc, m, level) {
			if fp > m.Alloc[level][t]*capWords+allocTolerance {
				if !explain {
					return errNotMember
				}
				return fmt.Errorf("mapspace: level %s tensor %s footprint %.0f words exceeds allocated %.0f",
					level, s.Prob.Algo.Tensors[t].Name, fp, m.Alloc[level][t]*capWords)
			}
		}
	}
	return nil
}

// isPermutation reports whether p is a permutation of 0..n-1. Up to 64
// entries are tracked in a bitmask, so the common case allocates nothing.
func isPermutation(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	if n <= 64 {
		var seen uint64
		for _, v := range p {
			if v < 0 || v >= n || seen&(1<<v) != 0 {
				return false
			}
			seen |= 1 << v
		}
		return true
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Random returns a uniformly sampled valid mapping (the paper's getMapping;
// §4.1.1 uses uniform random sampling with re-sampling of invalid points).
// After a bounded number of rejected tilings it falls back to the minimal
// mapping, which is always valid.
func (s *Space) Random(rng *rand.Rand) Mapping {
	const maxTries = 64
	sc := getScratch()
	defer putScratch(sc)
	m := s.emptyMapping()
	for try := 0; try < maxTries; try++ {
		s.randomTiling(rng, &m)
		if !s.fitsBuffers(sc, &m) {
			continue
		}
		s.randomOrders(rng, &m)
		s.randomAlloc(sc, rng, &m)
		return m
	}
	min := s.minimalMapping()
	s.randomOrders(rng, &min)
	return min
}

// randomTiling samples per-dimension factor chains under the PE budget
// into m, visiting dimensions in random order so no dimension
// systematically starves the spatial budget.
func (s *Space) randomTiling(rng *rand.Rand, m *Mapping) {
	d := s.NumDims()
	budget := s.Arch.NumPEs
	for _, dim := range rng.Perm(d) {
		// budget stays >= 1, so a spatial-1 chain always qualifies.
		c, _ := s.randomChain(rng, dim, budget)
		m.SetChain(dim, c)
		budget /= c[ChainSpatial]
	}
}

// randomChain draws uniformly among dimension dim's chains whose spatial
// factor fits budget, drawing nothing when none does. It consumes the rng
// exactly as indexing a filtered slice with rng.Intn would.
func (s *Space) randomChain(rng *rand.Rand, dim, budget int) (FactorChain, bool) {
	eligible := 0
	for _, c := range s.chains[dim] {
		if c[ChainSpatial] <= budget {
			eligible++
		}
	}
	if eligible == 0 {
		return FactorChain{}, false
	}
	k := rng.Intn(eligible)
	for _, c := range s.chains[dim] {
		if c[ChainSpatial] <= budget {
			if k == 0 {
				return c, true
			}
			k--
		}
	}
	return FactorChain{}, false // unreachable: k < eligible
}

// randomOrders draws each level's loop order in place, consuming the rng
// exactly as rand.Perm does.
func (s *Space) randomOrders(rng *rand.Rand, m *Mapping) {
	for l := arch.L1; l < arch.NumLevels; l++ {
		perm := m.Order[l]
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
	}
}

// randomAlloc assigns each tensor its required footprint share plus a
// random split of (part of) the remaining capacity, so allocation stays a
// genuinely free programmable attribute while remaining valid.
func (s *Space) randomAlloc(sc *scratch, rng *rand.Rand, m *Mapping) {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		capWords := float64(s.Arch.LevelWords(level))
		shares := s.footprints(sc, m, level)
		sum := 0.0
		for t := range shares {
			shares[t] /= capWords
			sum += shares[t]
		}
		slack := (1 - sum) * rng.Float64()
		weights := resize(sc.surplus, nt)
		sc.surplus = weights
		wsum := 0.0
		for t := range weights {
			weights[t] = rng.Float64() + 1e-6
			wsum += weights[t]
		}
		for t := range shares {
			m.Alloc[level][t] = shares[t] + slack*weights[t]/wsum
		}
	}
}

// emptyMapping returns a mapping shaped for the space with unit tiles,
// identity orders and zero allocations. Its integer attributes share one
// slab and its allocations another (two allocations in all); each view is
// capacity-capped so an append cannot spill into its neighbour.
func (s *Space) emptyMapping() Mapping {
	d, nt := s.NumDims(), s.NumTensors()
	ints := make([]int, (2*int(arch.NumLevels)+1)*d)
	floats := make([]float64, arch.OnChipLevels*nt)
	var m Mapping
	for l := range m.Tile {
		m.Tile[l], ints = ints[:d:d], ints[d:]
		fillOnes(m.Tile[l])
	}
	m.Spatial, ints = ints[:d:d], ints[d:]
	fillOnes(m.Spatial)
	for l := range m.Order {
		m.Order[l], ints = identityPermInto(ints[:d:d]), ints[d:]
	}
	for l := range m.Alloc {
		m.Alloc[l], floats = floats[:nt:nt], floats[nt:]
	}
	return m
}

func fillOnes(p []int) {
	for i := range p {
		p[i] = 1
	}
}

// identityPermInto writes 0..len(p)-1 into p and returns it.
func identityPermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	return p
}

// Minimal returns the always-valid baseline mapping: every loop at DRAM,
// one PE, identity loop orders, footprint-covering allocations. It is a
// convenient deterministic starting point for tests and examples.
func (s *Space) Minimal() Mapping {
	return s.minimalMapping()
}

// minimalMapping places every loop at DRAM (all on-chip tiles of size 1),
// which fits any reasonable buffer configuration; allocations are
// footprint-proportional with the slack spread evenly.
func (s *Space) minimalMapping() Mapping {
	m := s.emptyMapping()
	for dim, size := range s.Prob.Shape {
		m.SetChain(dim, FactorChain{1, 1, 1, size})
	}
	sc := getScratch()
	defer putScratch(sc)
	s.coverAlloc(sc, &m)
	return m
}

// TightenAlloc sets every buffer allocation to exactly its tensor's
// footprint share — the minimum valid (and, under a monotone
// allocation-energy model, cheapest) allocation for the mapping's tiling.
// It returns false when the tiling does not fit raw capacity.
func (s *Space) TightenAlloc(m *Mapping) bool {
	sc := getScratch()
	defer putScratch(sc)
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		capWords := float64(s.Arch.LevelWords(level))
		sum := 0.0
		if len(m.Alloc[level]) != nt {
			m.Alloc[level] = make([]float64, nt)
		}
		for t, fp := range s.footprints(sc, m, level) {
			share := fp / capWords
			m.Alloc[level][t] = share
			sum += share
		}
		if sum > 1+allocTolerance {
			return false
		}
	}
	return true
}

// coverAlloc sets allocations to exactly cover footprints plus an even
// share of the slack. It assumes footprints fit raw capacity and m is
// shaped for the space.
func (s *Space) coverAlloc(sc *scratch, m *Mapping) {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		capWords := float64(s.Arch.LevelWords(level))
		shares := s.footprints(sc, m, level)
		sum := 0.0
		for t := range shares {
			shares[t] /= capWords
			sum += shares[t]
		}
		slack := math.Max(0, 1-sum)
		for t := range shares {
			m.Alloc[level][t] = shares[t] + slack/float64(nt)
		}
	}
}

// repairAlloc projects the mapping's allocations onto the valid region:
// every tensor gets at least its footprint share, surpluses are scaled to
// fit the remaining capacity, and proportions are otherwise preserved. It
// returns false when the tiling's footprints exceed raw capacity (no
// allocation can fix that).
func (s *Space) repairAlloc(sc *scratch, m *Mapping) bool {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		capWords := float64(s.Arch.LevelWords(level))
		shares := s.footprints(sc, m, level)
		sumShares := 0.0
		for t := range shares {
			shares[t] /= capWords
			sumShares += shares[t]
		}
		if sumShares > 1+allocTolerance {
			return false
		}
		if len(m.Alloc[level]) != nt {
			m.Alloc[level] = make([]float64, nt)
		}
		surplus := resize(sc.surplus, nt)
		sc.surplus = surplus
		sumSurplus := 0.0
		for t := range shares {
			surplus[t] = math.Max(0, math.Min(1, m.Alloc[level][t])-shares[t])
			sumSurplus += surplus[t]
		}
		slack := 1 - sumShares
		scale := 1.0
		if sumSurplus > slack && sumSurplus > 0 {
			scale = slack / sumSurplus
		}
		for t := range shares {
			m.Alloc[level][t] = shares[t] + surplus[t]*scale
		}
	}
	return true
}

// SizeLog10 returns log10 of the Cartesian-product upper bound on |M|
// (paper §2.1: |M| = O(∏|P_d|)): factorization choices per dimension,
// loop orders per level, and bank-granular allocations per on-chip level.
func (s *Space) SizeLog10() float64 {
	total := 0.0
	for _, size := range s.Prob.Shape {
		total += math.Log10(countChains(size))
	}
	d := float64(s.NumDims())
	logFact := func(n float64) float64 {
		lg, _ := math.Lgamma(n + 1)
		return lg / math.Ln10
	}
	total += float64(arch.NumLevels) * logFact(d)
	// Allocations at bank granularity: compositions of Banks into
	// NumTensors non-negative parts per level: C(Banks+T-1, T-1).
	b := float64(s.Arch.Banks)
	t := float64(s.NumTensors())
	logBinom := logFact(b+t-1) - logFact(b) - logFact(t-1)
	total += float64(arch.OnChipLevels) * logBinom
	return total
}

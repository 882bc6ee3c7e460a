package mapspace

import (
	"math"
	"sync"

	"mindmappings/internal/arch"
)

// desired captures a possibly-infeasible target point in mapping space:
// continuous log2 tile factors, continuous loop-order rank scores (lower is
// outer), and continuous allocations. Projection turns it into the nearest
// valid Mapping.
type desired struct {
	logs  [][4]float64
	ranks [arch.NumLevels][]float64
	alloc [arch.OnChipLevels][]float64
}

// scratch holds the temporaries of one projection or membership check.
// *Space is shared across goroutines and stays read-only after New, so
// the temporaries come from a pool rather than living on the Space.
type scratch struct {
	des     desired
	floats  []float64 // backing of des.ranks and des.alloc
	idx     []int     // index sorts: dims by desired spatial, tensors by footprint
	tile    []int     // cumulative tile of one level
	fp      []float64 // per-tensor footprints, shares or weights
	surplus []float64 // per-tensor allocation surpluses or random weights
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// resize returns b with length n, reallocating only when its capacity is
// short. The contents are unspecified.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// desiredFor returns the scratch's desired point sized for s, all zeros.
func (sc *scratch) desiredFor(s *Space) *desired {
	d, nt := s.NumDims(), s.NumTensors()
	des := &sc.des
	des.logs = resize(des.logs, d)
	clear(des.logs)
	sc.floats = resize(sc.floats, int(arch.NumLevels)*d+arch.OnChipLevels*nt)
	clear(sc.floats)
	rest := sc.floats
	for l := range des.ranks {
		des.ranks[l], rest = rest[:d:d], rest[d:]
	}
	for l := range des.alloc {
		des.alloc[l], rest = rest[:nt:nt], rest[nt:]
	}
	return des
}

func (s *Space) desiredFrom(sc *scratch, m *Mapping) *desired {
	d := s.NumDims()
	des := sc.desiredFor(s)
	structurallyComplete := len(m.Spatial) == d
	for l := range m.Tile {
		if len(m.Tile[l]) != d {
			structurallyComplete = false
		}
	}
	for dim := 0; dim < d && structurallyComplete; dim++ {
		c := m.Chain(dim)
		for i, f := range c {
			if f < 1 {
				f = 1
			}
			des.logs[dim][i] = math.Log2(float64(f))
		}
	}
	if !structurallyComplete {
		// Incomplete mappings project as if they requested everything at
		// DRAM (the minimal tiling).
		for dim := 0; dim < d; dim++ {
			des.logs[dim][ChainDRAM] = math.Log2(float64(s.Prob.Shape[dim]))
		}
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		if isPermutation(m.Order[l], d) {
			for pos, dim := range m.Order[l] {
				des.ranks[l][dim] = float64(pos)
			}
		} // else: all-zero ranks decode to the identity order
	}
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		for t := range des.alloc[level] {
			if t < len(m.Alloc[level]) {
				des.alloc[level][t] = m.Alloc[level][t]
			}
		}
	}
	return des
}

// Project maps an arbitrary (possibly invalid) mapping onto the nearest
// valid member of the space — the paper's getProjection routine, used after
// every gradient step ("we calculate nearest neighbor valid mappings based
// on euclidean distance ... a standard approach, often referred to as
// Projected Gradient Descent", §4.2). Distances are measured in log2 space
// for tile factors, rank space for loop orders, and fraction space for
// allocations.
func (s *Space) Project(m Mapping) Mapping {
	sc := getScratch()
	defer putScratch(sc)
	out := s.emptyMapping()
	s.projectDesired(sc, s.desiredFrom(sc, &m), &out)
	return out
}

// Reproject adapts a mapping solved for a different problem shape of the
// same algorithm into this space: the donor's on-chip structure (L1,
// spatial, and L2 tile logs), loop orders, and buffer allocations become
// the desired point, while each dimension's DRAM factor is re-targeted so
// the chain covers this space's shape; projection then snaps the result
// to the nearest valid member. This is the atlas nearest-neighbor warm
// start — good mappings transfer across similar shapes because the
// on-chip blocking, not the outer DRAM trip count, is what the search
// spent its budget discovering.
func (s *Space) Reproject(m *Mapping) Mapping {
	sc := getScratch()
	defer putScratch(sc)
	des := s.desiredFrom(sc, m)
	for dim := 0; dim < s.NumDims(); dim++ {
		onchip := des.logs[dim][ChainL1] + des.logs[dim][ChainSpatial] + des.logs[dim][ChainL2]
		dram := math.Log2(float64(s.Prob.Shape[dim])) - onchip
		if dram < 0 {
			dram = 0
		}
		des.logs[dim][ChainDRAM] = dram
	}
	out := s.emptyMapping()
	s.projectDesired(sc, des, &out)
	return out
}

// Repair returns m unchanged when it is already valid, otherwise its
// projection. All mutation-style operators funnel through this.
func (s *Space) Repair(m Mapping) Mapping {
	if s.isMember(&m) {
		return m
	}
	return s.Project(m)
}

// repairOwned is Repair for a mapping the caller owns outright, such as a
// fresh clone: projection overwrites its storage instead of allocating a
// new mapping. A structurally incomplete m gets fresh storage.
func (s *Space) repairOwned(m *Mapping) {
	sc := getScratch()
	defer putScratch(sc)
	if s.checkMember(sc, m, false) == nil {
		return
	}
	des := s.desiredFrom(sc, m)
	if !s.shaped(m) {
		*m = s.emptyMapping()
	}
	s.projectDesired(sc, des, m)
}

// shaped reports whether m has this space's attribute lengths, so that
// projection can write every attribute in place.
func (s *Space) shaped(m *Mapping) bool {
	d, nt := s.NumDims(), s.NumTensors()
	if len(m.Spatial) != d {
		return false
	}
	for l := range m.Tile {
		if len(m.Tile[l]) != d || len(m.Order[l]) != d {
			return false
		}
	}
	for l := range m.Alloc {
		if len(m.Alloc[l]) != nt {
			return false
		}
	}
	return true
}

// projectDesired writes the valid mapping nearest des into m, which must
// be shaped for the space; every attribute is overwritten.
func (s *Space) projectDesired(sc *scratch, des *desired, m *Mapping) {
	// 1. Per-dimension nearest factor chains under the PE budget. Greedy in
	// descending desired spatial so large parallelism requests are honored
	// first (stable: ties keep dimension order).
	d := s.NumDims()
	dims := identityPermInto(resize(sc.idx, d))
	sc.idx = dims
	insertionSort(dims, func(a, b int) bool {
		return des.logs[a][ChainSpatial] > des.logs[b][ChainSpatial]
	})
	budget := s.Arch.NumPEs
	for _, dim := range dims {
		c := s.nearestChain(dim, &des.logs[dim], budget)
		m.SetChain(dim, c)
		budget /= c[ChainSpatial]
	}

	// 2. Shrink tiles until footprints fit raw buffer capacity.
	s.shrinkToFit(sc, m, des.logs)

	// 3. Loop orders: argsort of the rank scores, ties broken by dimension
	// index for determinism.
	for l := arch.L1; l < arch.NumLevels; l++ {
		ranksToPerm(m.Order[l], des.ranks[l])
	}

	// 4. Allocations: clamp the request and project onto the feasible
	// region (footprint floor per tensor, per-level sum at most 1).
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		for t := range m.Alloc[level] {
			m.Alloc[level][t] = clamp01(des.alloc[level][t])
		}
	}
	if !s.repairAlloc(sc, m) {
		// shrinkToFit guarantees feasibility; reaching here means a logic
		// error, so fail safe with the always-valid minimal mapping.
		*m = s.minimalMapping()
	}
}

// nearestChain returns dimension dim's chain minimizing the squared log2
// distance to desired among chains whose spatial factor is at most
// spatialCap (>= 1). Distances come from the chain logs precomputed at New,
// with FactorChain.LogDistance's arithmetic, so they are bit-identical to
// it; ties keep the first chain in enumeration order. Desired logs are
// finite, so the spatial-1 chains always qualify.
func (s *Space) nearestChain(dim int, desired *[4]float64, spatialCap int) FactorChain {
	chains, logs := s.chains[dim], s.chainLogs[dim]
	best := 0
	bestDist := math.Inf(1)
	for i := range chains {
		if chains[i][ChainSpatial] > spatialCap {
			continue
		}
		if dist := logDistance(&logs[i], desired); dist < bestDist {
			bestDist = dist
			best = i
		}
	}
	return chains[best]
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ranksToPerm writes into perm the permutation (outermost first) that
// orders the per-dimension rank scores: lower scores go outer, NaN counts
// as 0, and ties resolve by dimension index.
func ranksToPerm(perm []int, ranks []float64) {
	identityPermInto(perm)
	insertionSort(perm, func(a, b int) bool {
		ra, rb := ranks[a], ranks[b]
		if math.IsNaN(ra) {
			ra = 0
		}
		if math.IsNaN(rb) {
			rb = 0
		}
		return ra < rb
	})
}

// insertionSort stably orders the indices in idx by less, which compares
// two index values. On the few dims or tensors of a mapping it makes
// exactly the comparisons and swaps sort.SliceStable would (which
// insertion-sorts runs of up to 20), without reflection or allocation.
func insertionSort(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// bandProduct returns the cumulative tile factor of dimension dim at the
// given on-chip level (L1: the L1 factor; L2: L1·spatial·L2).
func bandProduct(m *Mapping, level arch.Level, dim int) int {
	p := m.Tile[arch.L1][dim]
	if level >= arch.L2 {
		p *= m.Spatial[dim] * m.Tile[arch.L2][dim]
	}
	return p
}

// shrinkToFit reduces tile factors, nearest-first relative to the desired
// logs, until the summed tensor footprints fit the raw capacity of both
// on-chip levels. Termination: every replacement strictly reduces the
// offending cumulative tile factor, which is bounded below by 1, and the
// all-ones tiling fits by construction of the Space.
func (s *Space) shrinkToFit(sc *scratch, m *Mapping, logs [][4]float64) {
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		capWords := float64(s.Arch.LevelWords(level))
		for s.totalFootprint(sc, m, level) > capWords+allocTolerance {
			if !s.shrinkOnce(sc, m, level, logs) {
				// Nothing left to shrink at this level; force minimal
				// on-chip tiles for every dimension as a final safety net.
				for dim, size := range s.Prob.Shape {
					m.SetChain(dim, FactorChain{1, 1, 1, size})
				}
				break
			}
		}
	}
}

// shrinkOnce picks the dimension that contributes the largest cumulative
// tile factor at the level among dimensions relevant to the largest-
// footprint tensor, and replaces its chain with the nearest one having a
// strictly smaller cumulative factor (and no larger spatial factor, to keep
// the PE budget satisfied). Returns false when no dimension can shrink.
func (s *Space) shrinkOnce(sc *scratch, m *Mapping, level arch.Level, logs [][4]float64) bool {
	// Tensors by descending footprint (stable: ties keep tensor order).
	fp := s.footprints(sc, m, level)
	order := identityPermInto(resize(sc.idx, len(fp)))
	sc.idx = order
	insertionSort(order, func(a, b int) bool { return fp[a] > fp[b] })

	for _, t := range order {
		tensor := &s.Prob.Algo.Tensors[t]
		bestDim := -1
		bestProd := 1
		for _, dim := range tensor.Dims {
			if p := bandProduct(m, level, dim); p > bestProd {
				bestProd = p
				bestDim = dim
			}
		}
		if bestDim < 0 {
			continue
		}
		curSpatial := m.Spatial[bestDim]
		curProd := bandProduct(m, level, bestDim)
		chains, chainLogs := s.chains[bestDim], s.chainLogs[bestDim]
		best := -1
		bestDist := math.Inf(1)
		for i, c := range chains {
			if c[ChainSpatial] > curSpatial {
				continue
			}
			p := c[ChainL1]
			if level >= arch.L2 {
				p *= c[ChainSpatial] * c[ChainL2]
			}
			if p >= curProd {
				continue
			}
			if dist := logDistance(&chainLogs[i], &logs[bestDim]); dist < bestDist {
				bestDist = dist
				best = i
			}
		}
		if best >= 0 {
			m.SetChain(bestDim, chains[best])
			return true
		}
	}
	return false
}

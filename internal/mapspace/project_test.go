package mapspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

func TestProjectIdentityOnValid(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		m := s.Random(rng)
		p := s.Project(m)
		if err := s.IsMember(&p); err != nil {
			t.Fatalf("projection of valid mapping invalid: %v", err)
		}
		// Tiling and orders of an already-valid mapping must survive
		// projection exactly.
		for dim := range s.Prob.Shape {
			if p.Chain(dim) != m.Chain(dim) {
				t.Fatalf("projection changed chain of valid mapping: %v -> %v",
					m.Chain(dim), p.Chain(dim))
			}
		}
		for l := arch.L1; l < arch.NumLevels; l++ {
			for i := range p.Order[l] {
				if p.Order[l][i] != m.Order[l][i] {
					t.Fatalf("projection changed order of valid mapping")
				}
			}
		}
	}
}

func TestProjectRepairsBadProducts(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(12))
	m := s.Random(rng)
	m.Tile[arch.DRAM][2] *= 3 // break factorization of dim C
	p := s.Project(m)
	if err := s.IsMember(&p); err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
}

func TestProjectRepairsSpatialBudget(t *testing.T) {
	s := testSpaceMTTKRP(t)
	m := s.minimalMapping()
	// Demand far more parallelism than 256 PEs.
	m.SetChain(0, FactorChain{1, 64, 1, 1})
	m.Tile[arch.DRAM][0] = 1
	m.SetChain(1, FactorChain{1, 128, 1, 1})
	m.SetChain(2, FactorChain{1, 256, 1, 1})
	p := s.Project(m)
	if err := s.IsMember(&p); err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
	if p.SpatialPEs() > s.Arch.NumPEs {
		t.Fatalf("projection kept %d PEs", p.SpatialPEs())
	}
}

func TestProjectRepairsOversizedTiles(t *testing.T) {
	s := testSpaceMTTKRP(t)
	m := s.minimalMapping()
	// Whole problem in L1 (64*128*256*128 words >> 32K words).
	for dim, size := range s.Prob.Shape {
		m.SetChain(dim, FactorChain{size, 1, 1, 1})
	}
	p := s.Project(m)
	if err := s.IsMember(&p); err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
}

func TestProjectGarbageOrdersAndAllocs(t *testing.T) {
	s := testSpaceCNN(t)
	m := s.minimalMapping()
	m.Order[arch.L1] = []int{0, 0, 0, 0, 0, 0, 0}
	m.Order[arch.L2] = nil
	m.Alloc[arch.L1] = []float64{math.NaN(), -5, 7}
	m.Alloc[arch.L2] = nil
	p := s.Project(m)
	if err := s.IsMember(&p); err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
}

// Property: projecting arbitrary random garbage always yields a valid
// member — the core guarantee Phase 2 relies on at every descent step.
func TestProjectGarbageProperty(t *testing.T) {
	s := testSpaceCNN(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := s.Random(rng)
		// Randomly corrupt several fields.
		for k := 0; k < 5; k++ {
			dim := rng.Intn(s.NumDims())
			switch rng.Intn(4) {
			case 0:
				m.Tile[arch.Level(rng.Intn(3))][dim] = rng.Intn(500)
			case 1:
				m.Spatial[dim] = rng.Intn(4096)
			case 2:
				m.Order[arch.Level(rng.Intn(3))][dim] = rng.Intn(20) - 5
			case 3:
				level := arch.Level(rng.Intn(2))
				tensor := rng.Intn(s.NumTensors())
				m.Alloc[level][tensor] = rng.Float64()*4 - 2
			}
		}
		p := s.Project(m)
		return s.IsMember(&p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRanksToPerm(t *testing.T) {
	perm := make([]int, 3)
	ranksToPerm(perm, []float64{2, 0, 1})
	if perm[0] != 1 || perm[1] != 2 || perm[2] != 0 {
		t.Fatalf("ranksToPerm = %v", perm)
	}
	// Ties resolve by dimension index.
	ranksToPerm(perm, []float64{1, 1, 0})
	if perm[0] != 2 || perm[1] != 0 || perm[2] != 1 {
		t.Fatalf("ranksToPerm ties = %v", perm)
	}
	// NaN counts as rank 0.
	ranksToPerm(perm, []float64{1, math.NaN(), -1})
	if perm[0] != 2 || perm[1] != 1 || perm[2] != 0 {
		t.Fatalf("ranksToPerm NaN = %v", perm)
	}
	ranksToPerm(nil, nil) // empty ranks give the empty perm
}

// chain16Space has a first dimension of size 16 (conv1d with X=16, R=2).
func chain16Space(t *testing.T) *Space {
	t.Helper()
	p, err := loopnest.NewConv1DProblem("chain16", 17, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(arch.Default(2), p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNearestChainExact(t *testing.T) {
	s := chain16Space(t)
	want := FactorChain{2, 4, 2, 1}
	logs := want.Logs()
	if got := s.nearestChain(0, &logs, s.Arch.NumPEs); got != want {
		t.Fatalf("nearestChain = %v, want %v", got, want)
	}
}

func TestNearestChainSpatialCap(t *testing.T) {
	s := chain16Space(t)
	desired := FactorChain{1, 16, 1, 1}.Logs()
	got := s.nearestChain(0, &desired, 4)
	// Should pick the largest allowed spatial factor, 4.
	if got[ChainSpatial] != 4 {
		t.Fatalf("nearestChain under cap 4 = %v, want spatial 4", got)
	}
	// The spatial-1 chains always qualify, however much is asked for.
	if got := s.nearestChain(0, &desired, 1); got[ChainSpatial] != 1 {
		t.Fatalf("nearestChain under cap 1 = %v, want spatial 1", got)
	}
}

func TestNearestChainTieKeepsFirst(t *testing.T) {
	s := chain16Space(t)
	// Equidistant (0.5) from {1,1,1,16} and {2,1,1,8}; the first in
	// enumeration order wins, as in a strict-less scan.
	desired := [4]float64{0.5, 0, 0, 3.5}
	if got := s.nearestChain(0, &desired, s.Arch.NumPEs); got != (FactorChain{1, 1, 1, 16}) {
		t.Fatalf("nearestChain tie = %v, want {1 1 1 16}", got)
	}
}

// TestPrecomputedChainDistanceBitIdentical pins the precomputed-log
// distance to FactorChain.LogDistance bit for bit on every chain of
// three cnn-layer spaces and one MTTKRP space, and the nearest-chain scan
// to a reference scan over LogDistance, so projection picks exactly the
// chain (and tie-break) it would pick taking logarithms on every call.
func TestPrecomputedChainDistanceBitIdentical(t *testing.T) {
	mk := []func() (loopnest.Problem, error){
		func() (loopnest.Problem, error) { return loopnest.NewCNNProblem("a", 16, 256, 256, 14, 14, 3, 3) },
		func() (loopnest.Problem, error) { return loopnest.NewCNNProblem("b", 8, 64, 128, 30, 30, 3, 3) },
		func() (loopnest.Problem, error) { return loopnest.NewCNNProblem("c", 4, 128, 64, 58, 58, 5, 5) },
		func() (loopnest.Problem, error) { return loopnest.NewMTTKRPProblem("m", 128, 64, 96, 32) },
	}
	rng := rand.New(rand.NewSource(3))
	for _, f := range mk {
		p, err := f()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(arch.Default(len(p.Algo.Tensors)-1), p)
		if err != nil {
			t.Fatal(err)
		}
		for dim := 0; dim < s.NumDims(); dim++ {
			chains := s.Chains(dim)
			for trial := 0; trial < 20; trial++ {
				// Desired points on the chain lattice (exact ties) and off it.
				var des [4]float64
				if trial%2 == 0 {
					des = chains[rng.Intn(len(chains))].Logs()
				} else {
					for i := range des {
						des[i] = rng.Float64()*12 - 2
					}
				}
				for i, c := range chains {
					got := logDistance(&s.chainLogs[dim][i], &des)
					if want := c.LogDistance(des); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s dim %d chain %v: precomputed %v != LogDistance %v", p.Name, dim, c, got, want)
					}
				}
				spatialCap := 1 << rng.Intn(9)
				var want FactorChain
				bestDist := math.Inf(1)
				for _, c := range chains {
					if c[ChainSpatial] > spatialCap {
						continue
					}
					if d := c.LogDistance(des); d < bestDist {
						bestDist, want = d, c
					}
				}
				if got := s.nearestChain(dim, &des, spatialCap); got != want {
					t.Fatalf("%s dim %d: nearestChain = %v, reference scan = %v", p.Name, dim, got, want)
				}
			}
		}
	}
}

func TestRepairLeavesValidUntouched(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(13))
	m := s.Random(rng)
	r := s.Repair(m.Clone())
	if r.String() != m.String() {
		t.Fatalf("Repair modified a valid mapping:\n%s\n%s", m.String(), r.String())
	}
}

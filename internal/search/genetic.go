package search

import (
	"math/rand"
	"sort"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// GeneticAlgorithm is the GA baseline (paper Appendix A, built with DEAP
// there): population 100, crossover probability 0.75, per-attribute
// mutation probability 0.05, fitness = EDP, selection at the end of each
// generation.
type GeneticAlgorithm struct {
	// PopSize defaults to the paper's 100, shrinking automatically when the
	// evaluation budget could not sustain two generations.
	PopSize int
	// CrossoverProb defaults to 0.75.
	CrossoverProb float64
	// MutationRate defaults to 0.05.
	MutationRate float64
	// Elite is the number of best individuals carried over unchanged.
	// Defaults to 2.
	Elite int
	// TournamentK is the tournament-selection size. Defaults to 3.
	TournamentK int
}

// Name implements Searcher.
func (GeneticAlgorithm) Name() string { return "GA" }

type individual struct {
	m   mapspace.Mapping
	edp float64
}

// Search implements Searcher.
func (g GeneticAlgorithm) Search(ctx *Context, budget Budget) (Result, error) {
	if err := ctx.validate(); err != nil {
		return Result{}, err
	}
	if err := budget.validate(); err != nil {
		return Result{}, err
	}
	pop := g.PopSize
	if pop <= 0 {
		pop = 100
	}
	if budget.MaxEvals > 0 && pop > budget.MaxEvals/2 {
		pop = budget.MaxEvals / 2
	}
	if pop < 8 {
		pop = 8
	}
	px := g.CrossoverProb
	if px <= 0 || px > 1 {
		px = 0.75
	}
	pm := g.MutationRate
	if pm <= 0 || pm > 1 {
		pm = 0.05
	}
	elite := g.Elite
	if elite <= 0 {
		elite = 2
	}
	if elite > pop/2 {
		elite = pop / 2
	}
	tk := g.TournamentK
	if tk <= 1 {
		tk = 3
	}

	rng := stats.NewRNG(ctx.Seed + 307)
	t := newTracker(ctx, budget)

	// Initial population, evaluated as one batch. Generation consumes the
	// rng in exactly the per-candidate order of the scalar loop (evals
	// draw no randomness), and payEvalBatch records in candidate order,
	// so trajectories match the scalar path bit for bit.
	cohort := make([]mapspace.Mapping, 0, pop)
	for i := 0; i < t.remainingEvals(pop); i++ {
		cohort = append(cohort, ctx.Space.Random(rng))
	}
	vals, err := t.payEvalBatch(cohort, nil)
	if err != nil {
		return Result{}, err
	}
	var current []individual
	for i, v := range vals {
		current = append(current, individual{cohort[i], v})
	}

	for !t.exhausted() && len(current) >= 2 {
		sort.SliceStable(current, func(a, b int) bool { return current[a].edp < current[b].edp })
		next := make([]individual, 0, len(current))
		// Elitism: best individuals survive with their known fitness (no
		// re-evaluation cost).
		for i := 0; i < elite && i < len(current); i++ {
			next = append(next, current[i])
		}
		// Breed the generation's offspring cohort, then evaluate it as one
		// batch.
		cohort = cohort[:0]
		for i := 0; i < t.remainingEvals(len(current)-len(next)); i++ {
			parentA := tournament(rng, current, tk)
			parentB := tournament(rng, current, tk)
			// Mutate copies its input, so a parent that skips crossover
			// is mutated directly rather than cloned first.
			parent := &parentA.m
			if rng.Float64() < px {
				cross := ctx.Space.Crossover(rng, &parentA.m, &parentB.m)
				parent = &cross
			}
			cohort = append(cohort, ctx.Space.Mutate(rng, parent, pm))
		}
		if vals, err = t.payEvalBatch(cohort, vals); err != nil {
			return Result{}, err
		}
		for i, v := range vals {
			next = append(next, individual{cohort[i], v})
		}
		current = next
	}
	return t.result(g.Name()), nil
}

// tournament picks the fittest of k random individuals.
func tournament(rng *rand.Rand, pop []individual, k int) *individual {
	best := &pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		cand := &pop[rng.Intn(len(pop))]
		if cand.edp < best.edp {
			best = cand
		}
	}
	return best
}

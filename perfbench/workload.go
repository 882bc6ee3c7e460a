package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mindmappings/internal/loopnest"
)

// algoName is the workload every benchmark request maps: the paper's CNN
// layer, whose 7-dimensional map space is the one Mind Mappings targets.
const algoName = "cnn-layer"

// workload is one traffic mix. Every mix runs closed loop with nClients
// clients; they differ in searcher, budget and how requests repeat, which
// decides the layers they load.
type workload struct {
	name     string
	searcher string // "ga" or "mm"
	evals    int    // per-job evaluation budget
	// isoMS is the fixed search time T at which edp_vs_min_iso reads
	// each trajectory; long enough that every job has a sample by then.
	// GA records its first sample only after generating and evaluating
	// its whole initial population, up to ~75 ms on large map spaces.
	isoMS float64
	// atlasReadonly serves atlas reads without write-back, so that which
	// job finishes first cannot change a later job's warm start.
	atlasReadonly bool
	// repeat replays a fixed pre-solved shape set, so every timed request
	// is an atlas exact hit.
	repeat bool
	// warmMin is the number of warm-up jobs of the workload's own kind
	// a search workload runs before filling the eval cache.
	warmMin int
}

var workloads = map[string]workload{
	// Distinct shapes, GA: mapspace operators do almost all the work, and
	// every result is written back to the atlas and journal.
	"ga-cold": {name: "ga-cold", searcher: "ga", evals: 2000, isoMS: 100, warmMin: 8},
	// Distinct shapes, MM on one shared surrogate: the only mix where the
	// inference batcher and surrogate GEMMs matter.
	"mm-shared": {name: "mm-shared", searcher: "mm", evals: 1000, isoMS: 40, atlasReadonly: true, warmMin: 8},
	// Repeats of pre-solved shapes: answered at submit from the atlas, so
	// only HTTP/JSON, submit and atlas reads run.
	"atlas-hit": {name: "atlas-hit", searcher: "ga", evals: 2000, repeat: true},
}

func workloadNames() string {
	return "ga-cold, mm-shared, atlas-hit"
}

const (
	// nClients closed-loop clients, one per core of the reference host.
	nClients = 2
	// warmPool bounds the warm-up shapes. presolveShapes, atlas-hit's
	// stored set, is one block of the stratified draw, so every size of
	// every dimension is in it equally often. timedPool distinct shapes,
	// or repeatPool atlas-hit requests, must outlast any run.
	warmPool       = 400
	presolveShapes = 72
	timedPool      = 20000
	repeatPool     = 1 << 18
	// trainSeed fixes the shared surrogate, so the mappings MM finds
	// depend only on the workload seed.
	trainSeed = 11
)

// trainRequest is mm-shared's surrogate: the paper's hidden sizes on a
// dataset small enough to train in a couple of seconds.
var trainRequest = map[string]any{
	"algo":         algoName,
	"samples":      3000,
	"problems":     8,
	"epochs":       6,
	"hidden_sizes": []int{64, 128, 128, 64},
	"seed":         trainSeed,
}

// job is one generated search request.
type job struct {
	shape []int
	seed  int64
}

// inputs is everything a run sends, generated from the workload seed.
type inputs struct {
	warm  []job // warm-up requests (never repeated in the timed phase)
	timed []job // timed requests, in issue order
}

// generate draws the run's requests. Shapes come from the workload's own
// sample space, distinct across the warm-up and timed pools, so a search
// workload never exact-hits the atlas; atlas-hit instead cycles through a
// pre-solved set in a seeded order.
func generate(w workload, seed int64) (inputs, error) {
	algo, err := loopnest.AlgorithmByName(algoName)
	if err != nil {
		return inputs{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	next := stratified(algo.SampleValues(), rng)
	seen := map[string]bool{}
	draw := func(n int) ([]job, error) {
		out := make([]job, 0, n)
		for tries := 0; len(out) < n; tries++ {
			if tries > 50*n {
				return nil, fmt.Errorf("cannot draw %d distinct %s shapes", n, algoName)
			}
			shape := next()
			key := fmt.Sprint(shape)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, job{shape: shape, seed: 1 + rng.Int63n(1<<30)})
		}
		return out, nil
	}
	if w.repeat {
		set, err := draw(presolveShapes)
		if err != nil {
			return inputs{}, err
		}
		in := inputs{warm: set, timed: make([]job, repeatPool)}
		for i := range in.timed {
			in.timed[i] = set[rng.Intn(len(set))]
		}
		return in, nil
	}
	var in inputs
	if in.warm, err = draw(warmPool); err != nil {
		return inputs{}, err
	}
	if in.timed, err = draw(timedPool); err != nil {
		return inputs{}, err
	}
	return in, nil
}

// stratified returns a generator of random shapes in which, within every
// block of consecutive draws as long as the least common multiple of the
// per-dimension value counts, each dimension takes each of its values
// equally often. Job cost and quality depend strongly on the sizes, so
// balancing them keeps any run's mix close to the sample space's; plain
// independent draws let a run's figures swing with the seed.
func stratified(values [][]int, rng *rand.Rand) func() []int {
	block := 1
	for _, vs := range values {
		block = lcm(block, len(vs))
	}
	cols := make([][]int, len(values))
	pos := block
	return func() []int {
		if pos == block {
			for d, vs := range values {
				col := cols[d][:0]
				for len(col) < block {
					col = append(col, vs...)
				}
				rng.Shuffle(len(col), func(i, j int) { col[i], col[j] = col[j], col[i] })
				cols[d] = col
			}
			pos = 0
		}
		shape := make([]int, len(values))
		for d := range values {
			shape[d] = cols[d][pos]
		}
		pos++
		return shape
	}
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// body renders the POST /v1/search request for j.
func (w workload) body(j job, model string) string {
	shape := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(j.shape)), ","), "[]")
	s := fmt.Sprintf(`{"algo":%q,"shape":[%s],"searcher":%q,"evals":%d,"seed":%d`,
		algoName, shape, w.searcher, w.evals, j.seed)
	if w.searcher == "mm" {
		s += fmt.Sprintf(`,"model":%q`, model)
	}
	return s + "}"
}

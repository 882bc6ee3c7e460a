package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/atlas"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/infer"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/oracle"
	"mindmappings/internal/search"
	"mindmappings/internal/service"
	"mindmappings/internal/surrogate"
)

// Span names: the public entry points the replay brackets, plus the two
// timing shims inside Searcher.Search.
const (
	spanJob       = "job"
	spanSpace     = "mapspace.New"
	spanOracle    = "oracle.Compute"
	spanSearch    = "Searcher.Search"
	spanCostModel = "costmodel.Evaluator"
	spanSurrogate = "search.SurrogateQuerier"
	spanPublish   = "atlas.Publish"
)

// span is one timed call. Spans of one job share job; parent is the id of
// the enclosing span (-1 for a job's root). Times are ns since the replay
// began.
type span struct {
	job, id, parent int
	name            string
	start, end      int64
}

// tracer keeps spans in memory for one sequential replay. A nil tracer
// records nothing, which is the spans-off pass.
type tracer struct {
	base  time.Time
	job   int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{job: t.job, id: len(t.spans), parent: parent, name: name, start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = int64(time.Since(t.base))
	}
}

// timedModel is the cost-model timing shim: every call into the backend
// becomes a span under Searcher.Search.
type timedModel struct {
	costmodel.Evaluator
	t      *tracer
	parent int
}

func (m timedModel) EvaluateInto(ctx context.Context, mp *mapspace.Mapping, c *costmodel.Cost) error {
	id := m.t.begin(spanCostModel, m.parent)
	err := m.Evaluator.EvaluateInto(ctx, mp, c)
	m.t.end(id)
	return err
}

func (m timedModel) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []costmodel.Cost, errs []error) {
	id := m.t.begin(spanCostModel, m.parent)
	m.Evaluator.EvaluateBatchInto(ctx, ms, costs, errs)
	m.t.end(id)
}

// timedQuerier is the surrogate timing shim around the batcher client.
type timedQuerier struct {
	q      search.SurrogateQuerier
	t      *tracer
	parent int
}

func (q timedQuerier) PredictBatch(vecs [][]float64, eExp, dExp float64, dst []float64) ([]float64, error) {
	id := q.t.begin(spanSurrogate, q.parent)
	out, err := q.q.PredictBatch(vecs, eExp, dExp, dst)
	q.t.end(id)
	return out, err
}

func (q timedQuerier) GradientBatch(vecs [][]float64, eExp, dExp float64, vals []float64, grads [][]float64) ([]float64, [][]float64, error) {
	id := q.t.begin(spanSurrogate, q.parent)
	v, g, err := q.q.GradientBatch(vecs, eExp, dExp, vals, grads)
	q.t.end(id)
	return v, g, err
}

// replayer re-runs served jobs in process, the way the job manager runs
// them, and publishes each best mapping into its own atlas.
type replayer struct {
	w       workload
	atlas   *atlas.Atlas
	batcher *infer.Batcher // mm only
}

func newReplayer(w workload, dir string, sur *surrogate.Surrogate) (*replayer, error) {
	at, err := atlas.Open(dir)
	if err != nil {
		return nil, err
	}
	r := &replayer{w: w, atlas: at}
	if sur != nil {
		r.batcher = infer.New(sur, infer.Config{Window: infer.DefaultWindow, MaxBatch: infer.DefaultMaxBatch}, nil)
	}
	return r, nil
}

// replayed is one job's replay: its result, wall time, and the heap
// objects Searcher.Search allocated.
type replayed struct {
	res    search.Result
	wall   time.Duration
	allocs uint64
}

// run replays one job, recording spans into t when it is non-nil.
func (r *replayer) run(j job, t *tracer) (replayed, error) {
	var out replayed
	start := time.Now()
	algo, err := loopnest.AlgorithmByName(algoName)
	if err != nil {
		return out, err
	}
	prob, err := algo.NewProblem("custom", j.shape)
	if err != nil {
		return out, err
	}
	a := arch.Default(len(algo.Tensors) - 1)
	root := t.begin(spanJob, -1)

	id := t.begin(spanSpace, root)
	space, err := mapspace.New(a, prob)
	t.end(id)
	if err != nil {
		return out, err
	}
	var model costmodel.Evaluator
	if model, err = costmodel.New(costmodel.DefaultBackend, a, prob); err != nil {
		return out, err
	}
	id = t.begin(spanOracle, root)
	bound, err := oracle.Compute(a, prob)
	t.end(id)
	if err != nil {
		return out, err
	}
	obj, err := search.ParseObjective("")
	if err != nil {
		return out, err
	}

	sid := t.begin(spanSearch, root)
	var searcher search.Searcher = search.GeneticAlgorithm{}
	var client *infer.Client
	if r.w.searcher == "mm" {
		client = r.batcher.Register(context.Background(), 0)
		mm := search.MindMappings{Surrogate: r.batcher.Surrogate(), Queries: client}
		if t != nil {
			mm.Queries = timedQuerier{q: client, t: t, parent: sid}
		}
		searcher = mm
	}
	if t != nil {
		model = timedModel{Evaluator: model, t: t, parent: sid}
	}
	sctx := &search.Context{
		Space:     space,
		Model:     model,
		Bound:     bound,
		Seed:      j.seed,
		Objective: obj,
		Ctx:       context.Background(),
		// A per-job cache sees the same hits the shared served cache gave
		// this job: keys carry the problem, and every shape is distinct.
		Cache: service.NewEvalCache(r.w.evals + 1),
	}
	allocs0 := heapObjects()
	out.res, err = searcher.Search(sctx, search.Budget{MaxEvals: r.w.evals})
	out.allocs = heapObjects() - allocs0
	if client != nil {
		client.Close()
	}
	t.end(sid)
	if err != nil {
		return out, err
	}

	id = t.begin(spanPublish, root)
	key, family := atlas.Key(algo.Fingerprint(), modelstore.ArchFingerprint(a), costmodel.DefaultBackend, obj.String(), prob.Shape)
	_, _, err = r.atlas.Publish(atlas.Entry{
		Key: key, Family: family, Algo: algo.Name, AlgoFP: algo.Fingerprint(),
		ArchFP: modelstore.ArchFingerprint(a), CostModel: costmodel.DefaultBackend,
		Objective: obj.String(), Shape: prob.Shape, BestEDP: out.res.BestEDP,
		Evals: out.res.Evals, Method: out.res.Method, Source: "serve",
	}, &out.res.Best)
	t.end(id)
	t.end(root)
	out.wall = time.Since(start)
	return out, err
}

// heapObjects is the process's cumulative count of heap allocations.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replayReport is the per-layer view of a replay.
type replayReport struct {
	spaceMS       float64 // per job
	oracleMS      float64
	searchMS      float64 // whole Searcher.Search span
	searchSelfMS  float64 // Search minus its shim children
	costModelMS   float64
	surrogateMS   float64
	publishMS     float64
	allocsPerEval float64
	overhead      float64 // traced wall / untraced wall
	mismatches    int     // replayed best EDP != served, bit for bit
}

// replay re-runs jobs twice in sequence, spans on then off, checks each
// best EDP against want bit for bit, writes the spans to tracePath, and
// summarizes the layers.
func replay(w workload, jobs []job, want []float64, sur *surrogate.Surrogate, dir, tracePath string) (replayReport, error) {
	var rep replayReport
	t := &tracer{base: time.Now()}
	var wallOn, wallOff time.Duration
	var allocs uint64
	evals := 0
	for pass, traced := range []bool{true, false} {
		r, err := newReplayer(w, filepath.Join(dir, fmt.Sprint("atlas-", pass)), sur)
		if err != nil {
			return rep, err
		}
		for i, j := range jobs {
			var tt *tracer
			if traced {
				t.job, tt = i, t
			}
			got, err := r.run(j, tt)
			if err != nil {
				return rep, fmt.Errorf("replaying job %d: %w", i, err)
			}
			if math.Float64bits(got.res.BestEDP) != math.Float64bits(want[i]) {
				rep.mismatches++
				fmt.Fprintf(os.Stderr, "perfbench: replay of job %d (shape %v seed %d) found best EDP %v, served %v\n",
					i, j.shape, j.seed, got.res.BestEDP, want[i])
			}
			if traced {
				wallOn += got.wall
			} else {
				wallOff += got.wall
				allocs += got.allocs
				evals += got.res.Evals
			}
		}
	}
	n := float64(len(jobs))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	var space, orc, srch, cm, sg, pub int64
	for _, s := range t.spans {
		d := s.end - s.start
		switch s.name {
		case spanSpace:
			space += d
		case spanOracle:
			orc += d
		case spanSearch:
			srch += d
		case spanCostModel:
			cm += d
		case spanSurrogate:
			sg += d
		case spanPublish:
			pub += d
		}
	}
	rep.spaceMS, rep.oracleMS, rep.searchMS = ms(space), ms(orc), ms(srch)
	rep.costModelMS, rep.surrogateMS, rep.publishMS = ms(cm), ms(sg), ms(pub)
	rep.searchSelfMS = ms(srch - cm - sg)
	if evals > 0 {
		rep.allocsPerEval = float64(allocs) / float64(evals)
	}
	if wallOff > 0 {
		rep.overhead = float64(wallOn) / float64(wallOff)
	}
	return rep, writeSpans(tracePath, t.spans)
}

// writeSpans writes the trace as tab-separated lines under a header.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString("job\tid\tparent\tname\tstart_ns\tend_ns\n")
	var line []byte
	for _, s := range spans {
		line = strconv.AppendInt(line[:0], int64(s.job), 10)
		for _, v := range []int64{int64(s.id), int64(s.parent)} {
			line = strconv.AppendInt(append(line, '\t'), v, 10)
		}
		line = append(append(line, '\t'), s.name...)
		for _, v := range []int64{s.start, s.end} {
			line = strconv.AppendInt(append(line, '\t'), v, 10)
		}
		bw.Write(append(line, '\n'))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

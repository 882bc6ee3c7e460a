// Command perfbench is the repository's served-path benchmark. It starts
// an in-process `mindmappings serve` (default flags, -quiet) on loopback,
// drives it with closed-loop HTTP clients for a fixed time, checks every
// answer, and prints one JSON result line. With --trace 1 it also replays
// the served jobs in process with spans around each layer's entry points
// and reports per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload ga-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"mindmappings/internal/surrogate"
)

const (
	// setupRepeats is how many times a run builds its server from
	// scratch; setup_s is the median, and the last server is timed.
	setupRepeats = 3
	// minTimedJobs extends a timed phase on a slow host until job_p90_ms
	// has minBeyond samples above it.
	minTimedJobs = 100
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "traffic mix: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics, adding a traced in-process replay")
	workdir := flag.String("workdir", ".bench_build", "directory for server state and trace output")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if !errors.Is(err, errCheck) {
			os.Exit(1)
		}
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// errCheck marks a failed output check: the run still prints its result,
// with correct=false, and exits non-zero.
var errCheck = errors.New("output check failed")

func run(w workload, seed int64, length time.Duration, traced bool, workdir string) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	in, err := generate(w, seed)
	if err != nil {
		return rep, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return rep, err
	}
	work, err := os.MkdirTemp(workdir, "perfbench-"+w.name+"-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(work)

	// Set up from scratch setupRepeats times; time the last server.
	var setups, trains []float64
	var st *setupState
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.srv.stop(); err != nil {
				return rep, err
			}
			runtime.GC()
			debug.FreeOSMemory()
		}
		if st, err = setUp(w, in, filepath.Join(work, fmt.Sprintf("setup-%d", i))); err != nil {
			if st != nil {
				st.srv.stop()
			}
			return rep, err
		}
		setups = append(setups, st.seconds)
		trains = append(trains, st.trainS)
	}
	defer func() {
		if err := st.srv.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}()

	tm, err := timedPhase(st, w, in.timed, length)
	if err != nil {
		return rep, err
	}
	rep.Attempted, rep.Failed = len(tm.outs), tm.failed
	checks := tm.check(w)
	if !traced {
		err = tm.endToEnd(w, median(setups), rep.Metrics)
	} else {
		tm.perLayer(w, median(trains), rep.Metrics)
		if tm.failed == 0 { // a failed job has no result to replay
			var rr replayReport
			rr, err = replayTimed(w, st, tm, work, workdir)
			rr.into(rep.Metrics)
			if rr.mismatches > 0 {
				checks = append(checks, fmt.Sprintf("%d replayed jobs differ from the served best EDP", rr.mismatches))
			}
		}
	}
	if err != nil {
		return rep, err
	}
	for _, c := range checks {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	rep.Correct = len(checks) == 0
	if !rep.Correct {
		return rep, errCheck
	}
	return rep, nil
}

// setupState is a server ready for timing and what its set-up learned.
type setupState struct {
	srv     *server
	clients []*client
	model   string    // mm-shared's trained artifact
	trainS  float64   // training wall time
	warm    []outcome // warm-up / pre-solve jobs
	seconds float64
}

// setUp opens a fresh server in dir and brings it to steady state: mm
// trains its shared surrogate; search mixes run warm-up jobs of their own
// and then fill the eval cache; atlas-hit pre-solves its shape set.
func setUp(w workload, in inputs, dir string) (*setupState, error) {
	start := time.Now()
	srv, err := startServer(dir, w.atlasReadonly)
	if err != nil {
		return nil, err
	}
	st := &setupState{srv: srv, clients: newClients(srv.url)}
	if w.searcher == "mm" {
		t0 := time.Now()
		if st.model, err = train(st.clients[0]); err != nil {
			return st, err
		}
		st.trainS = time.Since(t0).Seconds()
	}
	always := func(int) bool { return true }
	n := w.warmMin
	if w.repeat {
		n = len(in.warm)
	}
	st.warm = drive(st.clients, w, st.model, in.warm[:n], always, nil)
	var fill []outcome
	if !w.repeat {
		// Fill the shared eval cache with GA requests, which insert ~1700
		// entries a job to MM's ~1000: filling it with MM jobs alone
		// would triple mm-shared's set-up.
		var full atomic.Bool
		fill = drive(st.clients, workloads["ga-cold"], "", in.warm[n:],
			func(int) bool { return !full.Load() },
			func(c *client) {
				if m, err := c.scrape(); err == nil && m["eval_cache_utilization"] >= 1 {
					full.Store(true)
				}
			})
		if !full.Load() {
			return st, fmt.Errorf("eval cache not full after %d warm-up jobs", len(st.warm)+len(fill))
		}
	}
	for _, o := range append(fill, st.warm...) {
		if !o.ok() {
			return st, fmt.Errorf("set-up job %v: %v", o.job.shape, o.err)
		}
	}
	st.seconds = time.Since(start).Seconds()
	return st, nil
}

// surrogate returns mm-shared's trained surrogate as the server loaded
// it, or nil for the searches that use none.
func (st *setupState) surrogate() (*surrogate.Surrogate, error) {
	if st.model == "" {
		return nil, nil
	}
	return st.srv.registry.Get(st.model)
}

// train publishes mm-shared's surrogate through POST /v1/train and waits
// for it, returning the artifact ID.
func train(c *client) (string, error) {
	body, err := json.Marshal(trainRequest)
	if err != nil {
		return "", err
	}
	var tj struct {
		ID       string `json:"id"`
		Status   string `json:"status"`
		Error    string `json:"error"`
		Artifact *struct {
			ID string `json:"id"`
		} `json:"artifact"`
	}
	code, err := c.doJSON("POST", "/v1/train", string(body), &tj)
	if err == nil && code != 202 {
		err = fmt.Errorf("POST /v1/train: status %d", code)
	}
	if err != nil {
		return "", err
	}
	id := tj.ID
	for deadline := time.Now().Add(120 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if _, err := c.doJSON("GET", "/v1/train/"+id, "", &tj); err != nil {
			return "", err
		}
		switch tj.Status {
		case "done":
			if tj.Artifact == nil {
				return "", fmt.Errorf("training job %s done without an artifact", id)
			}
			return tj.Artifact.ID, nil
		case "failed", "cancelled":
			return "", fmt.Errorf("training job %s %s: %s", id, tj.Status, tj.Error)
		}
	}
	return "", fmt.Errorf("training job %s did not finish", id)
}

// timed is the outcome of the timed phase.
type timed struct {
	outs    []outcome
	failed  int
	elapsed time.Duration
	prom    promSample // /metrics delta over the phase
	entries float64    // eval-cache entries at the end
	mem     runtime.MemStats
	cpu     time.Duration // process user+system CPU over the phase
	rssMB   float64       // peak resident set of the process
}

// timedPhase drives the clients closed loop until length has passed, then
// lets in-flight jobs finish.
func timedPhase(st *setupState, w workload, jobs []job, length time.Duration) (*timed, error) {
	c := st.clients[0]
	before, err := c.scrape()
	if err != nil {
		return nil, err
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(length)
	outs := drive(st.clients, w, st.model, jobs, func(finished int) bool {
		return time.Now().Before(deadline) || finished < minTimedJobs
	}, nil)
	tm := &timed{outs: outs, elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	if len(outs) == len(jobs) {
		return nil, fmt.Errorf("timed phase used all %d generated jobs; raise timedPool", len(jobs))
	}
	runtime.ReadMemStats(&tm.mem)
	after, err := c.scrape()
	if err != nil {
		return nil, err
	}
	tm.prom = after.delta(before)
	tm.entries = after["eval_cache_entries"]
	tm.mem.TotalAlloc -= m0.TotalAlloc
	tm.mem.Mallocs -= m0.Mallocs
	tm.mem.PauseTotalNs -= m0.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	tm.rssMB = float64(ru.Maxrss) / 1024
	for _, o := range outs {
		if !o.ok() {
			tm.failed++
		}
	}
	return tm, nil
}

// check runs the output checks and returns what failed.
func (tm *timed) check(w workload) []string {
	var bad []string
	for _, o := range tm.outs {
		switch {
		case !o.ok():
			bad = append(bad, fmt.Sprintf("job %v seed %d: %v", o.job.shape, o.job.seed, o.err))
		case w.repeat && o.view.Result.Source != "atlas":
			bad = append(bad, fmt.Sprintf("atlas-hit job %v answered with source %q", o.job.shape, o.view.Result.Source))
		case !w.repeat && o.view.Result.Source != "":
			bad = append(bad, fmt.Sprintf("cold job %v answered with source %q", o.job.shape, o.view.Result.Source))
		case !(o.view.Result.BestEDP >= 1):
			bad = append(bad, fmt.Sprintf("job %v best EDP %v is below the oracle bound", o.job.shape, o.view.Result.BestEDP))
		}
		if len(bad) >= 5 {
			break
		}
	}
	return bad
}

// endToEnd fills the user-visible metrics.
func (tm *timed) endToEnd(w workload, setupS float64, out map[string]metric) error {
	lat := make([]float64, 0, len(tm.outs))
	edp := make([]float64, 0, len(tm.outs))
	var iso []float64
	for _, o := range tm.outs {
		if !o.ok() {
			continue
		}
		lat = append(lat, o.latency.Seconds()*1e3)
		edp = append(edp, o.view.Result.BestEDP)
		if b, ok := isoBest(w, o); ok {
			iso = append(iso, b)
		}
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return err
	}
	gm, err := geomean(edp)
	if err != nil {
		return err
	}
	gmIso, err := geomean(iso)
	if err != nil {
		return fmt.Errorf("edp_vs_min_iso: %w", err)
	}
	out["setup_s"] = metric{setupS, "s"}
	out["job_p50_ms"] = metric{p50, "ms"}
	out["job_p90_ms"] = metric{p90, "ms"}
	out["jobs_per_s"] = metric{float64(len(lat)) / tm.elapsed.Seconds(), "1/s"}
	out["edp_vs_min"] = metric{gm, "ratio"}
	out["edp_vs_min_iso"] = metric{gmIso, "ratio"}
	out["peak_rss_mb"] = metric{tm.rssMB, "MB"}
	return nil
}

// isoBest reads a job's best EDP at the workload's iso time. An atlas
// answer exists at submit, so its value at any T is the stored best.
func isoBest(w workload, o outcome) (float64, bool) {
	if w.repeat {
		return o.view.Result.BestEDP, true
	}
	return bestAtTime(o.view.Result.Trajectory, w.isoMS)
}

// perLayer fills the served-run layer metrics: /metrics deltas, the
// clients' own counts, and the process's runtime counters.
func (tm *timed) perLayer(w workload, trainS float64, out map[string]metric) {
	n := float64(len(tm.outs))
	p := tm.prom
	frames, missing := 0, 0
	for _, o := range tm.outs {
		frames += o.frames
		if o.ok() {
			if _, ok := isoBest(w, o); !ok {
				missing++
			}
		}
	}
	hits, misses := p.sum("eval_cache_hits_total"), p.sum("eval_cache_misses_total")
	flushes := p.sum("infer_batch_flushes_total")
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["service.submit_us"] = metric{p.histMean("http_request_seconds", `route="POST /v1/search"`) * 1e6, "us"}
	out["atlas.lookup_us"] = metric{p.histMean("atlas_lookup_seconds") * 1e6, "us"}
	out["service.queue_ms"] = metric{p.histMean("search_job_queue_seconds") * 1e3, "ms"}
	out["service.run_ms"] = metric{p.histMean("search_job_run_seconds") * 1e3, "ms"}
	out["service.first_eval_ms"] = metric{p.histMean("search_job_first_eval_seconds") * 1e3, "ms"}
	out["service.events_per_job"] = metric{float64(frames) / n, "count"}
	out["costmodel.evals_per_job"] = metric{p.sum("costmodel_evals_total") / n, "count"}
	out["evalcache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	out["evalcache.entries"] = metric{tm.entries, "count"}
	out["infer.rows_per_batch"] = metric{p.histMean("infer_batch_rows"), "count"}
	out["infer.wait_us"] = metric{p.histMean("infer_batch_wait_seconds") * 1e6, "us"}
	out["infer.window_flush_frac"] = metric{ratio(p.sum("infer_batch_flushes_total", `reason="window"`), flushes), "ratio"}
	out["runtime.alloc_kb_per_job"] = metric{float64(tm.mem.TotalAlloc) / 1024 / n, "KiB"}
	out["runtime.mallocs_per_job"] = metric{float64(tm.mem.Mallocs) / n, "count"}
	out["runtime.gc_pause_ms"] = metric{float64(tm.mem.PauseTotalNs) / 1e6, "ms"}
	out["runtime.cpu_ms_per_job"] = metric{tm.cpu.Seconds() * 1e3 / n, "ms"}
	out["trainer.train_s"] = metric{trainS, "s"}
	out["search.iso_missing"] = metric{float64(missing), "count"}
}

// replayTimed replays the jobs whose results the run served: the timed
// jobs of a search mix, or atlas-hit's pre-solved set (every timed answer
// is one of those stored results).
func replayTimed(w workload, st *setupState, tm *timed, work, workdir string) (replayReport, error) {
	src := tm.outs
	if w.repeat {
		src = st.warm
	}
	jobs := make([]job, len(src))
	want := make([]float64, len(src))
	for i, o := range src {
		jobs[i], want[i] = o.job, o.view.Result.BestEDP
	}
	sur, err := st.surrogate()
	if err != nil {
		return replayReport{}, err
	}
	tracePath := filepath.Join(workdir, "perfbench-trace-"+w.name+".tsv")
	rr, err := replay(w, jobs, want, sur, filepath.Join(work, "replay"), tracePath)
	if err == nil && w.repeat {
		// Every timed answer must be the stored pre-solve result.
		stored := map[string]float64{}
		for i, j := range jobs {
			stored[fmt.Sprint(j.shape)] = want[i]
		}
		for _, o := range tm.outs {
			if math.Float64bits(o.view.Result.BestEDP) != math.Float64bits(stored[fmt.Sprint(o.job.shape)]) {
				rr.mismatches++
			}
		}
	}
	return rr, err
}

// into adds the replay's per-layer metrics; around_search compares the
// served mean run time with the replayed space+oracle+search time.
func (rr replayReport) into(out map[string]metric) {
	share := 0.0
	if rr.searchMS > 0 {
		share = rr.searchSelfMS / rr.searchMS
	}
	around := 0.0
	if run := out["service.run_ms"].Value; run > 0 {
		around = run - (rr.spaceMS + rr.oracleMS + rr.searchMS)
	}
	out["mapspace.new_ms"] = metric{rr.spaceMS, "ms"}
	out["oracle.compute_ms"] = metric{rr.oracleMS, "ms"}
	out["search.self_ms"] = metric{rr.searchSelfMS, "ms"}
	out["search.self_share"] = metric{share, "ratio"}
	out["search.allocs_per_eval"] = metric{rr.allocsPerEval, "count"}
	out["costmodel.busy_ms"] = metric{rr.costModelMS, "ms"}
	out["surrogate.busy_ms"] = metric{rr.surrogateMS, "ms"}
	out["atlas.publish_ms"] = metric{rr.publishMS, "ms"}
	out["service.around_search_ms"] = metric{around, "ms"}
	out["trace.overhead"] = metric{rr.overhead, "ratio"}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"mindmappings/internal/atlas"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/obs"
	"mindmappings/internal/resilience"
	"mindmappings/internal/trainer"
)

// sseEvents reads a Server-Sent-Events body until EOF or maxWait, decoding
// every "data:" frame as a ProgressEvent.
func sseEvents(t *testing.T, body *bufio.Scanner) []ProgressEvent {
	t.Helper()
	var events []ProgressEvent
	for body.Scan() {
		line := body.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev ProgressEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// exposedFamilies reduces an exposition to its contract: one
// "name type label,names" line per family, sorted. Histogram bucket "le"
// labels are an encoding detail and are left out.
func exposedFamilies(t *testing.T, text string) []string {
	t.Helper()
	types := map[string]string{}
	labels := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		if i := strings.IndexByte(name, ' '); i >= 0 {
			name, rest = name[:i], ""
		}
		if _, ok := types[name]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "histogram" {
					name = base
				}
			}
		}
		var names []string
		for _, pair := range strings.Split(rest, `",`) {
			if ln, _, ok := strings.Cut(pair, `="`); ok && ln != "le" {
				names = append(names, ln)
			}
		}
		labels[name] = strings.Join(names, ",")
	}
	out := make([]string, 0, len(types))
	for name, typ := range types {
		out = append(out, strings.TrimSpace(name+" "+typ+" "+labels[name]))
	}
	sort.Strings(out)
	return out
}

// TestPrometheusExposition pins the scrape surface: after one of each kind
// of traffic (random job, mm job, atlas hit, training job, a 429 and a 503
// rejection), GET /metrics serves valid exposition text whose family names,
// types and label names match the pinned contract, GET /v1/metrics carries
// the same values, and each fact reads the count the traffic implies.
func TestPrometheusExposition(t *testing.T) {
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	at, err := atlas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	registry := NewModelRegistry(modelDir(t, "conv1d.surrogate"), 4)
	cache := NewEvalCache(1 << 14)
	jobs := NewJobManager(registry, cache, 2, 8)
	pipeline := trainer.New(store, 1, 4)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := jobs.Shutdown(ctx); err != nil {
			t.Errorf("jobs shutdown: %v", err)
		}
		if err := pipeline.Shutdown(ctx); err != nil {
			t.Errorf("pipeline shutdown: %v", err)
		}
	})
	jobs.EnableAtlas(at, false)
	// One token per tenant and no refill: acme's second queued submission
	// is a 429. The health source below is the test's switch for a 503 shed.
	jobs.EnableAdmission(resilience.AdmissionConfig{
		Rate: 1e-9, Burst: 1, Thresholds: resilience.Thresholds{MinHealth: 0.5},
	})
	srv := NewServer(jobs, registry, cache).WithTraining(store, pipeline)
	srv.EnableSLO(DefaultSLOConfig())
	var health obs.Gauge
	health.Set(1)
	jobs.SetHealth(health.Value)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	random := SearchRequest{Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 200, Seed: 1}
	job, resp := postSearchAs(t, ts, "acme", random)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("random submit: %d", resp.StatusCode)
	}
	if done := waitJob(t, ts, job.ID, time.Minute); done.Status != JobDone {
		t.Fatalf("random job: %s (%s)", done.Status, done.Error)
	}
	job, resp = postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{512, 5}, Searcher: "mm", Model: "conv1d.surrogate", Evals: 100, Seed: 2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mm submit: %d", resp.StatusCode)
	}
	if done := waitJob(t, ts, job.ID, time.Minute); done.Status != JobDone {
		t.Fatalf("mm job: %s (%s)", done.Status, done.Error)
	}
	hit, resp := postSearchAs(t, ts, "acme", random)
	if resp.StatusCode != http.StatusAccepted || hit.Result == nil || hit.Result.Source != "atlas" {
		t.Fatalf("atlas hit: %d %+v", resp.StatusCode, hit.Result)
	}
	tresp, body := postJSON(t, ts.URL+"/v1/train", tinyTrainRequest())
	if tresp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/train: %d", tresp.StatusCode)
	}
	var tjob trainer.Job
	if err := json.Unmarshal(body, &tjob); err != nil {
		t.Fatal(err)
	}
	if done := waitTrainJob(t, ts, tjob.ID, 2*time.Minute); done.Status != trainer.StatusDone {
		t.Fatalf("training job: %s (%s)", done.Status, done.Error)
	}
	quota := SearchRequest{Algo: "conv1d", Shape: []int{256, 5}, Searcher: "random", Evals: 10}
	if _, resp = postSearchAs(t, ts, "acme", quota); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", resp.StatusCode)
	}
	health.Set(0)
	if _, resp = postSearchAs(t, ts, "acme", quota); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit: %d, want 503", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("content type %q", ct)
	}
	rawBody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(rawBody)
	if _, err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, out)
	}
	if got := exposedFamilies(t, out); !slices.Equal(got, pinnedFamilies) {
		t.Fatalf("/metrics families changed:\ngot  %q\nwant %q", got, pinnedFamilies)
	}

	// /v1/metrics is rendered from the same registry: every sample above
	// has the same value there (histograms via their _count and _sum).
	// Series that move between two requests are skipped: runtime, uptime,
	// and the HTTP series the two scrapes themselves feed.
	m := getMetrics(t, ts)
	if _, ok := m["uptime"].(string); !ok {
		t.Fatalf("/v1/metrics has no uptime: %v", m["uptime"])
	}
	compared := 0
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		key, val := line[:i], line[i+1:]
		if strings.HasPrefix(key, "go_") || strings.HasPrefix(key, "http_") || key == "process_uptime_seconds" {
			continue
		}
		got, ok := m[key]
		if !ok { // a histogram's _count/_sum sample reads its summary object
			base, lbl, _ := strings.Cut(key, "{")
			for _, field := range []string{"count", "sum"} {
				if h, isHist := strings.CutSuffix(base, "_"+field); isHist {
					if lbl != "" {
						h += "{" + lbl
					}
					if q, isSummary := m[h].(map[string]any); isSummary {
						got, ok = q[field], true
					}
				}
			}
		}
		if !ok {
			t.Errorf("/v1/metrics lacks %s", key)
			continue
		}
		want, err := strconv.ParseFloat(val, 64)
		if f, isNum := got.(float64); err != nil || !isNum || f != want {
			t.Errorf("%s: /metrics %s, /v1/metrics %v", key, val, got)
		}
		compared++
	}
	if compared < 100 {
		t.Fatalf("compared only %d samples", compared)
	}

	// Each fact is counted once and read everywhere. Paid evaluations are
	// the random job's 200: mm scores its surrogate steps on the free path.
	// Every evaluation of the two searches misses the fresh cache.
	for series, want := range map[string]float64{
		`costmodel_evals_total{backend="timeloop"}`:               200,
		"eval_cache_misses_total":                                 300,
		`tenant_evals_total{tenant="acme"}`:                       200,
		`tenant_evals_total{tenant="anon"}`:                       100,
		"search_jobs_submitted_total":                             3,
		"search_jobs_done_total":                                  3,
		`http_requests_total{route="POST /v1/search",code="2xx"}`: 3,
		"atlas_hits_total":                                        1,
		"atlas_neighbor_total":                                    1,
		"atlas_cold_total":                                        1,
		"atlas_writebacks_total":                                  2,
		"admission_admitted_total":                                2,
		"admission_rejected_total":                                1,
		"admission_shed_total":                                    1,
		`tenant_rejected_total{tenant="acme",code="429"}`:         1,
		`tenant_rejected_total{tenant="acme",code="503"}`:         1,
		"trainer_jobs_done_total":                                 1,
		`slo_compliance_ratio{objective="availability"}`:          1,
	} {
		if got := metric(t, m, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	// The atlas hit is answered at submit: only the two searches were
	// queued, ran and reached a first evaluation.
	for _, name := range []string{"search_job_queue_seconds", "search_job_run_seconds", "search_job_first_eval_seconds"} {
		h, _ := m[name].(map[string]any)
		if h["count"] != 2.0 {
			t.Errorf("%s count = %v, want 2", name, h["count"])
		}
	}
	run, _ := m["search_job_run_seconds"].(map[string]any)
	if p50, _ := run["p50"].(float64); !(p50 > 0 && p50 <= run["p99"].(float64)) {
		t.Errorf("search_job_run_seconds quantiles %v", run)
	}
}

// pinnedFamilies is the /metrics contract after TestPrometheusExposition's
// traffic: family name, type and label names. perfbench parses several of
// these (eval_cache_*, http_request_seconds, atlas_lookup_seconds,
// search_job_*_seconds, costmodel_evals_total, infer_batch_*).
var pinnedFamilies = []string{
	"admission_admitted_total counter",
	"admission_in_flight gauge",
	"admission_rejected_total counter",
	"admission_retry_after_hint_seconds gauge",
	"admission_shed_total counter",
	"atlas_cold_total counter",
	"atlas_entries gauge",
	"atlas_hits_total counter",
	"atlas_lookup_seconds histogram",
	"atlas_neighbor_total counter",
	"atlas_writebacks_total counter",
	"build_info gauge go_version,module,revision",
	"costmodel_eval_seconds histogram backend",
	"costmodel_evals_total counter backend",
	"eval_cache_capacity gauge",
	"eval_cache_entries gauge",
	"eval_cache_hits_total counter",
	"eval_cache_misses_total counter",
	"eval_cache_utilization gauge",
	"go_gc_pause_seconds_total counter",
	"go_gc_runs_total counter",
	"go_goroutines gauge",
	"go_heap_alloc_bytes gauge",
	"http_request_seconds histogram route",
	"http_requests_in_flight gauge",
	"http_requests_total counter route,code",
	"infer_batch_dropped_total counter model",
	"infer_batch_flushes_total counter model,reason",
	"infer_batch_queue_rows gauge model",
	"infer_batch_rows histogram model",
	"infer_batch_wait_seconds histogram model",
	"model_registry_disk_loads_total counter",
	"model_registry_loaded gauge",
	"obs_dropped_labels_total counter",
	"obs_dropped_spans_total counter",
	"process_uptime_seconds counter",
	"search_convergence_evals_to_10pct histogram algo,assist",
	"search_convergence_stall_fraction histogram algo,assist",
	"search_job_first_eval_seconds histogram",
	"search_job_journal_errors_total counter",
	"search_job_queue_seconds histogram",
	"search_job_run_seconds histogram",
	"search_job_workers gauge",
	"search_jobs_cancelled_total counter",
	"search_jobs_degraded_total counter",
	"search_jobs_done_total counter",
	"search_jobs_failed_total counter",
	"search_jobs_queued gauge",
	"search_jobs_recovered_total counter",
	"search_jobs_running gauge",
	"search_jobs_submitted_total counter",
	"slo_burn_rate gauge objective,window",
	"slo_compliance_ratio gauge objective",
	"slo_error_budget_remaining gauge objective",
	"slo_health_score gauge",
	"slo_target gauge objective",
	"store_artifacts gauge",
	"store_workloads gauge",
	"tenant_atlas_hits_total counter tenant",
	"tenant_cache_hits_total counter tenant",
	"tenant_cache_misses_total counter tenant",
	"tenant_evals_total counter tenant",
	"tenant_job_seconds histogram tenant",
	"tenant_jobs_cancelled_total counter tenant",
	"tenant_jobs_degraded_total counter tenant",
	"tenant_jobs_done_total counter tenant",
	"tenant_jobs_failed_total counter tenant",
	"tenant_rejected_total counter tenant,code",
	"tenant_requests_total counter tenant",
	"trainer_jobs_cancelled_total counter",
	"trainer_jobs_done_total counter",
	"trainer_jobs_failed_total counter",
	"trainer_jobs_queued gauge",
	"trainer_jobs_running gauge",
	"trainer_jobs_submitted_total counter",
}

// TestJobEventsSSE pins the live-trajectory contract: the SSE stream
// replays history then live samples, best-so-far never rises, eval indices
// never fall, and the final frame carries the terminal status.
func TestJobEventsSSE(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "ga", Evals: 2000, Seed: 7,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := sseEvents(t, bufio.NewScanner(sresp.Body))
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	last := events[len(events)-1]
	if last.Status != JobDone {
		t.Fatalf("final event: %+v", last)
	}
	if last.Eval != 2000 || last.BestEDP <= 0 {
		t.Fatalf("final event incomplete: %+v", last)
	}
	best := 0.0
	eval := 0
	for i, ev := range events {
		if ev.Eval < eval {
			t.Fatalf("event %d: eval fell from %d to %d", i, eval, ev.Eval)
		}
		eval = ev.Eval
		if ev.BestEDP == 0 {
			continue // the initial queued/running frame has no sample yet
		}
		if best != 0 && ev.BestEDP > best {
			t.Fatalf("event %d: best rose from %v to %v", i, best, ev.BestEDP)
		}
		best = ev.BestEDP
	}
	// A late subscriber to the finished job still gets the retained tail
	// and an immediate close.
	lresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	late := sseEvents(t, bufio.NewScanner(lresp.Body))
	if len(late) == 0 || late[len(late)-1].Status != JobDone {
		t.Fatalf("late subscriber got %d events", len(late))
	}
}

// TestSSEDisconnectDoesNotLeak pins that a client dropping mid-stream
// releases the handler goroutine and its stream subscription (run under
// -race in CI).
func TestSSEDisconnectDoesNotLeak(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Time: "30s", Seed: 3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame to prove the stream is live, then drop the client.
	br := bufio.NewReader(sresp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancelReq()
	sresp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d never returned to baseline %d after disconnect", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Tear the long job down promptly.
	dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+job.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
}

// TestJobTraceEndpoint pins span nesting under concurrent jobs: every
// job's trace has its own root with queue-wait, resolve-model, search,
// and bounded stride children carrying monotone eval attributes.
func TestJobTraceEndpoint(t *testing.T) {
	ts, _, _ := testServer(t, 4, 16)
	const n = 4
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		job, resp := postSearch(t, ts, SearchRequest{
			Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "sa", Evals: 500, Seed: int64(i),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids[i] = job.ID
	}
	for _, id := range ids {
		waitJob(t, ts, id, time.Minute)
	}
	for _, id := range ids {
		tresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			ID     string           `json:"id"`
			Trace  obs.SpanSnapshot `json:"trace"`
			Events []ProgressEvent  `json:"events"`
		}
		err = json.NewDecoder(tresp.Body).Decode(&body)
		tresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		root := body.Trace
		if root.Name != "search-job" || root.Running {
			t.Fatalf("root: %+v", root)
		}
		if root.Attrs["status"] != string(JobDone) {
			t.Fatalf("root attrs: %v", root.Attrs)
		}
		if _, ok := root.Attrs["queue_wait_ms"]; !ok {
			t.Fatalf("missing queue_wait_ms: %v", root.Attrs)
		}
		names := map[string]obs.SpanSnapshot{}
		for _, c := range root.Children {
			names[c.Name] = c
		}
		for _, want := range []string{"resolve-model", "search"} {
			c, ok := names[want]
			if !ok {
				t.Fatalf("job %s trace missing %q span: %+v", id, want, root.Children)
			}
			if c.Running || c.DurationMS < 0 || c.StartMS < 0 {
				t.Fatalf("span %q: %+v", want, c)
			}
		}
		search := names["search"]
		if len(search.Children) == 0 {
			t.Fatalf("search span has no stride children")
		}
		if len(search.Children) > obs.MaxChildren {
			t.Fatalf("stride children unbounded: %d", len(search.Children))
		}
		lastEval := -1
		for _, stride := range search.Children {
			if stride.Name != "stride" {
				t.Fatalf("unexpected child %q", stride.Name)
			}
			ev, ok := stride.Attrs["eval"].(float64) // JSON numbers decode as float64
			if !ok || int(ev) <= lastEval {
				t.Fatalf("stride evals not increasing: %v after %d", stride.Attrs["eval"], lastEval)
			}
			lastEval = int(ev)
		}
		if len(body.Events) == 0 || body.Events[len(body.Events)-1].Status != JobDone {
			t.Fatalf("trace events incomplete: %d events", len(body.Events))
		}
	}
}

// TestUnknownJobObsEndpoints pins 404s for unknown ids.
func TestUnknownJobObsEndpoints(t *testing.T) {
	ts, _, _ := testServer(t, 1, 4)
	for _, path := range []string{"/v1/jobs/nope/trace", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
}

package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 (10 samples beyond)", p90, err)
	}
	p50, err := percentile(xs, 0.5)
	if err != nil || p50 != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", p50, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it; want an error")
	}
	if _, err := percentile(xs[:20], 0.5); err != nil {
		t.Fatalf("p50 of 20 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it; want an error")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of nothing: want an error")
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(1,4,16) = %v, %v; want 4", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.Inf(1)}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v): want an error", bad)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}

const before = `# HELP http_request_seconds HTTP request latency by route.
# TYPE http_request_seconds histogram
http_request_seconds_bucket{route="POST /v1/search",le="0.001"} 3
http_request_seconds_sum{route="POST /v1/search"} 0.5
http_request_seconds_count{route="POST /v1/search"} 10
http_request_seconds_sum{route="GET /metrics"} 7
http_request_seconds_count{route="GET /metrics"} 2
infer_batch_flushes_total{model="m",reason="full"} 1
infer_batch_flushes_total{model="m",reason="window"} 1
eval_cache_entries 10
`

const after = `http_request_seconds_sum{route="POST /v1/search"} 0.8
http_request_seconds_count{route="POST /v1/search"} 13
http_request_seconds_sum{route="GET /metrics"} 9
http_request_seconds_count{route="GET /metrics"} 3
infer_batch_flushes_total{model="m",reason="full"} 4
infer_batch_flushes_total{model="m",reason="window"} 2
infer_batch_flushes_total{model="m",reason="anti-stall"} 2
eval_cache_entries 65536
search_job_queue_seconds_sum 0
search_job_queue_seconds_count 0
`

func TestPromDelta(t *testing.T) {
	b, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := a.delta(b)
	if got := d.histMean("http_request_seconds", `route="POST /v1/search"`); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("POST mean over the interval = %v, want 0.3/3 = 0.1", got)
	}
	if got := d.sum("infer_batch_flushes_total"); got != 6 {
		t.Errorf("flushes over the interval = %v, want 3+1+2 (a new series counts from 0)", got)
	}
	if got := d.sum("infer_batch_flushes_total", `reason="window"`); got != 1 {
		t.Errorf("window flushes = %v, want 1", got)
	}
	if got := d.histMean("search_job_queue_seconds"); got != 0 {
		t.Errorf("mean of an unobserved histogram = %v, want 0", got)
	}
	if a["eval_cache_entries"] != 65536 {
		t.Errorf("gauge = %v", a["eval_cache_entries"])
	}
	if _, err := parseProm(strings.NewReader("metric_without_value\n")); err == nil {
		t.Error("want an error for a line without a value")
	}
	if _, err := parseProm(strings.NewReader("m{a=\"b\"} x\n")); err == nil {
		t.Error("want an error for a non-numeric value")
	}
}

func TestBestAtTimeNeverBackfills(t *testing.T) {
	traj := []trajPoint{
		{Eval: 1, ElapsedMS: 2, BestEDP: 9},
		{Eval: 2, ElapsedMS: 5, BestEDP: 7},
		{Eval: 3, ElapsedMS: 30, BestEDP: 3},
	}
	if b, ok := bestAtTime(traj, 10); !ok || b != 7 {
		t.Errorf("best at 10ms = %v, %v; want 7 (the later, better sample is not yet taken)", b, ok)
	}
	if b, ok := bestAtTime(traj, 5); !ok || b != 7 {
		t.Errorf("best at 5ms = %v, %v; want 7 (a sample exactly at T counts)", b, ok)
	}
	if b, ok := bestAtTime(traj, 1); ok {
		t.Errorf("best at 1ms = %v; want no sample, not the final best", b)
	}
	if _, ok := bestAtTime(nil, 100); ok {
		t.Error("an empty trajectory has no sample at any time")
	}
	if b, ok := bestAtTime(traj, 1e9); !ok || b != 3 {
		t.Errorf("best after the run = %v, %v; want the final 3", b, ok)
	}
}

func TestStratifiedBalancesEveryBlock(t *testing.T) {
	values := [][]int{{1, 2}, {10, 20, 30}, {7}}
	next := stratified(values, rand.New(rand.NewSource(3)))
	for block := 0; block < 3; block++ {
		counts := map[int]int{}
		for i := 0; i < 6; i++ { // lcm(2, 3, 1)
			for _, v := range next() {
				counts[v]++
			}
		}
		want := map[int]int{1: 3, 2: 3, 10: 2, 20: 2, 30: 2, 7: 6}
		for v, n := range want {
			if counts[v] != n {
				t.Fatalf("block %d: value %d drawn %d times, want %d (%v)", block, v, counts[v], n, counts)
			}
		}
	}
}

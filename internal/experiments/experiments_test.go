package experiments

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mindmappings/internal/search"
)

// The harness trains surrogates on first use; share one across tests,
// along with the Figure 5/6 comparisons several tests inspect.
var (
	harnessOnce sync.Once
	harnessFix  *Harness

	isoIterOnce, isoTimeOnce sync.Once
	isoIterCmp, isoTimeCmp   *Comparison
	isoIterErr, isoTimeErr   error
)

func isoIterationFast(t *testing.T) *Comparison {
	t.Helper()
	h := fastHarness(t)
	isoIterOnce.Do(func() { isoIterCmp, isoIterErr = h.RunIsoIteration() })
	if isoIterErr != nil {
		t.Fatal(isoIterErr)
	}
	return isoIterCmp
}

func isoTimeFast(t *testing.T) *Comparison {
	t.Helper()
	h := fastHarness(t)
	isoTimeOnce.Do(func() { isoTimeCmp, isoTimeErr = h.RunIsoTime() })
	if isoTimeErr != nil {
		t.Fatal(isoTimeErr)
	}
	return isoTimeCmp
}

func fastHarness(t testing.TB) *Harness {
	t.Helper()
	harnessOnce.Do(func() {
		opts := Defaults(true)
		opts.IsoIterations = 200
		opts.IsoTime = 250 * time.Millisecond
		opts.QueryLatency = 500 * time.Microsecond
		opts.SpaceSamples = 600
		harnessFix = New(opts)
	})
	return harnessFix
}

func TestDefaults(t *testing.T) {
	fast := Defaults(true)
	if !fast.Fast || fast.Repeats != 1 {
		t.Fatalf("fast defaults: %+v", fast)
	}
	full := Defaults(false)
	if full.Fast || full.IsoIterations != 1000 {
		t.Fatalf("full defaults: %+v", full)
	}
	if full.Repeats < 2 {
		t.Fatal("full defaults must average repeats")
	}
}

func TestProblemsSelection(t *testing.T) {
	h := fastHarness(t)
	probs, err := h.Problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 {
		t.Fatalf("fast problems = %d, want 2", len(probs))
	}
	full := New(Defaults(false))
	probsFull, err := full.Problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(probsFull) != 8 {
		t.Fatalf("full problems = %d, want 8 (Table 1)", len(probsFull))
	}
}

func TestSurrogateCaching(t *testing.T) {
	h := fastHarness(t)
	a, err := h.Surrogate("cnn-layer")
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Surrogate("cnn-layer")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("surrogate not cached")
	}
	if _, err := h.Surrogate("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestTable1Render(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	if err := h.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ResNet_Conv_3", "MTTKRP_1", "AlexNet_Conv_2"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 1 output missing %s:\n%s", want, buf.String())
		}
	}
}

func TestCostSurface(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	st, err := h.CostSurface(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Points < 20 {
		t.Fatalf("only %d surface points", st.Points)
	}
	if st.MaxEDP <= st.MinEDP {
		t.Fatal("flat cost surface — no mapping sensitivity")
	}
	// The paper's core premise: the surface is rugged. Adjacent tile-size
	// choices must change EDP substantially relative to the mean.
	if st.Ruggedness < 0.05 {
		t.Fatalf("ruggedness %v too low; surface unexpectedly smooth", st.Ruggedness)
	}
}

func TestSpaceStats(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	chars, err := h.SpaceStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != 2 {
		t.Fatalf("%d algorithms characterized", len(chars))
	}
	for _, c := range chars {
		if c.EnergyMean <= 1 {
			t.Fatalf("%s mean normalized energy %v <= 1", c.Algo, c.EnergyMean)
		}
		if c.EnergyStd <= 0 {
			t.Fatalf("%s zero energy variance", c.Algo)
		}
		for name, lg := range c.SizeLog10 {
			if lg < 10 {
				t.Fatalf("%s map space exponent %v implausibly small", name, lg)
			}
		}
	}
}

func TestIsoIterationFast(t *testing.T) {
	cmp := isoIterationFast(t)
	if len(cmp.Problems) != 2 {
		t.Fatalf("%d problems", len(cmp.Problems))
	}
	for _, pc := range cmp.Problems {
		if len(pc.Series) != 5 {
			t.Fatalf("%s: %d methods, want 5", pc.Problem, len(pc.Series))
		}
		for _, s := range pc.Series {
			if s.FinalMean < 1 {
				t.Fatalf("%s/%s final EDP %v below lower bound", pc.Problem, s.Method, s.FinalMean)
			}
		}
		mm := pc.FinalFor("MM")
		rnd := pc.FinalFor("Random")
		if mm > rnd*2 {
			t.Errorf("%s: MM (%v) much worse than random (%v)", pc.Problem, mm, rnd)
		}
	}
	var buf bytes.Buffer
	cmp.Render(&buf)
	if !strings.Contains(buf.String(), "summary") {
		t.Fatal("render missing summary")
	}
	t.Logf("iso-iteration fast results:\n%s", buf.String())
}

func TestIsoTimeFast(t *testing.T) {
	cmp := isoTimeFast(t)
	for _, pc := range cmp.Problems {
		mm := pc.FinalFor("MM")
		if mm <= 0 {
			t.Fatalf("%s: no MM result", pc.Problem)
		}
	}
	var buf bytes.Buffer
	cmp.Render(&buf)
	t.Logf("iso-time fast results:\n%s", buf.String())
	// The mechanism behind Figure 6: MM performs many more steps per unit
	// time than latency-paying methods.
	for _, pc := range cmp.Problems {
		var mmEvals, saEvals float64
		for _, s := range pc.Series {
			switch s.Method {
			case "MM":
				mmEvals = s.EvalsMean
			case "SA":
				saEvals = s.EvalsMean
			}
		}
		if mmEvals < 2*saEvals {
			t.Errorf("%s: MM evals %v not clearly above SA evals %v under latency",
				pc.Problem, mmEvals, saEvals)
		}
	}
}

// renderedSeries parses Render's checkpoint rows back into one column of
// cells per method: "" where the table prints "-", else the mean.
func renderedSeries(t *testing.T, out string) [][]string {
	t.Helper()
	var tables [][]string
	inRows := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "x":
			inRows = true
			for range f[1:] {
				tables = append(tables, nil)
			}
		case len(f) > 0 && f[0] == "final":
			inRows = false
		case inRows && len(f) > 1:
			cols := tables[len(tables)-(len(f)-1):]
			for j, cell := range f[1:] {
				if cell == "-" {
					cell = ""
				}
				cols[j] = append(cols[j], cell)
			}
		}
	}
	return tables
}

// assertRenderedNonIncreasing renders cmp and checks the resampler
// contract: every method's best-so-far column is non-increasing, and a
// "-" (no mean yet) only ever precedes the first value — the final best
// is never back-filled into early checkpoints.
func assertRenderedNonIncreasing(t *testing.T, cmp *Comparison) {
	t.Helper()
	var buf bytes.Buffer
	cmp.Render(&buf)
	series := renderedSeries(t, buf.String())
	if len(series) == 0 {
		t.Fatalf("%s: no series parsed from:\n%s", cmp.Mode, buf.String())
	}
	for _, col := range series {
		prev := math.Inf(1)
		seen := false
		for i, cell := range col {
			if cell == "" {
				if seen {
					t.Fatalf("%s: checkpoint %d lost its mean after one was shown:\n%s", cmp.Mode, i, buf.String())
				}
				continue
			}
			seen = true
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s: bad cell %q", cmp.Mode, cell)
			}
			if v > prev {
				t.Fatalf("%s: series rises from %v to %v at checkpoint %d:\n%s", cmp.Mode, prev, v, i, buf.String())
			}
			prev = v
		}
		if !seen {
			t.Fatalf("%s: a method has no mean at any checkpoint:\n%s", cmp.Mode, buf.String())
		}
	}
}

// TestRenderedSeriesNonIncreasing pins the resampler fix on the Figure 5
// and Figure 6 tables.
func TestRenderedSeriesNonIncreasing(t *testing.T) {
	for _, cmp := range []*Comparison{isoIterationFast(t), isoTimeFast(t)} {
		assertRenderedNonIncreasing(t, cmp)
	}
}

// TestCheckpointMeansWaitForEveryRepeat averages two repeats whose first
// samples come at different times. Averaging only the repeats that had
// started would print 10 at 1ms and then 20 at 2ms, a rise; the mean
// instead waits until both repeats have a sample.
func TestCheckpointMeansWaitForEveryRepeat(t *testing.T) {
	runs := []search.Result{
		{Trajectory: []search.Sample{{Eval: 1, Elapsed: time.Millisecond, BestEDP: 10}, {Eval: 3, Elapsed: 3 * time.Millisecond, BestEDP: 5}}},
		{Trajectory: []search.Sample{{Eval: 2, Elapsed: 2 * time.Millisecond, BestEDP: 30}, {Eval: 3, Elapsed: 3 * time.Millisecond, BestEDP: 4}}},
	}
	for _, tc := range []struct {
		mode        string
		checkpoints []float64
	}{
		{"iso-iteration", []float64{1, 2, 4}},
		{"iso-time", []float64{float64(time.Millisecond), float64(2 * time.Millisecond), float64(4 * time.Millisecond)}},
	} {
		means, counts := checkpointMeans(runs, tc.checkpoints, tc.mode)
		if !math.IsNaN(means[0]) || means[1] != 20 || means[2] != 4.5 {
			t.Errorf("%s: means %v, want [NaN 20 4.5]", tc.mode, means)
		}
		if !slices.Equal(counts, []int{1, 2, 2}) {
			t.Errorf("%s: counts %v, want [1 2 2]", tc.mode, counts)
		}
		cmp := &Comparison{Mode: tc.mode, Problems: []ProblemComparison{{Problem: "p", Series: []MethodSeries{
			{Method: "M", Checkpoints: tc.checkpoints, Values: means, Counts: counts},
		}}}}
		assertRenderedNonIncreasing(t, cmp)
	}
}

func TestPerStepCost(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	costs, err := h.PerStepCost(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StepCost{}
	for _, c := range costs {
		byName[c.Method] = c
	}
	if byName["SA"].RatioToMM < 2 {
		t.Errorf("SA per-step ratio %v; expected latency-dominated slowdown", byName["SA"].RatioToMM)
	}
	if byName["RL"].RatioToMM < byName["SA"].RatioToMM {
		t.Errorf("RL (%v) should be at least as slow per step as SA (%v)",
			byName["RL"].RatioToMM, byName["SA"].RatioToMM)
	}
	t.Logf("per-step costs:\n%s", buf.String())
}

func TestCostModelHeadToHead(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	runs, err := h.CostModelHeadToHead(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 2 {
		t.Fatalf("expected runs for >= 2 backends, got %d", len(runs))
	}
	seen := map[string]bool{}
	for _, run := range runs {
		seen[run.SearchedWith] = true
		if run.Evals != h.Options().IsoIterations {
			t.Fatalf("%s run used %d evals", run.SearchedWith, run.Evals)
		}
		if len(run.ScoredBy) != len(runs) {
			t.Fatalf("%s winner scored by %d backends, want %d", run.SearchedWith, len(run.ScoredBy), len(runs))
		}
		// Self-score and the search's own best agree up to float
		// association (the tracker normalizes e*d, the scorer EDP/MinEDP).
		if got := run.ScoredBy[run.SearchedWith]; math.Abs(got-run.NativeEDP) > 1e-9*run.NativeEDP {
			t.Fatalf("%s self-score %v != native %v", run.SearchedWith, got, run.NativeEDP)
		}
		for scorer, edp := range run.ScoredBy {
			if edp < 1-1e-9 {
				t.Fatalf("%s scored %s's winner below the lower bound: %v", scorer, run.SearchedWith, edp)
			}
		}
	}
	if !seen["timeloop"] || !seen["roofline"] {
		t.Fatalf("missing a built-in backend: %v", seen)
	}
	for _, want := range []string{"head-to-head", "timeloop", "roofline"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, buf.String())
		}
	}
}

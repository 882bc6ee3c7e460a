package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie above the rank, so a
// reported tail always has a tail behind it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// geomean returns the geometric mean of xs, all of which must be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geomean of non-positive or infinite value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trajPoint is one best-so-far sample of a served job's trajectory.
type trajPoint struct {
	Eval      int     `json:"eval"`
	ElapsedMS float64 `json:"elapsed_ms"`
	BestEDP   float64 `json:"best_edp"`
}

// bestAtTime returns the best EDP a trajectory had recorded by tMS
// milliseconds of search time. It never back-fills: a trajectory with no
// sample at or before tMS reports ok=false rather than its final best.
func bestAtTime(traj []trajPoint, tMS float64) (best float64, ok bool) {
	for _, p := range traj {
		if p.ElapsedMS > tMS {
			break
		}
		best, ok = p.BestEDP, true
	}
	return best, ok
}

// promSample is a flat Prometheus text exposition: series (name plus
// label set, exactly as exposed) to value.
type promSample map[string]float64

// parseProm reads Prometheus text format 0.0.4, skipping comments.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces
		// ("POST /v1/search") but never after the closing brace.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// delta returns after−before for every series in after (a series absent
// before counts from 0).
func (after promSample) delta(before promSample) promSample {
	out := promSample{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the metric name whose labels contain all of the
// given name="value" pairs. With no pairs it sums all of the name's series.
func (s promSample) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		base, lbl, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// histMean is the mean observation of a histogram over an interval, from
// the delta of its _sum and _count series; 0 when nothing was observed.
func (s promSample) histMean(name string, labels ...string) float64 {
	n := s.sum(name+"_count", labels...)
	if n == 0 {
		return 0
	}
	return s.sum(name+"_sum", labels...) / n
}

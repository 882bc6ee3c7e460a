package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// client is one closed-loop caller holding a single keep-alive
// connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClients(base string) []*client {
	cs := make([]*client, nClients)
	for i := range cs {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		cs[i] = &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
	}
	return cs
}

// jobView is the part of a job record the benchmark checks.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		BestEDP    float64     `json:"best_edp"`
		Degraded   bool        `json:"degraded"`
		Source     string      `json:"source"`
		Trajectory []trajPoint `json:"trajectory"`
	} `json:"result"`
}

// outcome is one job as a client saw it.
type outcome struct {
	job     job
	latency time.Duration // POST sent → terminal SSE frame received
	frames  int           // SSE frames received
	view    jobView       // the final GET /v1/jobs/{id}
	err     error         // refused, failed, or a protocol error
}

// ok reports whether the job ended done, undegraded, with a result.
func (o *outcome) ok() bool {
	return o.err == nil && o.view.Status == "done" && o.view.Result != nil && !o.view.Result.Degraded
}

// run submits one search, waits on its event stream for the terminal
// frame, then fetches the finished record.
func (c *client) run(j job, body string) outcome {
	o := outcome{job: j}
	start := time.Now()
	var sub jobView
	code, err := c.doJSON("POST", "/v1/search", body, &sub)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/search refused with %d", code)
	}
	if err != nil {
		o.err = err
		return o
	}
	if o.frames, err = c.awaitTerminal(sub.ID); err != nil {
		o.err = err
		return o
	}
	o.latency = time.Since(start)
	if code, err = c.doJSON("GET", "/v1/jobs/"+sub.ID, "", &o.view); err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET job %s: status %d", sub.ID, code)
	}
	if err == nil && !o.ok() {
		err = fmt.Errorf("job %s ended %s (degraded=%v) %s", sub.ID, o.view.Status,
			o.view.Result != nil && o.view.Result.Degraded, o.view.Error)
	}
	o.err = err
	return o
}

// awaitTerminal reads the job's SSE stream until a frame carries a
// terminal status, then drains the (closing) stream so the connection is
// reused. It returns the number of frames received.
func (c *client) awaitTerminal(id string) (int, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events for %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	frames := 0
	for sc.Scan() {
		data, found := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !found {
			continue
		}
		frames++
		var ev struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return frames, fmt.Errorf("events for %s: %w", id, err)
		}
		if ev.Status == "done" || ev.Status == "failed" || ev.Status == "cancelled" {
			_, err := io.Copy(io.Discard, resp.Body)
			return frames, err
		}
	}
	if err := sc.Err(); err != nil {
		return frames, err
	}
	return frames, fmt.Errorf("events for %s ended without a terminal frame", id)
}

// doJSON sends a request and decodes a JSON response into out.
func (c *client) doJSON(method, path, body string, out any) (int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// scrape fetches and parses the server's Prometheus exposition.
func (c *client) scrape() (promSample, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// drive runs every client in a closed loop: each takes the next job from
// jobs, runs it, calls after (outside the lock, with its own client), and
// repeats until jobs are exhausted or more reports false. more sees the
// number of jobs finished so far. Outcomes come back in issue order.
func drive(cs []*client, w workload, model string, jobs []job, more func(finished int) bool, after func(c *client)) []outcome {
	var (
		mu       sync.Mutex
		next     int
		finished int
		wg       sync.WaitGroup
	)
	results := make([]*outcome, len(jobs))
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(jobs) || !more(finished) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				o := c.run(jobs[i], w.body(jobs[i], model))
				if after != nil {
					after(c)
				}
				mu.Lock()
				results[i] = &o
				finished++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	var ordered []outcome
	for _, o := range results {
		if o != nil {
			ordered = append(ordered, *o)
		}
	}
	return ordered
}

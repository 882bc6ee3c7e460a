package service

import (
	"mindmappings/internal/costmodel"
	"mindmappings/internal/obs"
)

// Per-tenant accounting. Every accepted submission resolves the tenant's
// instrument set once (registry lookups are setup-cost, never hot-path) and
// pins it on the Job, so the finish path under jm.mu touches only atomics.
// Label cardinality is bounded by the registry's per-family cap: a flood of
// distinct X-Tenant values collapses into the shared "_overflow" series and
// shows up in obs_dropped_labels_total instead of growing the registry.

// anonTenant is the metric label for the "" (anonymous) tenant.
const anonTenant = "anon"

// tenantLabel maps the raw X-Tenant value to its metric label value.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return anonTenant
	}
	return tenant
}

// tenantInstruments is one tenant's RED series: request rate, terminal
// outcomes (errors), whole-request latency, plus the capacity signals the
// per-tenant SLO conversation needs (evals consumed, cache and atlas hits).
type tenantInstruments struct {
	requests  *obs.Counter
	done      *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	degraded  *obs.Counter
	// evals accumulates cost-model evaluations consumed by the tenant's
	// finished jobs; atlasHits counts requests answered from the atlas.
	evals     *obs.Counter
	atlasHits *obs.Counter
	// cacheHits/cacheMisses attribute shared eval-cache traffic to the
	// tenant via the per-job cache wrapper (one atomic add per cache op).
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// jobSeconds is request latency submit→terminal (queue wait included:
	// that is what the tenant experiences).
	jobSeconds *obs.Histogram
	// quota and shed count admission rejections: 429 (rate or concurrency
	// quota) and 503 (load shedding).
	quota, shed *obs.Counter
}

// tenantFor returns (lazily registering) the tenant's instrument set, or
// nil before Instrument. Never call while holding jm.mu — registration
// takes the registry lock, and exposition callbacks take jm.mu under it.
func (jm *JobManager) tenantFor(tenant string) *tenantInstruments {
	in := jm.instruments()
	if in == nil {
		return nil
	}
	jm.tenantMu.Lock()
	defer jm.tenantMu.Unlock()
	if jm.tenants == nil {
		jm.tenants = make(map[string]*tenantInstruments)
	}
	if ti, ok := jm.tenants[tenant]; ok {
		return ti
	}
	names, vals := []string{"tenant"}, []string{tenantLabel(tenant)}
	ti := &tenantInstruments{
		requests: in.reg.CounterWith("tenant_requests_total",
			"Search submissions accepted per tenant (atlas hits included).", names, vals),
		done: in.reg.CounterWith("tenant_jobs_done_total",
			"Search jobs finished successfully per tenant.", names, vals),
		failed: in.reg.CounterWith("tenant_jobs_failed_total",
			"Search jobs that ended in an error per tenant.", names, vals),
		cancelled: in.reg.CounterWith("tenant_jobs_cancelled_total",
			"Search jobs cancelled per tenant.", names, vals),
		degraded: in.reg.CounterWith("tenant_jobs_degraded_total",
			"Search jobs completed degraded at their anytime deadline per tenant.", names, vals),
		evals: in.reg.CounterWith("tenant_evals_total",
			"Cost-model evaluations consumed by the tenant's finished jobs.", names, vals),
		atlasHits: in.reg.CounterWith("tenant_atlas_hits_total",
			"Requests answered from the atlas without a search, per tenant.", names, vals),
		cacheHits: in.reg.CounterWith("tenant_cache_hits_total",
			"Shared eval-cache hits attributed to the tenant's jobs.", names, vals),
		cacheMisses: in.reg.CounterWith("tenant_cache_misses_total",
			"Shared eval-cache misses attributed to the tenant's jobs.", names, vals),
		jobSeconds: in.reg.HistogramWith("tenant_job_seconds",
			"Whole-request latency per tenant, submission to terminal state.",
			nil, names, vals),
		quota: in.reg.CounterWith("tenant_rejected_total", rejectedHelp,
			[]string{"tenant", "code"}, []string{tenantLabel(tenant), "429"}),
		shed: in.reg.CounterWith("tenant_rejected_total", rejectedHelp,
			[]string{"tenant", "code"}, []string{tenantLabel(tenant), "503"}),
	}
	jm.tenants[tenant] = ti
	return ti
}

const rejectedHelp = "Admission rejections per tenant by HTTP code (429 quota, 503 shed)."

// accepted records one accepted submission.
func (ti *tenantInstruments) accepted() {
	if ti != nil {
		ti.requests.Inc()
	}
}

// rejected records one admission rejection by its HTTP code.
func (ti *tenantInstruments) rejected(code int) {
	switch {
	case ti == nil:
	case code == 503:
		ti.shed.Inc()
	default:
		ti.quota.Inc()
	}
}

// atlasServed records an exact-hit atlas answer (instant success).
func (ti *tenantInstruments) atlasServed() {
	if ti != nil {
		ti.requests.Inc()
		ti.atlasHits.Inc()
		ti.done.Inc()
	}
}

// finished records a job's terminal state. Called under jm.mu: every
// observation here is an atomic add on pre-resolved instruments.
func (ti *tenantInstruments) finished(job *Job, status JobStatus, result *JobResult) {
	if ti == nil {
		return
	}
	switch status {
	case JobDone:
		ti.done.Inc()
		if result != nil && result.Degraded {
			ti.degraded.Inc()
		}
	case JobFailed:
		ti.failed.Inc()
	case JobCancelled:
		ti.cancelled.Inc()
	}
	if result != nil {
		ti.evals.Add(int64(result.Evals))
	}
	if !job.Created.IsZero() && !job.Finished.IsZero() {
		ti.jobSeconds.Observe(job.Finished.Sub(job.Created).Seconds())
	}
}

// tenantCache attributes shared eval-cache traffic to one tenant: the hit
// path stays the inner cache's zero-allocation lookup plus one atomic add.
type tenantCache struct {
	inner  *EvalCache
	hits   *obs.Counter
	misses *obs.Counter
}

func (tc *tenantCache) count(hit bool) {
	if hit {
		tc.hits.Inc()
	} else {
		tc.misses.Inc()
	}
}

func (tc *tenantCache) Get(key string) (costmodel.Cost, bool) {
	c, ok := tc.inner.Get(key)
	tc.count(ok)
	return c, ok
}

func (tc *tenantCache) GetBytes(key []byte) (costmodel.Cost, bool) {
	c, ok := tc.inner.GetBytes(key)
	tc.count(ok)
	return c, ok
}

func (tc *tenantCache) Put(key string, c costmodel.Cost) { tc.inner.Put(key, c) }

// cacheFor wraps the shared eval cache with the job's tenant attribution
// (the plain cache when instruments are off).
func (jm *JobManager) cacheFor(ti *tenantInstruments) costmodel.Cache {
	if ti == nil || jm.cache == nil {
		return jm.cache
	}
	return &tenantCache{inner: jm.cache, hits: ti.cacheHits, misses: ti.cacheMisses}
}

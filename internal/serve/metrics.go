package serve

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// Metrics holds the service's operational counters. All fields are atomics;
// a Metrics value is safe for concurrent use. serviceCounters lists them in
// the order and under the names every metrics surface renders.
type Metrics struct {
	// Requests counts every HTTP request received, including errors.
	Requests atomic.Int64
	// EvalRequests counts POST /v1/eval/* requests.
	EvalRequests atomic.Int64
	// ExperimentRequests counts GET /v1/experiments/* requests.
	ExperimentRequests atomic.Int64
	// ResultsStreamed counts NDJSON result lines written across all eval
	// responses.
	ResultsStreamed atomic.Int64
	// CoalesceHits counts requests served by joining an in-flight or
	// completed Flight computation (environment builds and artifact
	// renders) instead of computing themselves.
	CoalesceHits atomic.Int64
	// InFlight is the number of requests currently being served.
	InFlight atomic.Int64
	// EnvCacheSize and ArtifactCacheSize mirror the Flight cache sizes as
	// of the last environment build or artifact render.
	EnvCacheSize      atomic.Int64
	ArtifactCacheSize atomic.Int64
	// CacheEvictions counts entries the env and artifact caches have
	// dropped to honor their LRU caps.
	CacheEvictions atomic.Int64
	// RateLimited counts requests rejected with 429 by the admission-control
	// middleware.
	RateLimited atomic.Int64
	// TokenLimited counts eval requests rejected with 429 by the spend-based
	// (completion-token budget) admission middleware.
	TokenLimited atomic.Int64
	// FailedExamples counts inline error rows streamed by continue-on-error
	// evals, across all tasks; per-task counts live in failedByTask.
	FailedExamples atomic.Int64
	// BreakerSheds counts eval requests rejected with 503 + Retry-After
	// because the target model's circuit breaker was open.
	BreakerSheds atomic.Int64

	// failedByTask breaks FailedExamples down by task id.
	failedByTask sync.Map // string → *atomic.Int64
}

// FailedExample records one streamed error row against the totals and the
// per-task breakdown.
func (m *Metrics) FailedExample(task string) {
	m.FailedExamples.Add(1)
	c, ok := m.failedByTask.Load(task)
	if !ok {
		c, _ = m.failedByTask.LoadOrStore(task, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)
}

// FailedByTask returns the per-task failed-example counts.
func (m *Metrics) FailedByTask() map[string]int64 {
	out := make(map[string]int64)
	m.failedByTask.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// NewMetrics returns zeroed metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// serviceCounters is the one table of service counters. Every metrics
// surface renders it: the /v1/metrics JSON and the expvar bridge under key,
// the Prometheus exposition as sqlserved_<key> with typ and help, in this
// order (so the scrape output is deterministic and diffable).
var serviceCounters = []struct {
	key  string
	typ  string // Prometheus type: "counter" or "gauge"
	help string
	load func(*Metrics) int64
}{
	{"requests_total", "counter", "HTTP requests received, including errors.",
		func(m *Metrics) int64 { return m.Requests.Load() }},
	{"eval_requests", "counter", "POST /v1/eval/* requests received.",
		func(m *Metrics) int64 { return m.EvalRequests.Load() }},
	{"experiment_requests", "counter", "GET /v1/experiments/* requests received.",
		func(m *Metrics) int64 { return m.ExperimentRequests.Load() }},
	{"results_streamed", "counter", "NDJSON eval result lines written.",
		func(m *Metrics) int64 { return m.ResultsStreamed.Load() }},
	{"coalesce_hits", "counter", "Requests served by joining an in-flight or cached computation.",
		func(m *Metrics) int64 { return m.CoalesceHits.Load() }},
	{"in_flight", "gauge", "Requests currently being served.",
		func(m *Metrics) int64 { return m.InFlight.Load() }},
	{"env_cache_size", "gauge", "Cached evaluation environments.",
		func(m *Metrics) int64 { return m.EnvCacheSize.Load() }},
	{"artifact_cache_size", "gauge", "Cached rendered artifacts.",
		func(m *Metrics) int64 { return m.ArtifactCacheSize.Load() }},
	{"cache_evictions", "counter", "Cache entries evicted to honor LRU caps.",
		func(m *Metrics) int64 { return m.CacheEvictions.Load() }},
	{"rate_limited", "counter", "Requests rejected 429 by request-rate admission control.",
		func(m *Metrics) int64 { return m.RateLimited.Load() }},
	{"token_limited", "counter", "Eval requests rejected 429 by the completion-token budget.",
		func(m *Metrics) int64 { return m.TokenLimited.Load() }},
	{"failed_examples", "counter", "Inline error rows streamed by continue-on-error evals.",
		func(m *Metrics) int64 { return m.FailedExamples.Load() }},
	{"breaker_sheds", "counter", "Eval requests rejected 503 while a model breaker was open.",
		func(m *Metrics) int64 { return m.BreakerSheds.Load() }},
}

// Snapshot returns a point-in-time view of the service counters, keyed as
// in serviceCounters.
func (m *Metrics) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(serviceCounters))
	for _, c := range serviceCounters {
		out[c.key] = c.load(m)
	}
	return out
}

// Publish registers the metrics under the given expvar name so they appear
// on /debug/vars alongside the runtime's memstats. Calling Publish twice
// with the same name panics (expvar semantics), so the binary does it once.
func (m *Metrics) Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}

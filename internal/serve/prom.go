package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/llm"
)

// promModelCounters are the per-model counters, one {model="..."} labeled
// sample per model with recorded stats.
var promModelCounters = []struct {
	name string
	help string
	load func(llm.ModelSnapshot) int64
}{
	{"requests", "Logical requests entering the model client.", func(m llm.ModelSnapshot) int64 { return m.Requests }},
	{"errors", "Requests that failed after any retrying.", func(m llm.ModelSnapshot) int64 { return m.Errors }},
	{"retries", "Retry attempts scheduled.", func(m llm.ModelSnapshot) int64 { return m.Retries }},
	{"rate_limited", "Requests made to wait for a rate-limit token.", func(m llm.ModelSnapshot) int64 { return m.RateLimited }},
	{"prompt_tokens", "Prompt tokens consumed.", func(m llm.ModelSnapshot) int64 { return m.PromptTokens }},
	{"completion_tokens", "Completion tokens consumed.", func(m llm.ModelSnapshot) int64 { return m.CompletionTokens }},
	{"breaker_opens", "Circuit-breaker transitions into the open state.", func(m llm.ModelSnapshot) int64 { return m.BreakerOpens }},
	{"breaker_fast_fails", "Requests shed by an open or probing breaker.", func(m llm.ModelSnapshot) int64 { return m.BreakerFastFails }},
	{"hedges_launched", "Hedged extra attempts raced.", func(m llm.ModelSnapshot) int64 { return m.HedgesLaunched }},
	{"hedges_won", "Requests answered by a hedge instead of the primary.", func(m llm.ModelSnapshot) int64 { return m.HedgesWon }},
}

// handleMetricsProm serves the counters of /v1/metrics in Prometheus text
// exposition format (version 0.0.4): service counters as sqlserved_*,
// per-task failure counts and per-model telemetry as labeled samples, and
// each model's latency histogram in cumulative-bucket form.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	s.syncCacheMetrics()
	var b bytes.Buffer

	for _, c := range serviceCounters {
		name := "sqlserved_" + c.key
		promHeader(&b, name, c.typ, c.help)
		fmt.Fprintf(&b, "%s %d\n", name, c.load(s.metrics))
	}

	if byTask := s.metrics.FailedByTask(); len(byTask) > 0 {
		tasks := make([]string, 0, len(byTask))
		for t := range byTask {
			tasks = append(tasks, t)
		}
		sort.Strings(tasks)
		promHeader(&b, "sqlserved_failed_examples_by_task", "counter",
			"Inline error rows streamed, by task.")
		for _, t := range tasks {
			fmt.Fprintf(&b, "sqlserved_failed_examples_by_task{task=%q} %d\n", t, byTask[t])
		}
	}

	models := s.llmStats.Snapshot()
	if len(models) > 0 {
		names := make([]string, 0, len(models))
		for name := range models {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, m := range promModelCounters {
			name := "sqlserved_model_" + m.name
			promHeader(&b, name, "counter", m.help)
			for _, model := range names {
				fmt.Fprintf(&b, "%s{model=%q} %d\n", name, model, m.load(models[model]))
			}
		}
		promHeader(&b, "sqlserved_model_latency_seconds", "histogram",
			"Model request latency.")
		for _, model := range names {
			h := &s.llmStats.Model(model).Latency
			for _, bkt := range h.Cumulative() {
				fmt.Fprintf(&b, "sqlserved_model_latency_seconds_bucket{model=%q,le=%q} %d\n",
					model, promLE(bkt.UpperBound), bkt.Count)
			}
			fmt.Fprintf(&b, "sqlserved_model_latency_seconds_sum{model=%q} %s\n",
				model, promFloat(h.Sum().Seconds()))
			fmt.Fprintf(&b, "sqlserved_model_latency_seconds_count{model=%q} %d\n",
				model, h.Count())
		}
	}

	spans, evicted := s.tracer.Snapshot()
	promHeader(&b, "sqlserved_trace_spans", "gauge", "Completed spans retained in the trace ring.")
	fmt.Fprintf(&b, "sqlserved_trace_spans %d\n", len(spans))
	promHeader(&b, "sqlserved_trace_evicted_total", "counter", "Spans evicted from the trace ring.")
	fmt.Fprintf(&b, "sqlserved_trace_evicted_total %d\n", evicted)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}

// promHeader writes the # HELP / # TYPE preamble of one metric family.
func promHeader(b *bytes.Buffer, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promLE renders a histogram bucket bound in seconds; UpperBound 0 is the
// final unbounded bucket, rendered as +Inf per the exposition format.
func promLE(d time.Duration) string {
	if d == 0 {
		return "+Inf"
	}
	return promFloat(d.Seconds())
}

// promFloat renders a float sample the exposition way: shortest decimal form,
// never scientific notation for the magnitudes in play here.
func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"runtime/metrics"
	"sort"
	"time"
)

// decl declares one metric perfbench prints. The lists below mirror
// BENCHMARK.json; metrics_test.go keeps the two in step.
type decl struct{ name, unit string }

// endToEnd are printed by every --trace 0 run. Each workload has one unit
// of work: the 22-experiment batch (reproduce), one verified build (build),
// one eval request at the nominal rate (serve), and op_p50_ms is its median
// time. That is wall time on reproduce; on serve it is the service time,
// from the moment a connection sent the request to its last response byte;
// on build it is the process CPU time of a build (build.go says why).
// max_rate_per_s is units per second: at the median on reproduce, nproc
// builds at the median CPU cost on build, and on serve the completion rate
// with every connection kept busy. heap_peak_mb is the peak live heap of a
// unit (its median over the run; on serve, over the serving run). The serve
// latencies from due time are per-layer figures: on a shared two-core host
// they move by half from run to run, wider than any bound.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"max_rate_per_s", "1/s"},
	{"heap_peak_mb", "MB"},
}

// exactUnit marks counts that repeat exactly from run to run: they come from
// a parallel-1 pass or from a deterministic schedule, so a later change may
// rest a claim on them.
const exactUnit = "count.exact"

// perLayer are printed by every --trace 1 run; layers a workload leaves idle
// report 0.
var perLayer = []decl{
	{"sqllex.calls", "count"},
	{"sqllex.self_ms", "ms"},
	{"sqlparse.calls", "count"},
	{"sqlparse.self_ms", "ms"},
	{"sqlparse.allocs_per_call", "count"},
	{"semcheck.calls", "count"},
	{"semcheck.self_ms", "ms"},
	{"repair.calls", "count"},
	{"repair.self_ms", "ms"},
	{"prompt.renders", "count"},
	{"prompt.self_ms", "ms"},
	{"respparse.calls", "count"},
	{"respparse.self_ms", "ms"},
	{"respparse.unparsed", "count"},
	{"core.examples", "count"},
	{"core.self_ms", "ms"},
	{"build.wall_p50_ms", "ms"},
	{"experiments.self_ms", "ms"},
	{"llm.requests", exactUnit},
	{"llm.prompt_tokens", exactUnit},
	{"llm.completion_tokens", exactUnit},
	{"llm.self_ms", "ms"},
	{"llm.errors", "count"},
	{"llm.retries", "count"},
	{"llm.first_seen_share", "ratio"},
	{"workload.self_ms", "ms"},
	{"equiv.checks", "count"},
	{"equiv.self_ms", "ms"},
	{"equiv.admitted_share", "ratio"},
	{"engine.queries", "count"},
	{"engine.self_ms", "ms"},
	{"engine.row_ops", exactUnit},
	{"store.wal_records", exactUnit},
	{"store.wal_bytes", exactUnit},
	{"store.pages_read", "count"},
	{"store.pages_written", "count"},
	{"store.pool_hit_rate", "ratio"},
	{"serve.requests", exactUnit},
	{"serve.self_ms", "ms"},
	{"serve.due_p50_ms", "ms"},
	{"serve.eval_tail_ms", "ms"},
	{"serve.first_line_ms_p50", "ms"},
	{"serve.bytes_out", "bytes"},
	{"serve.rejected", "count"},
	{"serve.gen_late_ms_p99", "ms"},
	{"obs.overhead_share", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"failed_share", "ratio"},
}

// metricName is the name grammar BENCHMARK.json accepts.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// report is one run's outcome: work attempted and failed, the metrics, and
// every correctness problem found. Any problem fails the run.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	problems          []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records a correctness problem.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "further problems suppressed")
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// encode renders the result line with exactly the declared metrics of the
// run's kind; a missing, extra or non-finite value is a bug in perfbench.
func (r *report) encode(traced bool) ([]byte, error) {
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range r.metrics {
		if _, ok := out.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared for this run", name)
		}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("the run attempted no work")
	}
	return json.Marshal(out)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMS returns the samples in milliseconds, ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// median of ascending values (0 for none).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// tail is the highest percentile of ascending values that still has at
// least ten samples beyond it: the value with exactly ten above it. Below
// 110 samples that percentile would fall under p90, so p90 stands in. The
// second result is the percentile reported.
func tail(sorted []float64) (float64, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n < 110 {
		return percentile(sorted, 0.9), 90
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of ascending values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// heapPeak samples the live Go heap (as marked by the latest GC, so garbage
// awaiting collection does not make the figure depend on GC timing) every
// few milliseconds until stopped. It keeps the highest value seen since the
// last lap, and the peak of every completed lap. runtime/metrics reads do
// not stop the world.
type heapPeak struct {
	lap   chan chan float64
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // one per completed lap, in MiB
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{lap: make(chan chan float64), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case reply := <-h.lap:
				reply <- float64(peak) / (1 << 20)
				peak = 0
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Lap records the peak live heap since the previous lap (or the start) and
// starts a new lap. A nil heapPeak ignores it.
func (h *heapPeak) Lap() {
	if h == nil {
		return
	}
	reply := make(chan float64)
	h.lap <- reply
	h.peaks = append(h.peaks, <-reply)
}

// Stop ends sampling and returns the median lap peak: the peak live heap of
// a typical unit of work.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	sort.Float64s(h.peaks)
	return median(h.peaks)
}

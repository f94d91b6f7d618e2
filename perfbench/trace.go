package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// spanLayer assigns each span name, the program's and the benchmark's, to the
// module it times. Names not listed belong to no layer.
var spanLayer = map[string]string{
	// program spans
	"bench.build":   "core",
	"task.cell":     "core",
	"task.example":  "core",
	"prompt.render": "prompt",
	"llm.request":   "llm",
	"llm.attempt":   "llm",
	"engine.exec":   "engine",
	"store.read":    "store",
	"store.write":   "store",
	"wal.append":    "store",
	"http.request":  "serve",
	// benchmark spans around its calls into each layer (experiments.env is
	// left out: the environment's own bench.build span covers its work)
	"experiment.run": "experiments",
	"core.build":     "core",
	"llm.call":       "llm",
	"equiv.check":    "equiv",
}

// layerStat is one layer's aggregate over a set of spans.
type layerStat struct {
	spans  int
	selfUS int64
}

// adopted names, for a benchmark span, the program spans it contains although
// they belong to another trace: experiments.NewEnvConfig roots the
// environment's spans in its own trace, so the cells an experiment computes
// are not linked to the benchmark's experiment.run span. Experiments run one
// at a time, so every cell overlapping an experiment.run span ran for it.
var adopted = map[string]string{"experiment.run": "task.cell"}

// selfTimes returns every span's self time in microseconds: its duration
// minus the union of its children's intervals, clipped to the span. Children
// that overlap (parallel work under one parent) are counted once, so self
// time never goes negative. Children are matched to parents by trace and
// span id, plus the adopted spans above.
func selfTimes(spans []obs.SpanRecord) []int64 {
	type key struct{ trace, span string }
	index := make(map[key]int, len(spans))
	for i, s := range spans {
		index[key{s.TraceID, s.SpanID}] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.ParentID == "" {
			continue
		}
		if p, ok := index[key{s.TraceID, s.ParentID}]; ok {
			kids[p] = append(kids[p], [2]int64{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	for i, s := range spans {
		name, ok := adopted[s.Name]
		if !ok {
			continue
		}
		for _, c := range spans {
			if c.Name == name && c.StartUS < s.StartUS+s.DurUS && c.StartUS+c.DurUS > s.StartUS {
				kids[i] = append(kids[i], [2]int64{c.StartUS, c.StartUS + c.DurUS})
			}
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.DurUS - unionWithin(s.StartUS, s.StartUS+s.DurUS, kids[i])
	}
	return out
}

// unionWithin is the length of the union of the intervals, clipped to
// [lo, hi].
func unionWithin(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	flush := func() {
		if open {
			a, b := max(curLo, lo), min(curHi, hi)
			if b > a {
				total += b - a
			}
		}
	}
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		flush()
		curLo, curHi, open = iv[0], iv[1], true
	}
	flush()
	return total
}

// layers aggregates span counts and self time per layer.
func layers(spans []obs.SpanRecord) map[string]layerStat {
	self := selfTimes(spans)
	out := map[string]layerStat{}
	for i, s := range spans {
		l, ok := spanLayer[s.Name]
		if !ok {
			continue
		}
		st := out[l]
		st.spans++
		st.selfUS += self[i]
		out[l] = st
	}
	return out
}

// countSpans counts spans by name.
func countSpans(spans []obs.SpanRecord, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// writeSpans writes the spans as NDJSON to <out>/trace/<workload>.ndjson and
// returns the path. Each traced run replaces its workload's file: a traced
// reproduce run records about 100 MB of spans.
func writeSpans(o options, spans []obs.SpanRecord) (string, error) {
	dir := filepath.Join(o.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, o.workload+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteNDJSON(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the run's spans and prints the per-layer table.
func finishTrace(o options, r *report, spans []obs.SpanRecord) error {
	path, err := writeSpans(o, spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(o.log, "%d spans written to %s\n", len(spans), path)
	printTable(o.log, o, r)
	return nil
}

// printTable writes the per-layer table of a traced run: the layer metrics
// grouped by module, in declaration order.
func printTable(w io.Writer, o options, r *report) {
	fmt.Fprintf(w, "per-layer metrics, workload %s, seed %d\n", o.workload, o.seed)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-26s %14.3f %s\n", d.name, r.metrics[d.name], d.unit)
	}
}

// runtimeDelta measures allocation and GC work over a phase.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// record stores the phase's allocated MiB, GC cycles and GC pause time.
func (d *runtimeDelta) record(r *report) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.metrics["runtime.alloc_mb"] = float64(after.TotalAlloc-d.before.TotalAlloc) / (1 << 20)
	r.metrics["runtime.gc_cycles"] = float64(after.NumGC - d.before.NumGC)
	r.metrics["runtime.gc_pause_ms"] = ms(time.Duration(after.PauseTotalNs - d.before.PauseTotalNs))
}

// recordLayers stores the span-derived layer metrics every workload shares.
func recordLayers(r *report, spans []obs.SpanRecord) {
	ls := layers(spans)
	r.metrics["core.self_ms"] = float64(ls["core"].selfUS) / 1000
	r.metrics["experiments.self_ms"] = float64(ls["experiments"].selfUS) / 1000
	r.metrics["prompt.self_ms"] = float64(ls["prompt"].selfUS) / 1000
	r.metrics["llm.self_ms"] = float64(ls["llm"].selfUS) / 1000
	r.metrics["engine.self_ms"] = float64(ls["engine"].selfUS) / 1000
	r.metrics["core.examples"] = float64(countSpans(spans, "task.example"))
	r.metrics["prompt.renders"] = float64(countSpans(spans, "prompt.render"))
	r.metrics["engine.queries"] = float64(countSpans(spans, "engine.exec"))
}

// zero sets every per-layer metric not yet measured to 0: the layers the
// workload leaves idle.
func (r *report) zeroUnmeasured() {
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = 0
		}
	}
}

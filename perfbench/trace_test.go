package main

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/obs"
)

func span(trace, id, parent, name string, start, dur int64) obs.SpanRecord {
	return obs.SpanRecord{TraceID: trace, SpanID: id, ParentID: parent, Name: name, StartUS: start, DurUS: dur}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	// A cell whose examples ran in parallel: the children cover [10, 90]
	// together, 180 µs in sum. Subtracting the sum would give -80.
	spans := []obs.SpanRecord{
		span("t", "p", "", "task.cell", 0, 100),
		span("t", "a", "p", "task.example", 10, 80),
		span("t", "b", "p", "task.example", 10, 80),
		span("t", "c", "p", "task.example", 40, 20),
	}
	self := selfTimes(spans)
	if self[0] != 20 {
		t.Errorf("parent self time %d, want 20", self[0])
	}
	for i := 1; i < len(spans); i++ {
		if self[i] != spans[i].DurUS {
			t.Errorf("leaf %s self time %d, want its duration %d", spans[i].SpanID, self[i], spans[i].DurUS)
		}
	}
}

func TestSelfTimeNestedChildrenAndClipping(t *testing.T) {
	// Only direct children count against a span; a grandchild counts
	// against its own parent. A child outliving its parent is clipped.
	spans := []obs.SpanRecord{
		span("t", "root", "", "task.example", 0, 100),
		span("t", "kid", "root", "llm.call", 20, 50),
		span("t", "grand", "kid", "llm.request", 25, 40),
		span("t", "late", "root", "prompt.render", 90, 30),
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 50 - 40, 40, 30}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("%s self time %d, want %d", spans[i].SpanID, self[i], want[i])
		}
	}
}

func TestSelfTimeAdoptsCellsFromTheEnvironmentTrace(t *testing.T) {
	spans := []obs.SpanRecord{
		span("bench", "e1", "", "experiment.run", 0, 100),
		span("env", "c1", "run", "task.cell", 10, 30),
		span("env", "c2", "run", "task.cell", 30, 40),
		span("env", "c3", "run", "task.cell", 150, 10),
	}
	if got := selfTimes(spans)[0]; got != 40 {
		t.Errorf("experiment self time %d, want 40", got)
	}
	ls := layers(spans)
	if ls["experiments"].selfUS != 40 || ls["core"].selfUS != 80 {
		t.Errorf("layers %+v", ls)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var spans []obs.SpanRecord
	for i := 0; i < 400; i++ {
		parent := ""
		if i > 0 {
			parent = strconv.Itoa(rng.Intn(i))
		}
		start := rng.Int63n(1000)
		spans = append(spans, span("t", strconv.Itoa(i), parent, "task.example", start, rng.Int63n(500)))
	}
	for i, s := range selfTimes(spans) {
		if s < 0 || s > spans[i].DurUS {
			t.Fatalf("span %d self time %d outside [0, %d]", i, s, spans[i].DurUS)
		}
	}
}

func TestTail(t *testing.T) {
	var v []float64
	for i := 1; i <= 1000; i++ {
		v = append(v, float64(i))
	}
	if got, pct := tail(v); got != 990 || pct != 99 {
		t.Errorf("tail of 1..1000 = %v (p%v), want 990 (p99): ten samples beyond", got, pct)
	}
	if got, pct := tail(v[:20]); got != 18 || pct != 90 {
		t.Errorf("tail of 1..20 = %v (p%v), want p90 = 18", got, pct)
	}
}

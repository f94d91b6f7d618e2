package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/workload/sdss"
)

// The simulated models report latency (llm.Response.Latency, the eval
// lines' latency_ms, llm.Stats latency percentiles) without taking that
// long. These tests plant an hour of simulated latency on instant work and
// check that no figure perfbench reports contains it.

const simulated = time.Hour

// instantClient answers at once while claiming an hour of latency.
type instantClient struct{}

func (instantClient) Name() string { return "Instant" }

func (instantClient) Do(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{Text: "The query has no syntax errors.", Latency: simulated, Usage: llm.Usage{PromptTokens: 3, CompletionTokens: 5}}, nil
}

func TestModelLatencyIsNotReadAsTime(t *testing.T) {
	stats := llm.NewStats()
	rec := newRecorder()
	c := recordingClient{Client: llm.Chain(instantClient{}, llm.Instrument(stats)), rec: rec}
	start := time.Now()
	if _, err := llm.Complete(context.Background(), c, prompt.Default(prompt.SyntaxError).Render("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("instant call took %v", took)
	}
	rep := newReport()
	recordLLMStats(rep, stats.Snapshot())
	rec.record(rep, sdss.Generate(1).Schema, nil)
	for name, v := range rep.metrics {
		if v >= ms(simulated)/2 {
			t.Errorf("metric %s = %v carries the simulated latency", name, v)
		}
	}
	if rep.metrics["llm.requests"] != 1 || rep.metrics["llm.completion_tokens"] != 5 || rep.metrics["llm.first_seen_share"] != 1 {
		t.Errorf("counts %v", rep.metrics)
	}
}

func TestEvalLineLatencyIsNotReadAsTime(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"index":0,"id":"adhoc/0","task":"syntax","sql":"SELECT 1","response":"fine","latency_ms":%v}`+"\n", ms(simulated))
	}))
	defer ts.Close()
	l := &loadRun{
		s:    &server{url: ts.URL, client: ts.Client()},
		pool: []evalReq{{task: "syntax", body: []byte(`{}`), examples: [][]string{{"SELECT 1"}}}},
		rep:  newReport(),
		digs: make([]string, 1),
	}
	shots := openLoop(step{rate: 20, dur: 100 * time.Millisecond}, 1, 0, l.send)
	if !l.rep.correct() {
		t.Fatalf("checks failed: %v", l.rep.problems)
	}
	for _, s := range shots {
		if !s.ok || s.latency() > time.Second || s.first > time.Second {
			t.Errorf("shot ok=%v latency %v first line %v: want wall-clock figures well under a second", s.ok, s.latency(), s.first)
		}
	}
	if tl := windowedTail(shots); tl > 1000 {
		t.Errorf("tail %vms carries the simulated latency", tl)
	}
	if sv := median(serviceMS(shots)); sv > 1000 {
		t.Errorf("service time %vms carries the simulated latency", sv)
	}
}

func TestEvalChecksRejectWrongBodies(t *testing.T) {
	bodies := map[string]string{
		"missing line": "",
		"wrong index":  `{"index":1,"task":"syntax"}` + "\n",
		"error line":   `{"index":0,"task":"syntax"}` + "\n" + `{"error":"boom"}` + "\n",
		"failed row":   `{"index":0,"task":"syntax","failed":true,"error":"llm: 503"}` + "\n",
	}
	for name, body := range bodies {
		if _, problem := checkLines([]byte(body), 1); problem == "" {
			t.Errorf("%s: body accepted", name)
		}
	}
	if _, problem := checkLines([]byte(`{"index":0}`+"\n"+`{"index":1}`+"\n"), 2); problem != "" {
		t.Errorf("good body rejected: %s", problem)
	}
}

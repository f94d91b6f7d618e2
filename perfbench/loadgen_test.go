package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopTimesRequestsFromTheirDueTime(t *testing.T) {
	// One connection, a request due every 10 ms, and a first request that
	// stalls for 100 ms: the requests due during the stall wait for the
	// connection, and that wait is part of their latency.
	var calls atomic.Int32
	do := func(int) (time.Duration, bool) {
		if calls.Add(1) == 1 {
			time.Sleep(100 * time.Millisecond)
		}
		return 0, true
	}
	shots := openLoop(step{rate: 100, dur: 100 * time.Millisecond}, 1, 0, do)
	if len(shots) != 10 {
		t.Fatalf("%d shots, want 10", len(shots))
	}
	for i, s := range shots {
		if want := time.Duration(i) * 10 * time.Millisecond; s.due.Sub(shots[0].due) != want {
			t.Errorf("shot %d due %v after the first, want %v", i, s.due.Sub(shots[0].due), want)
		}
	}
	// The second request was due at 10 ms and could start only at ~100 ms.
	if s := shots[1]; s.latency() < 80*time.Millisecond || s.late() < 80*time.Millisecond {
		t.Errorf("request due during the stall: latency %v, late %v; want both >= 80ms", s.latency(), s.late())
	}
	if s := shots[1]; s.end.Sub(s.start) > 50*time.Millisecond {
		t.Errorf("service time %v: the stall must be charged as waiting, not service", s.end.Sub(s.start))
	}
}

func TestSaturateReportsCompletedRequestsPerSecond(t *testing.T) {
	// Two connections and a server that takes 20 ms a request: at most
	// 100 requests complete per second.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		fmt.Fprintln(w, `{"index":0,"task":"syntax","response":"fine"}`)
	}))
	defer ts.Close()
	l := &loadRun{
		s:     &server{url: ts.URL, client: ts.Client()},
		pool:  []evalReq{{task: "syntax", body: []byte(`{}`), examples: [][]string{{"SELECT 1"}}}},
		conns: 2,
		rep:   newReport(),
		digs:  make([]string, 1),
	}
	got := l.saturate(20)
	if !l.rep.correct() || l.rep.attempted != 20 {
		t.Fatalf("attempted %d, problems %v", l.rep.attempted, l.rep.problems)
	}
	if got > 100 || got < 40 {
		t.Errorf("%.1f requests/s, want just under 100", got)
	}
	if l.sent != 20 {
		t.Errorf("the next phase starts at request %d, want 20", l.sent)
	}
}

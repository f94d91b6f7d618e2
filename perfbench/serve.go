package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The serve workload drives an in-process serve.Server with the default
// config (five simulated models, unverified environment at seed 1) over
// loopback HTTP, over at most nproc connections. One generator alternates
// two phases, serveRounds times: open loop at a fixed nominal rate, whose
// latencies op_p50_ms and the per-layer figures report, and a fixed number
// of requests back to back, every connection busy, whose median completion
// rate is max_rate_per_s. Most requests
// are ad-hoc sql/pairs batches of one to three statements across all seven
// tasks, drawn without repetition from benchmarks built at traffic seeds
// other than the server's, so their statements are new to the oracle
// caches; idsShare of them name labeled examples of the server's own
// benchmark, whose statements repeat. Many small requests stress the
// per-request path: decoding, environment lookup, NDJSON encoding and
// flushing, middleware. The engine and equivalence checker sit idle.

const (
	// nominalRate is the rate, in requests per second, whose latencies
	// op_p50_ms and the serve.* latency figures report; the nominal phases
	// take nominalShare of the run.
	nominalRate  = 250
	nominalShare = 0.5
	// saturationRequests is how many requests the saturation phases send
	// in all: about five seconds' work on two cores.
	saturationRequests = 10000
	// serveRounds is how many times a run alternates the two phases.
	serveRounds = 5
	// idsShare is the share of requests naming labeled benchmark examples.
	idsShare = 0.2
	// trafficBuilds is how many benchmarks one traffic set draws its ad-hoc
	// statements from, and poolSize how many requests it holds: enough for
	// a whole run, so no statement repeats except those of labeled-ID
	// requests. The responses to
	// the first checkedPrefix entries are pinned; a run sends any of them
	// its schedule did not reach.
	trafficBuilds = 16
	poolSize      = 16000
	checkedPrefix = 8000
	// setupRounds is how many times set-up starts a server and builds its
	// environment; setup_s takes the median.
	setupRounds = 3
)

// evalReq is one pooled request.
type evalReq struct {
	task string
	body []byte
	// examples holds each example's statements (one, a pair, or a script),
	// in the order the response lines must come back.
	examples [][]string
}

var models = llm.ModelNames

// trafficSeed is the benchmark seed of the j-th traffic build of set idx;
// none equals the server's seed.
func trafficSeed(idx int64, j int) int64 { return 1000 + 100*idx + int64(j) }

// makeTraffic builds traffic set idx: ad-hoc requests over statements no
// earlier request used, mixed with labeled-ID requests against the server's
// benchmark.
func makeTraffic(idx int64, server *core.Benchmark) ([]evalReq, error) {
	rng := rand.New(rand.NewSource(idx + 1))
	type bucket struct {
		task core.Task
		ds   string
		exs  [][]string
	}
	var buckets []*bucket
	byKey := map[string]*bucket{}
	seen := map[string]bool{}
	for j := 0; j < trafficBuilds; j++ {
		b, err := core.Build(core.BuildConfig{Seed: trafficSeed(idx, j)})
		if err != nil {
			return nil, fmt.Errorf("traffic build %d: %w", j, err)
		}
		// Tasks share statements (a clean query sits in several cells);
		// rotating which task claims them first gives every task traffic.
		tasks := core.Tasks()
		tasks = append(tasks[j%len(tasks):], tasks[:j%len(tasks)]...)
		for _, t := range tasks {
			for _, ds := range t.Datasets() {
				cell, _ := t.Cell(b, ds)
				k := t.ID() + "/" + ds
				bk := byKey[k]
				if bk == nil {
					bk = &bucket{task: t, ds: ds}
					byKey[k] = bk
					buckets = append(buckets, bk)
				}
				for _, ex := range cell {
					key := strings.Join(ex.SQL, "\x00")
					if !seen[key] {
						seen[key] = true
						bk.exs = append(bk.exs, ex.SQL)
					}
				}
			}
		}
	}
	var adhoc []evalReq
	for _, bk := range buckets {
		rng.Shuffle(len(bk.exs), func(a, b int) { bk.exs[a], bk.exs[b] = bk.exs[b], bk.exs[a] })
		for i := 0; i < len(bk.exs); {
			n := min(1+rng.Intn(3), len(bk.exs)-i)
			r, err := adhocRequest(bk.task, bk.ds, models[rng.Intn(len(models))], bk.exs[i:i+n])
			if err != nil {
				return nil, err
			}
			adhoc = append(adhoc, r)
			i += n
		}
	}
	rng.Shuffle(len(adhoc), func(a, b int) { adhoc[a], adhoc[b] = adhoc[b], adhoc[a] })

	tasks := core.Tasks()
	pool := make([]evalReq, 0, poolSize)
	for len(pool) < poolSize {
		if rng.Float64() >= idsShare {
			if len(adhoc) == 0 {
				return nil, fmt.Errorf("traffic set %d ran out of fresh statements", idx)
			}
			pool = append(pool, adhoc[0])
			adhoc = adhoc[1:]
			continue
		}
		t := tasks[rng.Intn(len(tasks))]
		ds := t.Datasets()[rng.Intn(len(t.Datasets()))]
		cell, _ := t.Cell(server, ds)
		n := 1 + rng.Intn(3)
		r := evalReq{task: t.ID()}
		req := serve.EvalRequest{Model: models[rng.Intn(len(models))]}
		if len(t.Datasets()) > 1 {
			req.Dataset = ds
		}
		for _, i := range rng.Perm(len(cell))[:n] {
			req.IDs = append(req.IDs, cell[i].ID)
			r.examples = append(r.examples, cell[i].SQL)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.body = body
		pool = append(pool, r)
	}
	return pool, nil
}

// adhocRequest renders one ad-hoc batch request.
func adhocRequest(t core.Task, ds, model string, exs [][]string) (evalReq, error) {
	req := serve.EvalRequest{Model: model}
	if len(t.Datasets()) > 1 {
		req.Dataset = ds
	}
	for _, ex := range exs {
		if t.PairInput() {
			req.Pairs = append(req.Pairs, [2]string{ex[0], ex[1]})
		} else {
			req.SQL = append(req.SQL, ex[0])
		}
	}
	body, err := json.Marshal(req)
	return evalReq{task: t.ID(), body: body, examples: exs}, err
}

// server is one in-process serve.Server on a loopback listener.
type server struct {
	srv    *serve.Server
	url    string
	hs     *http.Server
	done   chan struct{}
	client *http.Client
}

// startServer serves cfg on 127.0.0.1 and builds its environment with one
// labeled request, so the first measured request finds it warm.
func startServer(cfg serve.Config, warm evalReq) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.NewServer(cfg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	resp, err := s.client.Post(s.url+"/v1/eval/"+warm.task, "application/json", bytes.NewReader(warm.body))
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("warming server: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("warming server: status %d", resp.StatusCode)
	}
	return s, nil
}

// stop closes the server and waits for it to finish serving.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.done
}

// loadRun is the state one serve run's requests share.
type loadRun struct {
	s        *server
	pool     []evalReq
	conns    int
	sent     int         // requests the phases so far scheduled
	rec      *recorder   // nil unless traced
	tr       *obs.Tracer // benchmark spans, nil unless traced
	mu       sync.Mutex  // guards the fields below
	rep      *report
	digs     []string // per pool entry: sha256 of its first response body
	bytesOut int64
	rejected int64
}

// lineView is the part of an eval NDJSON line the checks read. latency_ms
// is simulated and deliberately not decoded.
type lineView struct {
	Index    *int   `json:"index"`
	Task     string `json:"task"`
	Response string `json:"response"`
	Failed   bool   `json:"failed"`
	Error    string `json:"error"`
}

// send performs request k (pool entry k mod poolSize), checks its response
// and returns the time to its first line.
func (l *loadRun) send(k int) (time.Duration, bool) {
	pi := k % len(l.pool)
	r := l.pool[pi]
	_, span := obs.Start(obs.With(context.Background(), l.tr), "http.eval")
	first, body, status, err := l.post(r)
	span.EndErr(err)
	problem := ""
	var lines []lineView
	switch {
	case err != nil:
		problem = err.Error()
	case status != http.StatusOK:
		problem = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	default:
		lines, problem = checkLines(body, len(r.examples))
	}
	sum := sha256.Sum256(body)
	dig := hex.EncodeToString(sum[:])
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rep.attempted++
	l.bytesOut += int64(len(body))
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		l.rejected++
		l.rep.failed++
		return first, false
	}
	if problem == "" {
		if l.digs[pi] == "" {
			l.digs[pi] = dig
		} else if l.digs[pi] != dig {
			problem = "response differs from an earlier response to the same request"
		}
	}
	if problem != "" {
		l.rep.failed++
		l.rep.fail("serve %s request %d: %s", r.task, pi, problem)
		return first, false
	}
	if l.rec != nil {
		for i, lv := range lines {
			l.rec.observe(r.examples[i], lv.Task, lv.Response, true)
		}
	}
	return first, true
}

// post sends one request and reads the whole NDJSON body, timing the first
// line from the moment the request went out.
func (l *loadRun) post(r evalReq) (time.Duration, []byte, int, error) {
	start := time.Now()
	resp, err := l.s.client.Post(l.s.url+"/v1/eval/"+r.task, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var body bytes.Buffer
	var first time.Duration
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && first == 0 {
			first = time.Since(start)
		}
		body.Write(line)
		if errors.Is(err, io.EOF) {
			return first, body.Bytes(), resp.StatusCode, nil
		}
		if err != nil {
			return first, body.Bytes(), resp.StatusCode, err
		}
	}
}

// checkLines verifies an eval body: exactly one line per submitted example,
// index ascending from 0, and no error line.
func checkLines(body []byte, want int) ([]lineView, string) {
	var out []lineView
	for _, raw := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		var lv lineView
		if err := json.Unmarshal(raw, &lv); err != nil {
			return nil, fmt.Sprintf("undecodable line %q", raw)
		}
		if lv.Error != "" || lv.Failed {
			return nil, fmt.Sprintf("error line %q", raw)
		}
		if lv.Index == nil || *lv.Index != len(out) {
			return nil, fmt.Sprintf("line %d carries index %v", len(out), lv.Index)
		}
		out = append(out, lv)
	}
	if len(out) != want {
		return nil, fmt.Sprintf("%d lines for %d examples", len(out), want)
	}
	return out, ""
}

// complete sends every pinned pool entry no scheduled request reached, so
// each has a response digest.
func (l *loadRun) complete() {
	var missing []int
	for i, d := range l.digs[:checkedPrefix] {
		if d == "" {
			missing = append(missing, i)
		}
	}
	l.closedLoop(missing)
}

// closedLoop sends requests ks over the connections, each taken up as soon
// as a connection is free, and waits for every response.
func (l *loadRun) closedLoop(ks []int) {
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				l.send(k)
			}
		}()
	}
	for _, k := range ks {
		next <- k
	}
	close(next)
	wg.Wait()
}

// poolDigest combines the pinned entries' response digests in pool order.
func (l *loadRun) poolDigest() string {
	h := sha256.New()
	for _, d := range l.digs[:checkedPrefix] {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serveSetup is one run's set-up: setupRounds server starts (the last one
// kept) and the traffic set. It returns the set-up time.
func serveSetup(idx int64, cfg serve.Config) (*server, []evalReq, *core.Benchmark, time.Duration, error) {
	start := time.Now()
	bench, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	pool, err := makeTraffic(idx, bench)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	gen := time.Since(start)
	var rounds []time.Duration
	var s *server
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		s, err = startServer(cfg, warmRequest(bench))
		if err != nil {
			return nil, nil, nil, 0, err
		}
		rounds = append(rounds, time.Since(start))
	}
	setup := gen + time.Duration(median(sortedMS(rounds))*float64(time.Millisecond))
	return s, pool, bench, setup, nil
}

// warmRequest names one labeled syntax example of the server's benchmark.
func warmRequest(b *core.Benchmark) evalReq {
	ex := b.Syntax[core.SDSS][0]
	body, _ := json.Marshal(serve.EvalRequest{Model: models[0], Dataset: core.SDSS, IDs: []string{ex.ID}})
	return evalReq{task: "syntax", body: body, examples: [][]string{{ex.SQL}}}
}

// serveDigest computes traffic set idx's pinned digest: every pinned pool
// entry sent once to a fresh default server.
func serveDigest(idx int64) (string, error) {
	s, pool, _, _, err := serveSetup(idx, serve.Config{})
	if err != nil {
		return "", err
	}
	defer s.stop()
	l := &loadRun{s: s, pool: pool, conns: runtime.NumCPU(), rep: newReport(), digs: make([]string, len(pool))}
	l.complete()
	if !l.rep.correct() {
		return "", fmt.Errorf("traffic set %d: %s", idx, strings.Join(l.rep.problems, "; "))
	}
	return l.poolDigest(), nil
}

// run sends at rate for d, open loop, continuing through the pool where the
// previous phase stopped, and waits for every response.
func (l *loadRun) run(rate float64, d time.Duration) []shot {
	shots := openLoop(step{rate: rate, dur: d}, l.conns, l.sent, l.send)
	l.sent += len(shots)
	return shots
}

// saturate sends the next n requests back to back, every connection busy,
// and returns how many requests per second completed.
func (l *loadRun) saturate(n int) float64 {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = l.sent + i
	}
	start := time.Now()
	l.closedLoop(ks)
	l.sent += n
	return float64(n) / time.Since(start).Seconds()
}

// serviceMS returns the shots' service times (from the moment a connection
// sent the request to its last response byte), ascending, in ms; a failed
// request counts as missing any limit.
func serviceMS(shots []shot) []float64 {
	ds := make([]time.Duration, len(shots))
	for i, s := range shots {
		ds[i] = s.end.Sub(s.start)
		if !s.ok {
			ds[i] = time.Hour
		}
	}
	return sortedMS(ds)
}

func runServe(o options) (*report, error) {
	idx := mod(o.seed, seedCycle)
	want, err := pinned(pins.Serve, idx)
	if err != nil {
		return nil, err
	}
	total := time.Duration(o.seconds * float64(time.Second))
	nominalDur := time.Duration(nominalShare * float64(total))
	cfg := serve.Config{}
	if o.trace {
		// Keep every span the server records (about seven per request at
		// the standard run length); the default ring keeps 2048.
		cfg.TraceRing = 1 << 18
	}
	s, pool, bench, setup, err := serveSetup(idx, cfg)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	rep := newReport()
	l := &loadRun{s: s, pool: pool, conns: runtime.NumCPU(), rep: rep, digs: make([]string, len(pool))}

	if !o.trace {
		// The heap peak covers the serving run only, not set-up's traffic
		// builds; the request pool itself stays live, a fixed share.
		heap := startHeapPeak()
		// The phases alternate, so a slow spell of the host falls on one
		// round, and the medians pass over it.
		var nominal []shot
		var rates []float64
		for r := 0; r < serveRounds; r++ {
			nominal = append(nominal, l.run(nominalRate, nominalDur/serveRounds)...)
			rates = append(rates, l.saturate(saturationRequests/serveRounds))
		}
		sort.Float64s(rates)
		maxRate := median(rates)
		l.complete()
		heap.Lap()
		rep.metrics["heap_peak_mb"] = heap.Stop()
		rep.metrics["setup_s"] = setup.Seconds()
		rep.metrics["op_p50_ms"] = median(serviceMS(nominal))
		rep.metrics["max_rate_per_s"] = maxRate
		logNominal(o, nominal)
		fmt.Fprintf(o.log, "saturated: %d requests per round at %.0f/s\n", saturationRequests/serveRounds, rates)
		checkPool(l, want)
		return rep, nil
	}

	// Traced run: half the nominal phase untraced, then the other half
	// traced (the server keeps all its spans and the benchmark records its
	// own and the statements it sends), then the layer replays. The
	// saturation phase is left out: the per-layer figures describe the
	// nominal rate.
	plain := l.run(nominalRate, nominalDur/2)
	before := s.srv.ModelStats().Snapshot()
	l.tr = obs.New(obs.WithCollector())
	l.rec = newRecorder()
	l.bytesOut, l.rejected = 0, 0
	traceStart := time.Now()
	rt := startRuntimeDelta()
	traced := l.run(nominalRate, nominalDur/2)
	rt.record(rep)
	recordServeLLM(rep, before, s.srv.ModelStats().Snapshot())
	spans, err := serverSpans(s, traceStart)
	if err != nil {
		return nil, err
	}
	recordLayers(rep, spans)
	shots := traced
	rep.metrics["serve.self_ms"] = float64(layers(spans)["serve"].selfUS) / 1000
	rep.metrics["obs.overhead_share"] = median(serviceMS(shots))/median(serviceMS(plain)) - 1
	rep.metrics["serve.requests"] = float64(len(shots))
	rep.metrics["serve.due_p50_ms"] = median(latencies(shots))
	rep.metrics["serve.eval_tail_ms"] = windowedTail(shots)
	rep.metrics["serve.bytes_out"] = float64(l.bytesOut)
	rep.metrics["serve.rejected"] = float64(l.rejected)
	var firsts, lates []time.Duration
	for _, sh := range shots {
		if sh.ok {
			firsts = append(firsts, sh.first)
		}
		lates = append(lates, sh.late())
	}
	rep.metrics["serve.first_line_ms_p50"] = median(sortedMS(firsts))
	rep.metrics["serve.gen_late_ms_p99"] = percentile(sortedMS(lates), 0.99)
	replayTr := obs.New(obs.WithCollector())
	l.rec.record(rep, sim.NewKnowledge(bench.SchemasByDataset()).Merged, replayTr)
	spans = append(spans, l.tr.Collected()...)
	spans = append(spans, replayTr.Collected()...)
	l.rec, l.tr = nil, nil
	l.complete()
	checkPool(l, want)
	rep.metrics["failed_share"] = float64(rep.failed) / float64(rep.attempted)
	rep.zeroUnmeasured()
	return rep, finishTrace(o, rep, spans)
}

// checkPool compares the run's combined response digest with the pin.
func checkPool(l *loadRun, want string) {
	if got := l.poolDigest(); got != want {
		l.rep.fail("serve: response digest %s, pinned %s", got, want)
	}
}

// logNominal prints the nominal phase's sample count, latency median and
// tail from due time (with the percentile it is), service-time median, and
// how late the generator ran.
func logNominal(o options, shots []shot) {
	lat := latencies(shots)
	t, pct := tail(lat)
	lates := make([]time.Duration, len(shots))
	for i, s := range shots {
		lates[i] = s.late()
	}
	late := sortedMS(lates)
	fmt.Fprintf(o.log, "nominal: %d/s n=%d p50=%.2fms p%.2f=%.2fms windowed tail=%.2fms service p50=%.2fms late p50=%.2fms max=%.2fms\n",
		nominalRate, len(shots), median(lat), pct, t, windowedTail(shots), median(serviceMS(shots)), median(late), late[len(late)-1])
}

// recordServeLLM stores the model-request totals the traced phase added to the
// server's llm.Stats.
func recordServeLLM(rep *report, before, after map[string]llm.ModelSnapshot) {
	delta := map[string]llm.ModelSnapshot{}
	for name, a := range after {
		b := before[name]
		delta[name] = llm.ModelSnapshot{
			Requests:         a.Requests - b.Requests,
			Errors:           a.Errors - b.Errors,
			Retries:          a.Retries - b.Retries,
			PromptTokens:     a.PromptTokens - b.PromptTokens,
			CompletionTokens: a.CompletionTokens - b.CompletionTokens,
		}
	}
	recordLLMStats(rep, delta)
}

// serverSpans fetches the server's retained spans and keeps those that
// started at or after since.
func serverSpans(s *server, since time.Time) ([]obs.SpanRecord, error) {
	resp, err := s.client.Get(s.url + "/v1/trace")
	if err != nil {
		return nil, fmt.Errorf("fetching server spans: %w", err)
	}
	defer resp.Body.Close()
	var snap serve.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding server spans: %w", err)
	}
	if snap.Evicted > 0 {
		return nil, fmt.Errorf("server span ring evicted %d spans", snap.Evicted)
	}
	cut := since.UnixMicro()
	out := snap.Spans[:0]
	for _, sp := range snap.Spans {
		if sp.StartUS >= cut {
			out = append(out, sp)
		}
	}
	return out, nil
}

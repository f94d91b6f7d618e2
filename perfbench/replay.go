package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/repair"
	"repro/internal/respparse"
	"repro/internal/semcheck"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
	"repro/internal/workload/joborder"
	"repro/internal/workload/sdss"
	"repro/internal/workload/spider"
	"repro/internal/workload/sqlshare"
)

// The oracle-substrate layers (sqllex, sqlparse, semcheck, repair) and the
// response parser run inside the simulated models and the task graders,
// where no span can reach them from outside. The benchmark measures them by
// replaying each layer's entry point single-threaded over exactly the
// statements (or responses) the run fed to models, one layer per pass.

// recorder watches the requests a run sends to models: how many, how many
// carry a statement the environment had not been sent before (the oracle
// caches are per environment), the distinct statements, and the distinct
// responses for the respparse replay. Safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	requests  int64
	firstSeen int64
	seen      map[string]bool
	stmts     []string
	stmtSet   map[string]bool
	responses map[response]bool
}

// response is one distinct model response and the task whose parser reads
// it.
type response struct{ task, text string }

func newRecorder() *recorder {
	return &recorder{stmtSet: map[string]bool{}, responses: map[response]bool{}}
}

// newEnv starts a fresh first-seen scope: a new environment has cold caches.
func (r *recorder) newEnv() {
	r.mu.Lock()
	r.seen = map[string]bool{}
	r.mu.Unlock()
}

// observe records one request's statements (one, or a pair) and, when the
// request succeeded, its response for the task. A statement counts as seen
// per task, since each task consults its own oracle cache (semcheck for
// syntax, repair for tokens and fill, ...).
func (r *recorder) observe(stmts []string, task, text string, ok bool) {
	key := task + "\x00" + stmts[0]
	if len(stmts) > 1 {
		key += "\x00" + stmts[1]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	r.requests++
	if !r.seen[key] {
		r.seen[key] = true
		r.firstSeen++
	}
	// State scripts are multi-statement transactions the simulators execute,
	// not single statements the oracle layers check.
	if task != "state" {
		for _, s := range stmts {
			if !r.stmtSet[s] {
				r.stmtSet[s] = true
				r.stmts = append(r.stmts, s)
			}
		}
	}
	if ok && text != "" {
		r.responses[response{task, text}] = true
	}
}

// record stores the recorder's llm.first_seen_share and runs the oracle and
// respparse replays.
func (r *recorder) record(rep *report, schema *catalog.Schema, tr *obs.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.requests > 0 {
		rep.metrics["llm.first_seen_share"] = float64(r.firstSeen) / float64(r.requests)
	}
	replayOracle(rep, r.stmts, schema, tr)
	replayRespparse(rep, r.responses, tr)
}

// promptTaskIDs maps a rendered prompt's task to the registry task id whose
// grader parses its response.
var promptTaskIDs = map[prompt.Task]string{
	prompt.SyntaxError: "syntax",
	prompt.MissToken:   "tokens",
	prompt.QueryEquiv:  "equiv",
	prompt.PerfPred:    "perf",
	prompt.QueryExp:    "explain",
	prompt.FillToken:   "fill",
	prompt.TableState:  "state",
}

// promptStatements extracts the task and the statement(s) a rendered prompt
// asks about.
func promptStatements(text string) (string, []string, bool) {
	t, ok := prompt.DetectTask(text)
	if !ok {
		return "", nil, false
	}
	if t == prompt.QueryEquiv {
		a, b, ok := prompt.ExtractQueryPair(text)
		return promptTaskIDs[t], []string{a, b}, ok
	}
	q, ok := prompt.ExtractQuery(text)
	return promptTaskIDs[t], []string{q}, ok
}

// recordingClient wraps one registry client: it times every call in an
// "llm.call" span and reports the request to the recorder.
type recordingClient struct {
	llm.Client
	rec *recorder
}

func (c recordingClient) Do(ctx context.Context, req llm.Request) (llm.Response, error) {
	ctx, span := obs.Start(ctx, "llm.call")
	resp, err := c.Client.Do(ctx, req)
	span.EndErr(err)
	if task, stmts, ok := promptStatements(req.UserPrompt()); ok {
		c.rec.observe(stmts, task, resp.Text, err == nil)
	}
	return resp, err
}

// wrapRegistry replaces every named client in the registry with a recording
// wrapper.
func wrapRegistry(reg *llm.Registry, names []string, rec *recorder) error {
	for _, name := range names {
		c, err := reg.Get(name)
		if err != nil {
			return err
		}
		reg.Register(recordingClient{Client: c, rec: rec})
	}
	return nil
}

// timed runs f in a benchmark span named name and returns its wall time.
func timed(tr *obs.Tracer, name string, f func()) time.Duration {
	_, span := obs.Start(obs.With(context.Background(), tr), name)
	start := time.Now()
	f()
	d := time.Since(start)
	span.End()
	return d
}

// replayOracle replays sqllex.Lex, sqlparse.ParseStatement, semcheck's
// Check and repair.Detect over the distinct statements, one pass per layer.
// The parser lexes internally, so its self time is the parse pass minus the
// lex pass; semcheck is timed on already-parsed statements; repair.Detect's
// time includes the lexing and parsing of the candidates it tries.
func replayOracle(rep *report, stmts []string, schema *catalog.Schema, tr *obs.Tracer) {
	n := float64(len(stmts))
	if n == 0 {
		return
	}
	lex := timed(tr, "replay.sqllex", func() {
		for _, s := range stmts {
			sqllex.Lex(s)
		}
	})
	parsed := make([]sqlast.Stmt, 0, len(stmts))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parse := timed(tr, "replay.sqlparse", func() {
		for _, s := range stmts {
			if st, err := sqlparse.ParseStatement(s); err == nil {
				parsed = append(parsed, st)
			}
		}
	})
	runtime.ReadMemStats(&after)
	checker := semcheck.New(schema)
	check := timed(tr, "replay.semcheck", func() {
		for _, st := range parsed {
			checker.Check(st)
		}
	})
	rep.metrics["sqllex.calls"] = n
	rep.metrics["sqllex.self_ms"] = ms(lex)
	rep.metrics["sqlparse.calls"] = n
	rep.metrics["sqlparse.self_ms"] = max(0, ms(parse-lex))
	rep.metrics["sqlparse.allocs_per_call"] = float64(after.Mallocs-before.Mallocs) / n
	rep.metrics["semcheck.calls"] = float64(len(parsed))
	rep.metrics["semcheck.self_ms"] = ms(check)
	rep.metrics["repair.calls"] = n
	rep.metrics["repair.self_ms"] = ms(timed(tr, "replay.repair", func() {
		for _, s := range stmts {
			repair.Detect(s, schema)
		}
	}))
}

// replayRespparse replays each task's response parser over the distinct
// responses and counts the ones it cannot parse.
func replayRespparse(rep *report, responses map[response]bool, tr *obs.Tracer) {
	var unparsed int
	d := timed(tr, "replay.respparse", func() {
		for resp := range responses {
			var err error
			switch text := resp.text; resp.task {
			case "syntax":
				_, err = respparse.ParseSyntax(text)
			case "tokens":
				_, err = respparse.ParseMissToken(text)
			case "fill":
				_, err = respparse.ParseFill(text)
			case "equiv":
				_, err = respparse.ParseEquiv(text)
			case "perf":
				_, err = respparse.ParsePerf(text)
			case "state":
				_, err = respparse.ParseState(text)
			case "explain":
				respparse.ParseExplanation(text)
			}
			if err != nil {
				unparsed++
			}
		}
	})
	rep.metrics["respparse.calls"] = float64(len(responses))
	rep.metrics["respparse.self_ms"] = ms(d)
	rep.metrics["respparse.unparsed"] = float64(unparsed)
}

// replayWorkloads times the four workload generators at the seed, one after
// another: the workload layer (with datagen, mutate and nlgen beneath it)
// as core.Build's first stage runs it.
func replayWorkloads(rep *report, seed int64, tr *obs.Tracer) {
	rep.metrics["workload.self_ms"] = ms(timed(tr, "replay.workload", func() {
		sdss.Generate(seed)
		sqlshare.Generate(seed)
		joborder.Generate(seed)
		spider.Generate(seed)
	}))
}

// replayEquiv replays the verified build's equivalence stage on b's
// workloads (b built at seed) through public APIs: for every even-indexed
// SELECT it walks the equiv.EquivTypes() rotation from where the last
// admitted pair left it, transforms the query with equiv.Transform, and
// checks each candidate on the engine with the build's checker settings
// (seeds 11 and 29) until one is admitted, as core.Build does. Each check
// runs in an "equiv.check" span: equiv.self_ms is the checker's own time
// outside its engine executions, equiv.checks the candidates checked, and
// equiv.admitted_share the share of them the engine admitted. The build
// draws its transforms' randomness from a stream that its earlier, internal
// labeling stages share; the replay seeds the same source but cannot
// advance it past those stages, so a randomised transform
// (reorder-conditions) may draw another candidate than the build did.
func replayEquiv(rep *report, b *core.Benchmark, seed int64, par int) {
	tr := obs.New(obs.WithCollector())
	ctx := obs.With(context.Background(), tr)
	types := equiv.EquivTypes()
	var checks, admitted int
	for _, ds := range core.TaskDatasets {
		w := b.Workloads[ds]
		r := rand.New(rand.NewSource(seed ^ int64(len(ds))*7919))
		checker := equiv.NewChecker(w.Schema)
		checker.Seeds = []int64{11, 29}
		checker.Parallel = par
		cursor := 0
		for i, q := range w.Queries {
			sel, ok := q.Stmt.(*sqlast.SelectStmt)
			if !ok || i%2 != 0 {
				continue
			}
			for attempt := range types {
				cand, ok := equiv.Transform(sel, types[(cursor+attempt)%len(types)], r)
				if !ok {
					continue
				}
				cctx, span := obs.Start(ctx, "equiv.check")
				equal, err := checker.EquivalentCtx(cctx, sel, cand)
				span.End()
				checks++
				if err == nil && equal {
					admitted++
					cursor = (cursor + attempt + 1) % len(types)
					break
				}
			}
		}
	}
	ls := layers(tr.Collected())
	rep.metrics["equiv.checks"] = float64(checks)
	rep.metrics["equiv.self_ms"] = float64(ls["equiv"].selfUS) / 1000
	if checks > 0 {
		rep.metrics["equiv.admitted_share"] = float64(admitted) / float64(checks)
	}
}

// recordExact stores the exact counters of a parallel-1 pass: engine row
// operations and store traffic from the benchmark build, and request and
// token totals from the environment's llm.Stats (nil for no model calls).
func recordExact(rep *report, b *core.Benchmark, stats *llm.Stats) {
	var ops int64
	for _, n := range b.EngineOps {
		ops += n
	}
	rep.metrics["engine.row_ops"] = float64(ops)
	st := b.StoreStats
	rep.metrics["store.wal_records"] = float64(st.WALRecords)
	rep.metrics["store.wal_bytes"] = float64(st.WALBytes)
	rep.metrics["store.pages_read"] = float64(st.PagesRead)
	rep.metrics["store.pages_written"] = float64(st.PagesWritten)
	rep.metrics["store.pool_hit_rate"] = st.HitRate()
	if stats != nil {
		recordLLMStats(rep, stats.Snapshot())
	}
}

// recordLLMStats stores request, error, retry and token totals over every
// model. The snapshot's latency fields are simulated and are not read.
func recordLLMStats(rep *report, snap map[string]llm.ModelSnapshot) {
	var req, errs, retries, pt, ct int64
	for _, s := range snap {
		req += s.Requests
		errs += s.Errors
		retries += s.Retries
		pt += s.PromptTokens
		ct += s.CompletionTokens
	}
	rep.metrics["llm.requests"] = float64(req)
	rep.metrics["llm.errors"] = float64(errs)
	rep.metrics["llm.retries"] = float64(retries)
	rep.metrics["llm.prompt_tokens"] = float64(pt)
	rep.metrics["llm.completion_tokens"] = float64(ct)
}

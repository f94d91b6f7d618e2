package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/llm/sim"
	"repro/internal/obs"
)

// The reproduce workload is the path paper users run: a fresh verified
// experiments.Env at the seed (set-up), then all registered experiments
// with the five default simulated models at parallel = nproc, as one closed
// batch. Each iteration builds a new environment, so the oracle caches
// start cold every time; within a batch each statement is asked of five
// models and the caches hit about four times in five.

// reproIter is one measured iteration.
type reproIter struct{ setup, batch time.Duration }

// reproduceIter builds a fresh environment and runs the experiment batch.
// With a tracer, the environment reports its spans to it, the benchmark adds
// its own around each call, and every model client is wrapped to feed rec.
func reproduceIter(seed int64, par int, tr *obs.Tracer, rec *recorder, want string, rep *report) (reproIter, *experiments.Env, error) {
	ctx := obs.With(context.Background(), tr)
	var it reproIter
	start := time.Now()
	_, span := obs.Start(ctx, "experiments.env")
	env, err := experiments.NewEnvConfig(experiments.Config{
		Seed:               seed,
		VerifyEquivalences: true,
		Parallel:           par,
		Tracer:             tr,
	})
	span.EndErr(err)
	if err != nil {
		return it, nil, fmt.Errorf("building environment: %w", err)
	}
	it.setup = time.Since(start)
	if rec != nil {
		rec.newEnv()
		if err := wrapRegistry(env.Registry, env.Models, rec); err != nil {
			env.Close()
			return it, nil, err
		}
	}
	start = time.Now()
	digest, failed := runExperiments(ctx, env)
	it.batch = time.Since(start)
	if err := env.Close(); err != nil {
		return it, nil, fmt.Errorf("closing environment: %w", err)
	}
	rep.attempted += int64(len(experiments.All()))
	rep.failed += int64(failed)
	if digest != want {
		rep.fail("reproduce seed %d: artifact digest %s, pinned %s", seed, digest, want)
	}
	return it, env, nil
}

// reproduceLoop runs iterations until the deadline (at least one), ending a
// heap lap after each.
func reproduceLoop(seed int64, par int, d time.Duration, tr *obs.Tracer, rec *recorder, heap *heapPeak, want string, rep *report) ([]reproIter, *experiments.Env, error) {
	var its []reproIter
	var env *experiments.Env
	deadline := time.Now().Add(d)
	for len(its) == 0 || time.Now().Before(deadline) {
		it, e, err := reproduceIter(seed, par, tr, rec, want, rep)
		if err != nil {
			return nil, nil, err
		}
		heap.Lap()
		its = append(its, it)
		env = e
	}
	return its, env, nil
}

func batchMedianMS(its []reproIter) float64 {
	ds := make([]time.Duration, len(its))
	for i, it := range its {
		ds[i] = it.batch
	}
	return median(sortedMS(ds))
}

func runReproduce(o options) (*report, error) {
	seed := benchSeed(o.seed, 0)
	want, err := pinned(pins.Reproduce, seed)
	if err != nil {
		return nil, err
	}
	par := runtime.NumCPU()
	rep := newReport()
	total := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		heap := startHeapPeak()
		its, _, err := reproduceLoop(seed, par, total, nil, nil, heap, want, rep)
		if err != nil {
			return nil, err
		}
		rep.metrics["heap_peak_mb"] = heap.Stop()
		setups := make([]time.Duration, len(its))
		for i, it := range its {
			setups[i] = it.setup
		}
		rep.metrics["setup_s"] = median(sortedMS(setups)) / 1000
		p50 := batchMedianMS(its)
		rep.metrics["op_p50_ms"] = p50
		rep.metrics["max_rate_per_s"] = 1000 / p50
		return rep, nil
	}

	// Traced run: an untraced half and a traced half (their batch medians
	// give obs.overhead_share), then a parallel-1 pass for exact counts and
	// the single-threaded layer replays.
	plain, _, err := reproduceLoop(seed, par, total/2, nil, nil, nil, want, rep)
	if err != nil {
		return nil, err
	}
	tr := obs.New(obs.WithCollector())
	rec := newRecorder()
	rt := startRuntimeDelta()
	traced, env, err := reproduceLoop(seed, par, total/2, tr, rec, nil, want, rep)
	if err != nil {
		return nil, err
	}
	rt.record(rep)
	spans := tr.Collected()
	recordLayers(rep, spans)
	rep.metrics["obs.overhead_share"] = batchMedianMS(traced)/batchMedianMS(plain) - 1

	_, seq, err := reproduceIter(seed, 1, nil, nil, want, rep)
	if err != nil {
		return nil, err
	}
	recordExact(rep, seq.Bench, seq.Stats)

	replayTr := obs.New(obs.WithCollector())
	rec.record(rep, knowledgeSchema(env), replayTr)
	replayWorkloads(rep, seed, replayTr)
	replayEquiv(rep, env.Bench, seed, par)
	rep.metrics["failed_share"] = float64(rep.failed) / float64(rep.attempted)
	rep.zeroUnmeasured()
	return rep, finishTrace(o, rep, append(spans, replayTr.Collected()...))
}

// knowledgeSchema is the merged schema the simulated models check
// statements against.
func knowledgeSchema(env *experiments.Env) *catalog.Schema {
	return sim.NewKnowledge(env.Bench.SchemasByDataset()).Merged
}

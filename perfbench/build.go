package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The build workload runs verified core.Build calls back to back over
// successive benchmark seeds, at parallel = nproc, with no model calls:
// workload generation, equivalence verification on the engine, and the
// state oracle's WAL commits do the work. It exercises engine and store
// changes and bypasses the oracle, prompt, llm and serve layers. Set-up is
// the cold start: a fresh process running its first verified build.
//
// The workload's end-to-end timings are process CPU time (user + system,
// every thread), not wall time. The state oracle fsyncs every WAL commit,
// so where other machines share the disk the wall time of a build follows
// their write load: on a two-vCPU virtual machine, another process writing
// and fsyncing on the same disk took the median build from 250 to 440 ms
// and back within a minute, while its CPU time moved by a tenth. The kernel
// does not count time spent waiting on the disk, or time the hypervisor
// gives to other guests, as CPU time, so the CPU figure keeps what the
// program itself does. The wall-time median stays in the per-layer table as
// build.wall_p50_ms.

// coldBuilds is how many cold starts set-up times; setup_s is their median.
const coldBuilds = 5

// coldSetup runs coldBuilds child processes, each of which starts this
// binary and runs one verified build of the run's first seed (see
// coldBuild), and checks each child's labeled-dataset digest. It returns
// the median CPU time of a child, process start and exit included.
func coldSetup(o options, rep *report) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	seed := benchSeed(o.seed, 0)
	want, err := pinned(pins.Build, seed)
	if err != nil {
		return 0, err
	}
	var ds []time.Duration
	for i := 0; i < coldBuilds; i++ {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--cold-build", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = &out, o.log
		err := cmd.Run()
		rep.attempted++
		if err != nil {
			return 0, fmt.Errorf("cold build of seed %d: %w", seed, err)
		}
		ds = append(ds, cmd.ProcessState.UserTime()+cmd.ProcessState.SystemTime())
		if got := strings.TrimSpace(out.String()); got != want {
			rep.failed++
			rep.fail("cold build seed %d: labeled-dataset digest %s, pinned %s", seed, got, want)
		}
	}
	return time.Duration(median(sortedMS(ds)) * float64(time.Millisecond)), nil
}

// coldBuild is the child side of coldSetup: one verified build at
// parallel = nproc, printing its labeled-dataset digest.
func coldBuild(seed int64, stdout io.Writer) error {
	b, err := core.Build(core.BuildConfig{Seed: seed, VerifyEquivalences: true, Parallel: runtime.NumCPU()})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, benchDigest(b))
	return err
}

// processCPU is the CPU time, user plus system over all threads, that this
// process has used so far (0 where the kernel does not say).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// buildTime is how long one build took: on the wall clock, and in CPU time
// of the whole process.
type buildTime struct{ wall, cpu time.Duration }

// buildOnce runs the i-th build of a run in a "core.build" span and checks
// its labeled datasets against the pinned digest.
func buildOnce(ctx context.Context, o options, i, par int, rep *report) (buildTime, *core.Benchmark, error) {
	seed := benchSeed(o.seed, i)
	want, err := pinned(pins.Build, seed)
	if err != nil {
		return buildTime{}, nil, err
	}
	ctx, span := obs.Start(ctx, "core.build")
	cpu, start := processCPU(), time.Now()
	b, err := core.Build(core.BuildConfig{Seed: seed, VerifyEquivalences: true, Parallel: par, Ctx: ctx})
	d := buildTime{wall: time.Since(start), cpu: processCPU() - cpu}
	span.EndErr(err)
	rep.attempted++
	if err != nil {
		rep.failed++
		rep.fail("build seed %d: %v", seed, err)
		return d, nil, nil
	}
	if got := benchDigest(b); got != want {
		rep.fail("build seed %d: labeled-dataset digest %s, pinned %s", seed, got, want)
	}
	return d, b, nil
}

// buildLoop runs builds from index *next until the deadline (at least one),
// ending a heap lap after each.
func buildLoop(ctx context.Context, o options, next *int, par int, d time.Duration, heap *heapPeak, rep *report) ([]buildTime, error) {
	var out []buildTime
	deadline := time.Now().Add(d)
	for len(out) == 0 || time.Now().Before(deadline) {
		dur, _, err := buildOnce(ctx, o, *next, par, rep)
		if err != nil {
			return nil, err
		}
		*next++
		heap.Lap()
		out = append(out, dur)
	}
	return out, nil
}

func runBuild(o options) (*report, error) {
	par := runtime.NumCPU()
	rep := newReport()
	total := time.Duration(o.seconds * float64(time.Second))
	bg := context.Background()
	next := 0
	if !o.trace {
		setup, err := coldSetup(o, rep)
		if err != nil {
			return nil, err
		}
		heap := startHeapPeak()
		durs, err := buildLoop(bg, o, &next, par, total, heap, rep)
		if err != nil {
			return nil, err
		}
		rep.metrics["heap_peak_mb"] = heap.Stop()
		rep.metrics["setup_s"] = setup.Seconds()
		p50 := median(cpuMS(durs))
		rep.metrics["op_p50_ms"] = p50
		rep.metrics["max_rate_per_s"] = float64(par) * 1000 / p50
		return rep, nil
	}

	// Traced run: an untraced half, a traced half, then a parallel-1 build
	// for the exact engine and store counters, and the layer replays.
	plain, err := buildLoop(bg, o, &next, par, total/2, nil, rep)
	if err != nil {
		return nil, err
	}
	tr := obs.New(obs.WithCollector())
	rt := startRuntimeDelta()
	traced, err := buildLoop(obs.With(bg, tr), o, &next, par, total/2, nil, rep)
	if err != nil {
		return nil, err
	}
	rt.record(rep)
	spans := tr.Collected()
	recordLayers(rep, spans)
	rep.metrics["obs.overhead_share"] = median(cpuMS(traced))/median(cpuMS(plain)) - 1
	rep.metrics["build.wall_p50_ms"] = median(wallMS(plain))

	_, seq, err := buildOnce(bg, o, 0, 1, rep)
	if err != nil {
		return nil, err
	}
	if seq == nil {
		return nil, fmt.Errorf("the parallel-1 build failed")
	}
	recordExact(rep, seq, nil)

	replayTr := obs.New(obs.WithCollector())
	replayWorkloads(rep, benchSeed(o.seed, 0), replayTr)
	replayEquiv(rep, seq, benchSeed(o.seed, 0), par)
	rep.metrics["failed_share"] = float64(rep.failed) / float64(rep.attempted)
	rep.zeroUnmeasured()
	return rep, finishTrace(o, rep, append(spans, replayTr.Collected()...))
}

// cpuMS and wallMS return one kind of build time in milliseconds, ascending.
func cpuMS(ts []buildTime) []float64 {
	ds := make([]time.Duration, len(ts))
	for i, t := range ts {
		ds[i] = t.cpu
	}
	return sortedMS(ds)
}

func wallMS(ts []buildTime) []float64 {
	ds := make([]time.Duration, len(ts))
	for i, t := range ts {
		ds[i] = t.wall
	}
	return sortedMS(ds)
}

// Command perfbench is the repository benchmark. It imports the module's
// packages and times calls into each layer's public functions from outside:
// core.Build, experiments.NewEnvConfig and Experiment.Run, the llm.Clients in
// Env.Registry, and serve.NewServer(...).Handler() over loopback HTTP.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 10 --trace 0
//
// One run measures one workload (reproduce, build or serve) for --seconds,
// checks every output against the digests pinned in pins.json, and prints
// as its last stdout line one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end metrics
// declared in BENCHMARK.json; with --trace 1 they are the per-layer metrics,
// computed from spans and from single-threaded replays of the oracle layers,
// and the spans are written as NDJSON under the build directory. The line
// before the result records the machine. A failed correctness check exits 1
// after printing the result; a run that cannot measure at all exits 1
// without one.
//
// Every timing comes from the benchmark's own wall clock. The simulated models
// report deterministic latency_ms and llm.Stats latency values without
// sleeping; those fields are outputs to check, never timings.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out is the directory trace files are written to; log receives the
	// per-layer table and progress notes.
	out string
	log io.Writer
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"reproduce": runReproduce,
	"build":     runBuild,
	"serve":     runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var pin bool
	var cold int64
	fs.StringVar(&o.workload, "workload", "", "workload to run: reproduce, build or serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured duration of the run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	fs.BoolVar(&pin, "pin", false, "print freshly computed pinned digests as JSON instead of running a workload")
	fs.Int64Var(&cold, "cold-build", 0, "run one verified build of this benchmark seed and print its digest (the build workload's set-up runs this in a child process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cold != 0 {
		if err := coldBuild(cold, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if pin {
		if err := printPins(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload reproduce|build|serve, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	o.trace = trace == 1
	o.log = stderr
	o.out = os.Getenv("PERFBENCH_OUT")
	if o.out == "" {
		o.out = ".bench_build"
	}
	cpu0 := readCPUTimes()
	rep, err := drive(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := rep.encode(o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	m, _ := json.Marshal(map[string]any{"machine": machine(cpu0, readCPUTimes())})
	fmt.Fprintf(stdout, "%s\n%s\n", m, line)
	if !rep.correct() {
		return 1
	}
	return 0
}

// machineInfo records what a result was measured on, so results from
// different core counts are never compared by accident. StealShare is the
// share of the machine's CPU time the hypervisor gave to other guests
// during the run: on a shared virtual machine it explains most of the
// run-to-run spread of the timings.
type machineInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	StealShare float64 `json:"steal_share"`
}

func machine(before, after []int64) machineInfo {
	m := machineInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		StealShare: -1,
	}
	// /proc/stat's cpu line counts user, nice, system, idle, iowait, irq,
	// softirq and steal time, in that order.
	if len(before) >= 8 && len(after) == len(before) {
		var total int64
		for i := range before {
			total += after[i] - before[i]
		}
		if total > 0 {
			m.StealShare = float64(after[7]-before[7]) / float64(total)
		}
	}
	return m
}

// readCPUTimes returns the fields of /proc/stat's aggregate cpu line (nil
// where there is none).
func readCPUTimes() []int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	first, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(first)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []int64
	for _, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// cpuModel reads the first "model name" line of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestPrintedMetricsAreDeclared(t *testing.T) {
	b := readBenchmark(t)
	declared := map[string]string{}
	for _, m := range b.EndToEnd {
		declared["e2e "+m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declared["layer "+m.Name] = m.Unit
	}
	printed := map[string]string{}
	for _, d := range endToEnd {
		printed["e2e "+d.name] = d.unit
	}
	for _, d := range perLayer {
		printed["layer "+d.name] = d.unit
	}
	for k, unit := range printed {
		if !metricName.MatchString(strings.Fields(k)[1]) {
			t.Errorf("metric name %q does not match %s", k, metricName)
		}
		if du, ok := declared[k]; !ok {
			t.Errorf("printed metric %q is not declared in BENCHMARK.json", k)
		} else if du != unit {
			t.Errorf("metric %q printed with unit %q, declared %q", k, unit, du)
		}
	}
	for k := range declared {
		if _, ok := printed[k]; !ok {
			t.Errorf("BENCHMARK.json declares %q, which perfbench never prints", k)
		}
	}
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %v", len(b.Workloads), names)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestEncodeRefusesUndeclaredAndMissingMetrics(t *testing.T) {
	r := newReport()
	r.attempted = 1
	for _, d := range endToEnd {
		r.metrics[d.name] = 1
	}
	if _, err := r.encode(false); err != nil {
		t.Fatalf("complete end-to-end report: %v", err)
	}
	r.metrics["made_up"] = 1
	if _, err := r.encode(false); err == nil {
		t.Error("an undeclared metric was printed")
	}
	delete(r.metrics, "made_up")
	delete(r.metrics, "setup_s")
	if _, err := r.encode(false); err == nil {
		t.Error("a report missing setup_s was printed")
	}
	if _, err := r.encode(true); err == nil {
		t.Error("end-to-end metrics were printed as the per-layer set")
	}
}

// The build workload's timings are CPU time, so waiting (on the disk, or
// for a core) must not count and work must.
func TestProcessCPUCountsWorkNotWaiting(t *testing.T) {
	before := processCPU()
	time.Sleep(300 * time.Millisecond)
	if slept := processCPU() - before; slept > 150*time.Millisecond {
		t.Errorf("sleeping 300ms used %v of CPU", slept)
	}
	before = processCPU()
	x := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	if worked := processCPU() - before; worked <= 0 {
		t.Errorf("spinning 200ms (%d rounds) used %v of CPU", x, worked)
	}
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// seedCycle is how many distinct benchmark seeds (and serve traffic sets)
// the workloads draw from. Every one has its outputs pinned in pins.json, so
// any --seed maps onto pinned inputs: seed n uses benchmark seed
// 1 + (n mod seedCycle), and the build workload walks on from there.
const seedCycle = 16

// benchSeed is the benchmark seed of the i-th build of a run at seed n.
func benchSeed(n int64, i int) int64 {
	return 1 + mod(n+int64(i), seedCycle)
}

func mod(a, m int64) int64 { return ((a % m) + m) % m }

// pinSet holds the pinned output digests, keyed by decimal seed (benchmark
// seed for reproduce and build, traffic index for serve).
type pinSet struct {
	Reproduce map[string]string `json:"reproduce"`
	Build     map[string]string `json:"build"`
	Serve     map[string]string `json:"serve"`
}

//go:embed pins.json
var pinsJSON []byte

// pins is the decoded pins.json.
var pins = func() pinSet {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("perfbench: pins.json: " + err.Error())
	}
	return p
}()

// pinned looks up one pinned digest.
func pinned(set map[string]string, key int64) (string, error) {
	d, ok := set[strconv.FormatInt(key, 10)]
	if !ok {
		return "", fmt.Errorf("no pinned digest for %d", key)
	}
	return d, nil
}

// runExperiments runs every registered experiment against env in registry
// order, each in an "experiment.run" span when ctx carries a tracer, and
// returns the sha256 of their artifact bytes and how many failed.
func runExperiments(ctx context.Context, env *experiments.Env) (string, int) {
	h := sha256.New()
	failed := 0
	var buf bytes.Buffer
	for _, e := range experiments.All() {
		buf.Reset()
		_, span := obs.Start(ctx, "experiment.run")
		err := e.Run(env, &buf)
		span.EndErr(err)
		if err != nil {
			failed++
			fmt.Fprintf(h, "%s error %v\n", e.ID, err)
			continue
		}
		fmt.Fprintf(h, "%s %d\n", e.ID, buf.Len())
		h.Write(buf.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil)), failed
}

// benchDigest is the sha256 of a benchmark's labeled datasets: every
// example's ID, SQL and labels, dataset by dataset.
func benchDigest(b *core.Benchmark) string {
	h := sha256.New()
	for _, ds := range core.TaskDatasets {
		for _, e := range b.Syntax[ds] {
			line(h, e.ID, e.SQL, e.HasError, e.Type)
		}
		for _, e := range b.Tokens[ds] {
			line(h, e.ID, e.SQL, e.Missing, e.Kind, e.Position, e.Removed)
		}
		for _, e := range b.Equiv[ds] {
			line(h, e.ID, e.SQL1, e.SQL2, e.Equivalent, e.Type)
		}
		for _, e := range b.State[ds] {
			line(h, e.ID, e.Script, e.Table, e.Want)
		}
	}
	for _, e := range b.Perf {
		line(h, e.ID, e.SQL, e.Costly, e.ElapsedMS)
	}
	for _, e := range b.Explain {
		line(h, e.ID, e.SQL, e.Description)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// line writes one tab-separated record.
func line(h hash.Hash, fields ...any) {
	for i, f := range fields {
		if i > 0 {
			h.Write([]byte{'\t'})
		}
		fmt.Fprint(h, f)
	}
	h.Write([]byte{'\n'})
}

// printPins recomputes every pinned digest and writes pins.json content. A
// change that is meant to alter outputs regenerates the file with
// `perfbench --pin > perfbench/pins.json` and says why.
func printPins(w io.Writer) error {
	p := pinSet{Reproduce: map[string]string{}, Build: map[string]string{}, Serve: map[string]string{}}
	for s := int64(1); s <= seedCycle; s++ {
		env, err := experiments.NewEnvConfig(experiments.Config{Seed: s, VerifyEquivalences: true, Parallel: runtime.NumCPU()})
		if err != nil {
			return err
		}
		digest, failed := runExperiments(context.Background(), env)
		env.Close()
		if failed > 0 {
			return fmt.Errorf("seed %d: %d experiments failed", s, failed)
		}
		key := strconv.FormatInt(s, 10)
		p.Reproduce[key] = digest
		p.Build[key] = benchDigest(env.Bench)
	}
	for i := int64(0); i < seedCycle; i++ {
		d, err := serveDigest(i)
		if err != nil {
			return err
		}
		p.Serve[strconv.FormatInt(i, 10)] = d
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// Command perfbench is the repository's benchmark. It runs the real
// qoeproxy binary as a child process on inputs generated from a seed,
// measures it from outside (its /metrics endpoint and /proc), and
// checks every run against a reference computed in-process. With
// --trace 1 it instead reports per-layer costs: the same inputs are fed
// through the public functions of each layer package under in-memory
// spans, and the daemon's own counters give the per-pass and per-client
// counts.
//
// Usage (from the repository root; perfbench/run.sh builds both
// binaries first):
//
//	perfbench --bin qoeproxy --workload replay-history --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the full envelope
// (host, per-cycle samples, attribution table, spans) is written under
// --workdir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/tlsproxy"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.bin, "bin", "", "qoeproxy binary")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for generated inputs and result envelopes")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	bin      string
	workdir  string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// prepared is a generated workload on disk with its reference.
type prepared struct {
	inputPath, modelPath, sinkPath string
	recv                           []received
	ref                            *reference
	est                            *core.Estimator
}

const (
	// poolSeed fixes the session pool and the model trained on it:
	// every workload and seed deals sessions from the same pool and is
	// served by the same forest, trained with qoeinfer's defaults. The
	// workload seed varies only how sessions are dealt to clients, so
	// per-record figures do not move with the pool's mix.
	poolSeed = 42
	poolSize = 120 // sessions per service profile
	// minCycles is the fewest daemon lifecycles a run measures.
	minCycles = 5
)

// trainModel trains the production-sized forest every workload shares.
func trainModel(corpora []*dataset.Corpus) (*core.Estimator, error) {
	var training []core.TrainingSession
	for _, c := range corpora {
		for _, r := range c.Records {
			training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
		}
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined,
		Forest: forest.Config{NumTrees: 100, MinLeaf: 2, Seed: poolSeed}})
	if err := est.Train(training); err != nil {
		return nil, fmt.Errorf("training model: %w", err)
	}
	return est, nil
}

// prepare generates the workload, writes the daemon's input and model,
// and computes the reference from the written input.
func prepare(s spec, seed int64, dir string) (*prepared, []tlsproxy.ReplayRecord, error) {
	corpora, err := buildCorpora(poolSeed, poolSize)
	if err != nil {
		return nil, nil, err
	}
	pool, err := poolOf(corpora)
	if err != nil {
		return nil, nil, err
	}
	recs, err := generate(s, pool, seed)
	if err != nil {
		return nil, nil, err
	}
	if s.source == "squid" {
		recs = squidOrder(recs)
	}
	p := &prepared{
		inputPath: filepath.Join(dir, "input"),
		modelPath: filepath.Join(dir, "model.json"),
		sinkPath:  filepath.Join(dir, "sink.csv"),
	}
	if err := writeInput(p.inputPath, s, recs); err != nil {
		return nil, nil, err
	}
	if p.est, err = trainModel(corpora); err != nil {
		return nil, nil, err
	}
	f, err := os.Create(p.modelPath)
	if err != nil {
		return nil, nil, err
	}
	if err := p.est.Save(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	if p.recv, err = readReceived(s, p.inputPath); err != nil {
		return nil, nil, err
	}
	if p.ref, err = buildReference(p.recv, p.est); err != nil {
		return nil, nil, err
	}
	return p, recs, nil
}

func run(o options) (*result, error) {
	s, err := lookupSpec(o.workload)
	if err != nil {
		return nil, err
	}
	if o.bin == "" {
		return nil, fmt.Errorf("--bin is required")
	}
	if _, err := os.Stat(o.bin); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, s.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, recs, err := prepare(s, o.seed, dir)
	if err != nil {
		return nil, err
	}
	env := newEnvelope(o, s, in)

	cycles, err := measureCycles(o.bin, s, in, o.seconds)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	var failed, attempted float64
	for _, c := range cycles {
		failed += c.failed()
		attempted += c.records + c.passes
		env.PassesTimed += len(c.passMS)
		env.Problems = append(env.Problems, c.problems...)
	}
	env.Cycles = len(cycles)
	env.Attempted, env.Failed = int64(attempted), int64(failed)
	env.FailedRatio = failed / attempted
	res.Attempted, res.Failed = env.Attempted, env.Failed
	res.Correct = failed == 0

	if o.trace == 0 {
		env.Metrics = endToEndSummaries(cycles)
	} else {
		li, err := writeLayerInputs(s, in, recs, dir)
		if err != nil {
			return nil, err
		}
		// After a warm-up, alternate untraced and traced replays and keep
		// the fastest of each; the spans of the last traced one are
		// reported.
		w, err := replayLayers(s, in, li, nil)
		if err != nil {
			return nil, err
		}
		var tr *tracer
		plain, traced := math.Inf(1), math.Inf(1)
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			if _, err := replayLayers(s, in, li, nil); err != nil {
				return nil, err
			}
			plain = min(plain, time.Since(t0).Seconds())
			tr = newTracer()
			t0 = time.Now()
			if _, err := replayLayers(s, in, li, tr); err != nil {
				return nil, err
			}
			traced = min(traced, time.Since(t0).Seconds())
		}
		env.LayerSelfNS = tr.selfTimes()
		env.Metrics, env.Attribution = layerMetrics(s, cycles, w, env.LayerSelfNS, plain, traced)
		env.SpansFile = filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", s.name, o.seed))
		if err := writeJSON(env.SpansFile, tr.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: attribution (ns/record): %v sum %.0f daemon %.0f unattributed %.0f; pass cpu %.2fms = rows %.0f x (row+sweep) %.2fms + %.2fms\n",
			env.Attribution.Layers, env.Attribution.SumNS, env.Attribution.DaemonNS, env.Attribution.UnattributedNS,
			env.Attribution.PassCPUMS, env.Attribution.RowsPerPass, env.Attribution.PassModelMS, env.Attribution.PassUnattribMS)
	}
	for name, m := range env.Metrics {
		// A run cut short by an incorrect daemon may leave a metric
		// without samples; it is reported as 0 and fails the run.
		if !finite(append([]float64{m.Value, m.Q1, m.Q3}, m.Samples...)) {
			res.Correct = false
			env.Problems = append(env.Problems, fmt.Sprintf("metric %s has no finite value", name))
			m.Value, m.Q1, m.Q3, m.Samples = 0, 0, 0, nil
			env.Metrics[name] = m
		}
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	path := filepath.Join(o.workdir, fmt.Sprintf("result-%s-seed%d-trace%d.json", s.name, o.seed, o.trace))
	if err := writeJSON(path, env); err != nil {
		if res.Correct {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: envelope not written:", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d cycles, %d passes timed, failed_ops_ratio %g; envelope %s\n",
		env.Cycles, env.PassesTimed, env.FailedRatio, path)
	for _, p := range env.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	return res, nil
}

const (
	// minPasses is the fewest timed passes behind classify_pass_ms_p90.
	minPasses = 100
	// minSteady is the fewest cycles with a steady window, behind the
	// per-pass CPU, rows and log figures.
	minSteady = 5
)

// measureCycles repeats daemon lifecycles until seconds have passed and
// at least minCycles ran, or until a cycle comes back incomplete. The
// first cycles also time a steady window of passes, until minPasses
// passes and minSteady windows are in; the rest go straight from
// ingest to drain, so a run gathers more samples of the ingest, memory
// and drain figures.
func measureCycles(bin string, s spec, in *prepared, seconds float64) ([]*cycleResult, error) {
	var cycles []*cycleResult
	timed, steady := 0, 0
	start := time.Now()
	for len(cycles) < minCycles || timed < minPasses || steady < minSteady || time.Since(start).Seconds() < seconds {
		passes := 0
		if timed < minPasses || steady < minSteady {
			passes = timedPasses
			steady++
		}
		c, err := runCycle(bin, s, in, passes, cpuPasses, 30*time.Second)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
		if c.incomplete {
			break
		}
		if c.ingestRecords <= 0 {
			return nil, fmt.Errorf("ingest finished before the first scrape; the workload is too small to time")
		}
		timed += len(c.passMS)
		fmt.Fprintf(os.Stderr, "perfbench: cycle %d: setup %.3fs, %.0f rec/s, %.2fus/rec, %.0fB/rec, pass p50 %.1fms, %.2fms cpu/pass, drain %.3fs, %.1fKiB/client\n",
			len(cycles), c.setupS, c.ingestRecords/c.ingestS, c.ingestCPUS*1e6/c.ingestRecords,
			c.ingestAlloc/c.ingestRecords, median(c.passMS), c.steadyCPUS*1e3/c.steadyPasses,
			c.drainS, c.peakRSSKB/c.clients)
	}
	return cycles, nil
}

// finite reports whether every value is a finite number.
func finite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

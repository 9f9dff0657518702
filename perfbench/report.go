package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names: endToEnd under "end_to_end", perLayer under "per_layer".
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_records_per_s", "rec/s", "higher"},
	{"cpu_us_per_record", "us", "lower"},
	{"alloc_bytes_per_record", "B", "lower"},
	{"peak_rss_kb_per_client", "KiB", "lower"},
	{"classify_pass_ms_p50", "ms", "lower"},
	{"classify_pass_ms_p90", "ms", "lower"},
	{"classify_cpu_ms_per_pass", "ms", "lower"},
	{"drain_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"squidlog.parse_ns_per_line", "ns", "lower"},
	{"ingest.squid_ns_per_record", "ns", "lower"},
	{"ingest.replay_load_ns_per_record", "ns", "lower"},
	{"ingest.replay_deliver_ns_per_record", "ns", "lower"},
	{"ingest.alloc_bytes_per_record", "B", "lower"},
	{"sessionid.push_ns_per_txn", "ns", "lower"},
	{"features.observe_ns_per_txn", "ns", "lower"},
	{"core.tracked_row_ns", "ns", "lower"},
	{"core.windowed_row_ns", "ns", "lower"},
	{"core.sweep_ns_per_row", "ns", "lower"},
	{"core.classify_session_us", "us", "lower"},
	{"ingest.contention_per_commit", "ratio", "lower"},
	{"classify.rows_per_pass", "count", "lower"},
	{"emit.log_bytes_per_pass", "B", "lower"},
	{"state.heap_inuse_bytes_per_client", "B", "lower"},
	{"runtime.gc_runs_per_1k_records", "count", "lower"},
	{"qoeproxy.layer_sum_ns_per_record", "ns", "lower"},
	{"qoeproxy.unattributed_ns_per_record", "ns", "lower"},
	{"qoeproxy.pass_unattributed_ms", "ms", "lower"},
	{"replay.baseline_ns_per_record", "ns", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// summary is one metric in the envelope: its per-cycle samples with
// median and quartiles.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) summary {
	return summary{Unit: unit, Value: median(samples), Q1: quantile(samples, 0.25), Q3: quantile(samples, 0.75), Samples: samples}
}

// steadyCycles returns the cycles that timed a steady window.
func steadyCycles(cs []*cycleResult) []*cycleResult {
	var out []*cycleResult
	for _, c := range cs {
		if c.steadyPasses > 0 {
			out = append(out, c)
		}
	}
	return out
}

// perCycle maps each cycle through f.
func perCycle(cs []*cycleResult, f func(*cycleResult) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// cycleMetrics gives each per-cycle end-to-end metric's value for one
// cycle.
var cycleMetrics = map[string]func(*cycleResult) float64{
	"setup_s":                  func(c *cycleResult) float64 { return c.setupS },
	"ingest_records_per_s":     func(c *cycleResult) float64 { return c.ingestRecords / c.ingestS },
	"cpu_us_per_record":        func(c *cycleResult) float64 { return c.ingestCPUS * 1e6 / c.ingestRecords },
	"alloc_bytes_per_record":   func(c *cycleResult) float64 { return c.ingestAlloc / c.ingestRecords },
	"peak_rss_kb_per_client":   func(c *cycleResult) float64 { return c.peakRSSKB / c.clients },
	"classify_pass_ms_p50":     func(c *cycleResult) float64 { return quantile(c.passMS, 0.5) },
	"classify_pass_ms_p90":     func(c *cycleResult) float64 { return quantile(c.passMS, 0.9) },
	"classify_cpu_ms_per_pass": func(c *cycleResult) float64 { return c.steadyCPUS * 1e3 / c.steadyPasses },
	"drain_s":                  func(c *cycleResult) float64 { return c.drainS },
}

// endToEndSummaries computes every end-to-end metric from the cycles:
// the median of one sample per cycle, over the cycles with a steady
// window for the per-pass figures. A cycle's pass percentiles are
// taken over its own timed passes, so that one cycle slowed by the
// host moves the run's figure no more than any other cycle metric.
func endToEndSummaries(cs []*cycleResult) map[string]summary {
	out := map[string]summary{}
	for _, d := range endToEnd {
		switch d.name {
		case "classify_pass_ms_p50", "classify_pass_ms_p90", "classify_cpu_ms_per_pass":
			out[d.name] = summarize(d.unit, perCycle(steadyCycles(cs), cycleMetrics[d.name]))
		default:
			out[d.name] = summarize(d.unit, perCycle(cs, cycleMetrics[d.name]))
		}
	}
	return out
}

// attribution sets the layers' per-record cost during the ingest phase
// against the daemon's measured CPU per record. Rows classified while
// ingest runs are charged at the row-build plus sweep cost.
type attribution struct {
	Layers          map[string]float64 `json:"layer_ns_per_record"`
	SumNS           float64            `json:"sum_ns_per_record"`
	DaemonNS        float64            `json:"daemon_cpu_ns_per_record"`
	UnattributedNS  float64            `json:"unattributed_ns_per_record"`
	PassCPUMS       float64            `json:"classify_cpu_ms_per_pass"`
	PassModelMS     float64            `json:"rows_times_row_and_sweep_ms"`
	PassUnattribMS  float64            `json:"pass_unattributed_ms"`
	RowsPerPass     float64            `json:"rows_per_pass"`
	IngestRowsPerRc float64            `json:"ingest_rows_per_record"`
}

// layerMetrics derives the per-layer metrics from the traced replay's
// self times, the daemon cycles' counters, and the untraced and traced
// replay wall times.
func layerMetrics(s spec, cs []*cycleResult, w *layerWork, self map[string]float64, plainS, tracedS float64) (map[string]summary, *attribution) {
	med := func(f func(*cycleResult) float64) float64 { return median(perCycle(cs, f)) }
	steadyMed := func(f func(*cycleResult) float64) float64 { return median(perCycle(steadyCycles(cs), f)) }
	v := map[string]float64{
		"squidlog.parse_ns_per_line":          self["squidlog.parse"] / w.lines,
		"ingest.squid_ns_per_record":          (self["ingest.squid_run"] - self["squidlog.parse"]) / w.records,
		"ingest.replay_load_ns_per_record":    self["ingest.replay_load"] / w.records,
		"ingest.replay_deliver_ns_per_record": self["ingest.replay_deliver"] / w.records,
		"ingest.alloc_bytes_per_record":       w.allocBytes / w.records,
		"sessionid.push_ns_per_txn":           self["sessionid.push"] / w.txns,
		"features.observe_ns_per_txn":         self["features.observe"] / w.txns,
		"core.tracked_row_ns":                 self["core.tracked_row"] / w.clients,
		"core.windowed_row_ns":                self["core.windowed_row"] / w.clients,
		"core.sweep_ns_per_row":               self["core.sweep"] / w.rows,
		"core.classify_session_us":            self["core.classify_session"] / w.clients / 1e3,
		"ingest.contention_per_commit":        med(func(c *cycleResult) float64 { return c.contention / c.commits }),
		"classify.rows_per_pass":              steadyMed(func(c *cycleResult) float64 { return c.steadyRows / c.steadyPasses }),
		"emit.log_bytes_per_pass":             steadyMed(func(c *cycleResult) float64 { return c.steadyLog / c.steadyPasses }),
		"state.heap_inuse_bytes_per_client":   med(func(c *cycleResult) float64 { return c.heapInuse / c.clients }),
		"runtime.gc_runs_per_1k_records":      med(func(c *cycleResult) float64 { return c.ingestGC * 1e3 / c.ingestRecords }),
		"replay.baseline_ns_per_record":       plainS * 1e9 / w.records,
		"trace.overhead_ratio":                tracedS/plainS - 1,
	}

	// Layers the daemon runs during ingest on this workload.
	a := &attribution{Layers: map[string]float64{}}
	if s.source == "squid" {
		a.Layers["squidlog.parse"] = v["squidlog.parse_ns_per_line"]
		a.Layers["ingest.squid"] = v["ingest.squid_ns_per_record"]
	} else {
		a.Layers["ingest.replay_deliver"] = v["ingest.replay_deliver_ns_per_record"]
	}
	a.Layers["sessionid.push"] = v["sessionid.push_ns_per_txn"]
	rowNS := v["core.windowed_row_ns"]
	if s.window == 0 {
		a.Layers["features.observe"] = v["features.observe_ns_per_txn"]
		rowNS = v["core.tracked_row_ns"]
	}
	a.IngestRowsPerRc = med(func(c *cycleResult) float64 { return c.ingestRows / c.ingestRecords })
	a.Layers["core.rows_during_ingest"] = a.IngestRowsPerRc * (rowNS + v["core.sweep_ns_per_row"])
	for _, ns := range a.Layers {
		a.SumNS += ns
	}
	a.DaemonNS = med(cycleMetrics["cpu_us_per_record"]) * 1e3
	a.UnattributedNS = a.DaemonNS - a.SumNS
	a.RowsPerPass = v["classify.rows_per_pass"]
	a.PassCPUMS = steadyMed(cycleMetrics["classify_cpu_ms_per_pass"])
	a.PassModelMS = a.RowsPerPass * (rowNS + v["core.sweep_ns_per_row"]) / 1e6
	a.PassUnattribMS = a.PassCPUMS - a.PassModelMS
	v["qoeproxy.layer_sum_ns_per_record"] = a.SumNS
	v["qoeproxy.unattributed_ns_per_record"] = a.UnattributedNS
	v["qoeproxy.pass_unattributed_ms"] = a.PassUnattribMS

	out := map[string]summary{}
	for _, d := range perLayer {
		out[d.name] = summary{Unit: d.unit, Value: v[d.name], Q1: v[d.name], Q3: v[d.name], Samples: []float64{v[d.name]}}
	}
	return out, a
}

// envelope is the full record of one run, written next to the inputs.
type envelope struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        int                `json:"trace"`
	GitRev       string             `json:"git_rev"`
	SourceDigest string             `json:"source_sha256,omitempty"`
	Date         string             `json:"date"`
	GoVersion    string             `json:"go_version"`
	CPUsOnline   int                `json:"cpus_online"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	DaemonArgs   []string           `json:"daemon_args"`
	Records      int                `json:"records"`
	Clients      int                `json:"clients"`
	Cycles       int                `json:"cycles"`
	PassesTimed  int                `json:"passes_timed"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	FailedRatio  float64            `json:"failed_ops_ratio"`
	Problems     []string           `json:"problems,omitempty"`
	Metrics      map[string]summary `json:"metrics"`
	Attribution  *attribution       `json:"attribution,omitempty"`
	LayerSelfNS  map[string]float64 `json:"layer_self_ns,omitempty"`
	SpansFile    string             `json:"spans_file,omitempty"`
}

func newEnvelope(o options, s spec, in *prepared) *envelope {
	env := &envelope{
		Workload:   s.name,
		Seed:       o.seed,
		Trace:      o.trace,
		GitRev:     gitRev(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		CPUsOnline: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonArgs: daemonArgs(s, "INPUT", "MODEL", "SINK"),
		Records:    in.ref.records,
		Clients:    len(in.ref.clients),
	}
	if env.GitRev == "" {
		env.SourceDigest = sourceDigest()
	}
	return env
}

// gitRev is the checked-out commit, or "" outside a git work tree.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under the
// working directory (skipping hidden directories). It identifies the
// code measured in a checkout without git metadata.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/tlsproxy"
)

// tiny shrinks a workload to a few clients for tests.
func tiny(s spec) spec {
	s.clients = 12
	if s.sessions > 1 {
		s.sessions = 3
	}
	return s
}

func render(t *testing.T, s spec, recs []tlsproxy.ReplayRecord) []byte {
	t.Helper()
	if s.source == "squid" {
		recs = squidOrder(recs)
	}
	path := filepath.Join(t.TempDir(), "input")
	if err := writeInput(path, s, recs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testPool is a small fixed session pool.
func testPool(t *testing.T) [][]capture.TLSTransaction {
	t.Helper()
	corpora, err := buildCorpora(poolSeed, 8)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := poolOf(corpora)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	pool := testPool(t)
	for _, w := range workloads {
		s := tiny(w)
		a, err := generate(s, pool, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(s, pool, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(s, pool, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(t, s, a), render(t, s, b)) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", s.name)
		}
		if bytes.Equal(render(t, s, a), render(t, s, c)) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", s.name)
		}
	}
}

func TestEndAlignedClientsInsideWindow(t *testing.T) {
	s, err := lookupSpec("resident-windowed")
	if err != nil {
		t.Fatal(err)
	}
	s.clients = 300
	recs, err := generate(s, testPool(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	maxEnd := 0.0
	last := map[string]float64{}
	for _, r := range recs {
		maxEnd = max(maxEnd, r.End)
		last[r.Client] = max(last[r.Client], r.End)
	}
	if len(last) != s.clients {
		t.Fatalf("%d clients generated, want %d", len(last), s.clients)
	}
	cutoff := maxEnd - s.window.Seconds()
	for c, end := range last {
		if end < cutoff {
			t.Errorf("client %s ends at %.1fs, before the window cutoff %.1fs", c, end, cutoff)
		}
	}
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("BENCHMARK.json %s[%d] = %+v, benchmark reports %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", endToEnd, file.EndToEnd)
	check("per_layer", perLayer, file.PerLayer)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, file.Workloads[i].Name, w.name)
		}
	}
}

// TestTinyRunsPassCorrectnessGate drives the real daemon through one
// cycle of every workload at a few clients and runs the layer replay.
func TestTinyRunsPassCorrectnessGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs qoeproxy")
	}
	bin := filepath.Join(t.TempDir(), "qoeproxy")
	build := exec.Command("go", "build", "-o", bin, "droppackets/cmd/qoeproxy")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building qoeproxy: %v\n%s", err, out)
	}
	for _, w := range workloads {
		s := tiny(w)
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			in, recs, err := prepare(s, 5, dir)
			if err != nil {
				t.Fatal(err)
			}
			c, err := runCycle(bin, s, in, 2, 2, 20*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if c.failed() != 0 || len(c.problems) != 0 {
				t.Fatalf("correctness gate failed: %v", c.problems)
			}
			li, err := writeLayerInputs(s, in, recs, dir)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			lw, err := replayLayers(s, in, li, tr)
			if err != nil {
				t.Fatal(err)
			}
			if int(lw.records) != in.ref.records || int(lw.clients) != s.clients {
				t.Errorf("layer replay saw %v records and %v clients, want %d and %d", lw.records, lw.clients, in.ref.records, s.clients)
			}
			self := tr.selfTimes()
			for _, name := range []string{"ingest.replay_load", "ingest.replay_deliver", "squidlog.parse", "ingest.squid_run",
				"sessionid.push", "features.observe", "core.tracked_row", "core.windowed_row", "core.sweep", "core.classify_session"} {
				if self[name] <= 0 {
					t.Errorf("no self time recorded for layer span %s", name)
				}
			}
		})
	}
}

// TestReferenceDetectsWrongOutputs feeds the gate a corrupted summary
// and sink, so a daemon that drops or alters records cannot pass.
func TestReferenceDetectsWrongOutputs(t *testing.T) {
	s := tiny(workloads[0])
	dir := t.TempDir()
	in, _, err := prepare(s, 5, dir)
	if err != nil {
		t.Fatal(err)
	}
	var summary bytes.Buffer
	var sink bytes.Buffer
	sink.WriteString("session,sni,start,end,up_bytes,down_bytes\n")
	var line []byte
	for _, r := range in.recv {
		sink.Write(append(appendSinkLine(line[:0], r.client, r.txn), '\n'))
	}
	for client, c := range in.ref.clients {
		summary.WriteString("client " + client + " sessions-qoe=" + c.class + " (" +
			strconv.Itoa(len(c.committed)) + " transactions, " + strconv.FormatInt(c.pushed+c.flushed, 10) + " boundaries)\n")
	}
	if bad := in.ref.checkSummary(summary.Bytes()); len(bad) != 0 {
		t.Fatalf("correct summary rejected: %v", bad)
	}
	sinkPath := filepath.Join(dir, "sink.csv")
	if err := os.WriteFile(sinkPath, sink.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := in.ref.checkSink(sinkPath); err != nil || n != 0 {
		t.Fatalf("correct sink rejected: %d bad lines, %v", n, err)
	}

	lines := bytes.SplitAfter(sink.Bytes(), []byte("\n"))
	dup := append(bytes.Join(lines[:len(lines)-2], nil), lines[1]...) // last record dropped, first repeated
	if err := os.WriteFile(sinkPath, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _ := in.ref.checkSink(sinkPath); n != 2 {
		t.Errorf("sink with one record dropped and one repeated: %d bad lines, want 2", n)
	}
	wrong := bytes.Replace(summary.Bytes(), []byte(" transactions"), []byte("0 transactions"), 1)
	if bad := in.ref.checkSummary(wrong); len(bad) != 1 {
		t.Errorf("summary with one wrong count: %d mismatches, want 1", len(bad))
	}
}

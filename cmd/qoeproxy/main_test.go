package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/sessionid"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

func TestLoadResolverMapAndFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.txt")
	content := "# comment\ncdn-01.svc1.example 10.0.0.1:9443\napi.svc1.example 10.0.0.2:9443\n\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := loadResolver(path, "fallback:443")
	if err != nil {
		t.Fatal(err)
	}
	if addr, _ := r("cdn-01.svc1.example"); addr != "10.0.0.1:9443" {
		t.Errorf("mapped SNI -> %s", addr)
	}
	if addr, _ := r("other.example"); addr != "fallback:443" {
		t.Errorf("unmapped SNI -> %s", addr)
	}
}

func TestLoadResolverNoFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.txt")
	os.WriteFile(path, []byte("a.example 1.2.3.4:443\n"), 0o644)
	r, err := loadResolver(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r("unmapped.example"); err == nil {
		t.Error("unmapped SNI without fallback should error")
	}
}

func TestLoadResolverErrors(t *testing.T) {
	if _, err := loadResolver("", ""); err == nil {
		t.Error("no map and no fallback accepted")
	}
	if _, err := loadResolver("/nonexistent/map", "x:1"); err == nil {
		t.Error("missing map file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	os.WriteFile(bad, []byte("one-field-only\n"), 0o644)
	if _, err := loadResolver(bad, "x:1"); err == nil {
		t.Error("malformed map line accepted")
	}
}

func TestClientHost(t *testing.T) {
	tests := []struct {
		addr, want string
	}{
		{"10.0.0.5:51234", "10.0.0.5"},
		{"1.2.3.4:5", "1.2.3.4"},
		{"noport", "noport"},
		{"[::1]:443", "::1"},
		{"::1", "::1"}, // bare IPv6: a LastIndex(":") cut would yield "::"
		{"[2001:db8::42]:8443", "2001:db8::42"},
		{"2001:db8::42", "2001:db8::42"},
		{"", ""},
	}
	for _, tc := range tests {
		if got := clientHost(tc.addr); got != tc.want {
			t.Errorf("clientHost(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

// freePort reserves a port briefly and returns it for reuse.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestOpenAppendHeaderOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txns.csv")
	f, empty, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Error("fresh file reported non-empty")
	}
	f.WriteString("header\n")
	f.Close()
	f, empty, err = openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if empty {
		t.Error("existing file reported empty: header would duplicate")
	}
}

// TestRunValidatesOutputsBeforeBinding feeds run an uncreatable -out
// path and expects an error naming the flag, with the listen address
// never bound (so no client could have connected to a doomed daemon).
func TestRunValidatesOutputsBeforeBinding(t *testing.T) {
	listen := freePort(t)
	err := run(options{
		listen:   listen,
		upstream: "127.0.0.1:1",
		outPath:  filepath.Join(t.TempDir(), "missing-dir", "txns.csv"),
	})
	if err == nil {
		t.Fatal("run accepted an uncreatable -out path")
	}
	if !strings.Contains(err.Error(), "-out") {
		t.Errorf("error does not name the flag: %v", err)
	}
	// The listener must never have come up.
	if conn, err := net.DialTimeout("tcp", listen, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listen address was bound despite invalid output path")
	}

	err = run(options{
		listen:    listen,
		upstream:  "127.0.0.1:1",
		modelPath: filepath.Join(t.TempDir(), "no-such-model.json"),
	})
	if err == nil {
		t.Fatal("run accepted a missing model")
	}
}

// scrape fetches a URL body, failing the test on any error.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// metricValue extracts the value of an unlabeled series from a scrape.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in scrape:\n%s", series, body)
	return 0
}

// TestClassifyPassPaths drives classifyPass directly through both the
// incremental (window 0, accumulator-backed) and the sliding-window
// row builders on the same synthetic client state — transactions split
// across decided, in-flight and buffered runs — and requires each to
// agree with a plain batch classification of the whole session.
func TestClassifyPassPaths(t *testing.T) {
	corpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 5}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name   string
		window time.Duration
	}{
		{"incremental", 0},
		{"windowed", time.Hour},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, _ := newTestService(t, options{window: mode.window}, est)
			txns := corpus.Records[1].Capture.TLS
			if len(txns) < 3 {
				t.Skip("record too small to split")
			}
			cut1, cut2 := len(txns)/3, 2*len(txns)/3
			sh := s.shardFor("10.9.9.9")
			sh.mu.Lock()
			cs := s.state(sh, "10.9.9.9")
			cs.run = append(cs.run, txns...)
			cs.decided = cut1
			if cs.tracked != nil {
				cs.tracked.ObserveAll(cs.current())
			}
			// The in-flight segment is whatever the streamer holds pending.
			var look sessionid.StreamerState
			for _, tx := range txns[cut1:cut2] {
				look.Pending = append(look.Pending, sessionid.Transaction{Start: tx.Start, End: tx.End, SNI: tx.SNI})
			}
			cs.streamer = sessionid.RestoreStreamer(sessionid.PaperParams, look)
			sh.mu.Unlock()

			want, err := est.Classify(txns)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // second pass reuses warm buffers
				s.classifyPass(1)
				sh.mu.Lock()
				got, has := cs.lastClass, cs.hasClass
				sh.mu.Unlock()
				if !has {
					t.Fatalf("pass %d: no classification recorded", pass)
				}
				if got != want {
					t.Fatalf("pass %d: class = %d, batch Classify = %d", pass, got, want)
				}
			}
			if cs.tracked != nil && cs.tracked.Len() != cut1 {
				t.Fatalf("speculative pass leaked state: tracked.Len = %d, want %d", cs.tracked.Len(), cut1)
			}
		})
	}
}

// TestRunReplay boots the daemon with -source replay instead of live
// traffic and checks the records flow through the real ingest
// path: transaction and classification metrics move, and shutdown
// still drains cleanly.
func TestRunReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon integration is slow")
	}
	corpus, err := dataset.Build(dataset.Config{Seed: 3, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 3}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	// Workload: 40 clients, one session each, drawn from the corpus.
	var recs []tlsproxy.ReplayRecord
	for i := 0; i < 40; i++ {
		r := corpus.Records[i%len(corpus.Records)]
		client := fmt.Sprintf("10.42.0.%d:40000", i+1)
		for _, txn := range r.Capture.TLS {
			recs = append(recs, tlsproxy.ReplayRecord{
				Client: client, SNI: txn.SNI,
				Start: txn.Start, End: txn.End,
				UpBytes: txn.UpBytes, DownBytes: txn.DownBytes,
			})
		}
	}
	workloadPath := filepath.Join(dir, "workload.csv")
	wf, err := os.Create(workloadPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsproxy.WriteWorkload(wf, recs); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	listen := freePort(t)
	metricsAddr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			listen:        listen,
			upstream:      "127.0.0.1:1",
			modelPath:     modelPath,
			metricsAddr:   metricsAddr,
			classifyEvery: 100 * time.Millisecond,
			classifyBatch: 8,
			source:        "replay",
			input:         workloadPath,
			ingestWorkers: 2,
		})
	}()

	// Replay runs at full speed; wait for every record to land and a
	// classification pass to run.
	base := "http://" + metricsAddr
	deadline := time.Now().Add(15 * time.Second)
	var txns, runs float64
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			txns = metricValue(t, string(body), "qoeproxy_transactions_total")
			runs = metricValue(t, string(body), "qoeproxy_classification_runs_total")
			if txns == float64(len(recs)) && runs >= 1 {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if txns != float64(len(recs)) {
		t.Errorf("qoeproxy_transactions_total = %g, want %d", txns, len(recs))
	}
	if runs < 1 {
		t.Errorf("qoeproxy_classification_runs_total = %g, want >= 1", runs)
	}
	body := scrape(t, base+"/metrics")
	if got := metricValue(t, body, "qoeproxy_classification_errors_total"); got != 0 {
		t.Errorf("qoeproxy_classification_errors_total = %g", got)
	}
	for _, series := range []string{
		"qoeproxy_gc_pause_seconds_total",
		"qoeproxy_gc_runs_total",
		"qoeproxy_heap_alloc_bytes_total",
		"qoeproxy_heap_inuse_bytes",
		"qoeproxy_goroutines",
	} {
		metricValue(t, body, series)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestRunEndToEnd drives the daemon: origin <- proxy <- client, CSV and
// Squid outputs, live /metrics+/healthz with online classification
// while relaying, then shutdown via SIGINT with model classification.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon integration is slow")
	}
	// Train and save a tiny model for the shutdown classification.
	corpus, err := dataset.Build(dataset.Config{Seed: 2, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 2}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	// Origin behind the proxy.
	origin := tlsproxy.NewOrigin(0)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go origin.Serve(ol)
	defer origin.Close()

	listen := freePort(t)
	metricsAddr := freePort(t)
	csvPath := filepath.Join(dir, "txns.csv")
	squidPath := filepath.Join(dir, "access.log")
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			listen:        listen,
			upstream:      ol.Addr().String(),
			outPath:       csvPath,
			squidPath:     squidPath,
			modelPath:     modelPath,
			metricsAddr:   metricsAddr,
			classifyEvery: 150 * time.Millisecond,
			window:        0, // whole current session
		})
	}()

	// Wait for the listener, then stream two connections through it.
	var client *tlsproxy.Client
	deadline := time.Now().Add(5 * time.Second)
	for {
		client, err = tlsproxy.Dial(listen, "cdn-01.svc1.example")
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial daemon: %v", err)
	}
	if _, err := client.Fetch(120_000); err != nil {
		t.Fatal(err)
	}
	client.Close()
	second, err := tlsproxy.Dial(listen, "api.svc1.example")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Fetch(20_000); err != nil {
		t.Fatal(err)
	}
	second.Close()

	// The service must classify DURING operation: wait for a prediction
	// counter to move while the daemon is still relaying.
	base := "http://" + metricsAddr
	deadline = time.Now().Add(10 * time.Second)
	classified := false
	for !classified && time.Now().Before(deadline) {
		body := scrape(t, base+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "qoeproxy_qoe_predictions_total{") && !strings.HasSuffix(line, " 0") {
				classified = true
			}
		}
		if !classified {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if !classified {
		t.Error("no online classification happened while the daemon was serving")
	}

	// Core series must exist and reflect the relayed traffic.
	body := scrape(t, base+"/metrics")
	if got := metricValue(t, body, "qoeproxy_transactions_total"); got != 2 {
		t.Errorf("qoeproxy_transactions_total = %g, want 2", got)
	}
	if got := metricValue(t, body, "qoeproxy_relayed_down_bytes_total"); got < 140_000 {
		t.Errorf("qoeproxy_relayed_down_bytes_total = %g, want >= 140000", got)
	}
	if got := metricValue(t, body, "qoeproxy_connections_total"); got != 2 {
		t.Errorf("qoeproxy_connections_total = %g, want 2", got)
	}
	if got := metricValue(t, body, "qoeproxy_clients"); got != 1 {
		t.Errorf("qoeproxy_clients = %g, want 1", got)
	}
	if got := metricValue(t, body, "qoeproxy_inference_seconds_count"); got < 1 {
		t.Errorf("qoeproxy_inference_seconds_count = %g, want >= 1", got)
	}
	if got := metricValue(t, body, "qoeproxy_feature_extraction_seconds_count"); got < 1 {
		t.Errorf("qoeproxy_feature_extraction_seconds_count = %g, want >= 1", got)
	}
	for _, series := range []string{
		"qoeproxy_hello_parse_failures_total",
		"qoeproxy_resolve_failures_total",
		"qoeproxy_dial_failures_total",
		"qoeproxy_session_boundaries_total",
		"qoeproxy_feature_transactions_ingested_total",
		"qoeproxy_active_sessions",
	} {
		metricValue(t, body, series)
	}

	var health struct {
		Status           string  `json:"status"`
		UptimeSeconds    float64 `json:"uptime_seconds"`
		TotalConnections int64   `json:"total_connections"`
	}
	if err := json.Unmarshal([]byte(scrape(t, base+"/healthz")), &health); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if health.Status != "ok" || health.UptimeSeconds <= 0 || health.TotalConnections != 2 {
		t.Errorf("healthz = %+v", health)
	}

	// Stop the daemon.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csvData), "cdn-01.svc1.example") {
		t.Errorf("CSV missing transaction:\n%s", csvData)
	}
	squidData, err := os.ReadFile(squidPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := squidlog.Parse(strings.NewReader(string(squidData)))
	if err != nil {
		t.Fatalf("squid log does not parse: %v", err)
	}
	if len(entries) != 2 {
		t.Errorf("%d squid entries, want 2", len(entries))
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/faultinject"
	"droppackets/internal/qoe"
	"droppackets/internal/tlsproxy"
)

// logBuffer is a concurrency-safe sink for the service's JSON logs so
// tests can count and parse structured lines.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// countLogMsg counts structured log lines with the given msg value.
func (b *logBuffer) countLogMsg(t *testing.T, msg string) int {
	t.Helper()
	n := 0
	for _, line := range b.lines() {
		if line == "" {
			continue
		}
		var entry struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if entry.Msg == msg {
			n++
		}
	}
	return n
}

// newTestService assembles a service around synthetic state: a real
// (non-serving) proxy for the stats bridges, captured logs, and the
// given options/estimator. An optional trailing estimator becomes the
// shadow challenger, installed in the first serving bundle.
func newTestService(t testing.TB, opts options, est *core.Estimator, shadow ...*core.Estimator) (*service, *logBuffer) {
	t.Helper()
	logs := &logBuffer{}
	proxy, err := tlsproxy.New(tlsproxy.Config{Resolver: tlsproxy.StaticResolver("127.0.0.1:9")})
	if err != nil {
		t.Fatal(err)
	}
	s := newService(opts, slog.New(slog.NewJSONHandler(logs, nil)), est)
	t.Cleanup(s.stopSinkWriter)
	s.epoch = time.Unix(1_700_000_000, 0)
	s.proxy = proxy
	if len(shadow) > 0 {
		s.pendingShadow = shadow[0]
	}
	s.registerMetrics()
	return s, logs
}

// client returns the live state for a client host, or nil. Tests read
// the returned state without the shard lock, which is safe only while
// no other goroutine is feeding the service.
func (s *service) client(host string) *clientState {
	sh := s.shardFor(host)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.clients[host]
}

// record builds a completed-transaction record at the given epoch
// offsets (seconds).
func (s *service) record(connID uint64, client, sni string, start, end float64, up, down int64) tlsproxy.Record {
	return tlsproxy.Record{
		ConnID:     connID,
		SNI:        sni,
		ClientAddr: client,
		Start:      s.epoch.Add(time.Duration(start * float64(time.Second))),
		End:        s.epoch.Add(time.Duration(end * float64(time.Second))),
		UpBytes:    up,
		DownBytes:  down,
	}
}

// ingestOne delivers one completed record as a one-element batch,
// which is exactly what ProxySource hands the service per connection.
func (s *service) ingestOne(r tlsproxy.Record) {
	s.onTransactionBatch([]tlsproxy.Record{r})
}

// TestSinkWriteFailures drives transactions into a sink that fails a
// burst of writes then recovers, pumba-style: the failures must be
// counted, logged once per burst, reflected in /healthz while they
// last, and must never stop the transaction pipeline.
func TestSinkWriteFailures(t *testing.T) {
	s, logs := newTestService(t, options{window: time.Hour}, nil)
	var out bytes.Buffer
	fw := faultinject.NewWriter(&out, faultinject.Schedule{
		Fault: faultinject.FaultError, Ops: 2, Err: errors.New("disk full"),
	})
	s.out = &sink{w: fw, name: "out"}

	healthStatus := func() (string, int64) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.httpHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var h struct {
			Status            string `json:"status"`
			SinkWriteFailures int64  `json:"sink_write_failures"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz: %v", err)
		}
		return h.Status, h.SinkWriteFailures
	}

	if st, _ := healthStatus(); st != "ok" {
		t.Fatalf("initial health = %q, want ok", st)
	}
	for i := 0; i < 2; i++ { // burst: both writes fail
		r := s.record(uint64(i+1), "10.1.1.1:5000", "cdn-01.svc1.example", float64(i), float64(i)+0.5, 100, 1000)
		s.onConnOpen(r)
		s.ingestOne(r)
	}
	s.flushSinks() // writes happen on the writer goroutine
	if got := s.mSinkFailures.Value(); got != 2 {
		t.Errorf("sink_write_failures = %d, want 2", got)
	}
	if got := logs.countLogMsg(t, "sink write failing, records dropped until it recovers"); got != 1 {
		t.Errorf("failure burst logged %d times, want once", got)
	}
	if st, n := healthStatus(); st != "degraded" || n != 2 {
		t.Errorf("mid-burst health = %q/%d, want degraded/2", st, n)
	}

	r := s.record(3, "10.1.1.1:5000", "cdn-01.svc1.example", 3, 3.5, 100, 1000)
	s.onConnOpen(r)
	s.ingestOne(r) // sink recovered
	s.flushSinks()
	if got := logs.countLogMsg(t, "sink recovered"); got != 1 {
		t.Errorf("recovery logged %d times, want once", got)
	}
	if st, n := healthStatus(); st != "ok" || n != 2 {
		t.Errorf("post-recovery health = %q/%d, want ok/2", st, n)
	}
	if !strings.Contains(out.String(), "cdn-01.svc1.example") {
		t.Error("recovered write did not reach the sink")
	}
	// The pipeline itself never dropped a transaction.
	if got := s.mTxns.Value(); got != 3 {
		t.Errorf("transactions_total = %d, want 3", got)
	}
	if cs := s.client("10.1.1.1"); cs == nil || cs.txns != 3 {
		t.Fatalf("client state lost transactions during the sink burst: %+v", cs)
	}
}

// TestServeLoopDrainsOnListenerError is the regression test for the
// errCh exit path: a dying listener must flush the sessionizers (like
// the signal path does), not abandon pending decisions.
func TestServeLoopDrainsOnListenerError(t *testing.T) {
	s, _ := newTestService(t, options{window: time.Hour}, nil)
	const n = 5
	for i := 0; i < n; i++ {
		r := s.record(uint64(i+1), "10.2.2.2:6000", "cdn-01.svc1.example", float64(i*10), float64(i*10)+2, 100, 1000)
		s.onConnOpen(r)
		s.ingestOne(r)
	}
	cs := s.client("10.2.2.2")
	pending := len(cs.inFlight()) + len(cs.buffered())
	if pending == 0 {
		t.Fatal("test needs transactions still pending inside the streamer's look-ahead")
	}

	boom := errors.New("accept: too many open files")
	errCh := make(chan error, 1)
	errCh <- boom
	if err := s.serveLoop(errCh, nil, nil, func() {}, func() {}); !errors.Is(err, boom) {
		t.Fatalf("serveLoop returned %v, want the listener error", err)
	}

	if len(cs.inFlight()) != 0 || len(cs.buffered()) != 0 {
		t.Errorf("listener-error exit left %d in-flight and %d buffered transactions undrained",
			len(cs.inFlight()), len(cs.buffered()))
	}
	if len(cs.current()) != n {
		t.Errorf("current session has %d transactions after drain, want %d", len(cs.current()), n)
	}
}

// TestClassificationErrorsMetric feeds a classification pass a
// deliberately broken (never-trained) model: the error counter must
// move and the runs counter must not.
func TestClassificationErrorsMetric(t *testing.T) {
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined}) // mismatched: never trained
	s, logs := newTestService(t, options{window: time.Hour}, est)
	for i := 0; i < 4; i++ {
		r := s.record(uint64(i+1), "10.3.3.3:7000", "cdn-01.svc1.example", float64(i), float64(i)+0.5, 100, 1000)
		s.onConnOpen(r)
		s.ingestOne(r)
	}
	s.classifyPass(10)
	if got := s.mClassErrors.Value(); got != 1 {
		t.Errorf("classification_errors_total = %d, want 1", got)
	}
	if got := s.mRuns.Value(); got != 0 {
		t.Errorf("classification_runs_total = %d after a failed pass, want 0", got)
	}
	if got := logs.countLogMsg(t, "classification failed"); got != 1 {
		t.Errorf("failure logged %d times, want 1", got)
	}
	if s.client("10.3.3.3").hasClass {
		t.Error("a failed pass must not record a classification")
	}
}

// TestSinkShortWriteCounted checks the torn-write shape: a short write
// is a failure (the record line is broken), so it counts.
func TestSinkShortWriteCounted(t *testing.T) {
	s, _ := newTestService(t, options{window: time.Hour}, nil)
	var out bytes.Buffer
	s.out = &sink{w: faultinject.NewWriter(&out, faultinject.Schedule{
		Fault: faultinject.FaultShortWrite, Ops: 1,
	}), name: "out"}
	r := s.record(1, "10.4.4.4:8000", "cdn-01.svc1.example", 0, 0.5, 100, 1000)
	s.onConnOpen(r)
	s.ingestOne(r)
	s.flushSinks()
	if got := s.mSinkFailures.Value(); got != 1 {
		t.Errorf("sink_write_failures = %d after a short write, want 1", got)
	}
}

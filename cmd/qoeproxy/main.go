// Command qoeproxy runs the SNI-sniffing transparent proxy as a
// long-running inference service: it relays TLS connections to their
// backends, exports one transaction record per connection (CSV and/or
// Squid-format log), delimits each client's sessions online with the
// streaming sessionizer, and — when given a trained model — classifies
// every client's current session periodically during operation, not
// only at shutdown. Runtime state is observable over HTTP: /metrics
// serves Prometheus text format, /healthz a JSON liveness summary.
//
// Usage:
//
//	qoeproxy -listen 127.0.0.1:8443 -upstream 127.0.0.1:9443
//	         [-resolve map.txt] [-out transactions.csv]
//	         [-squid-log access.log] [-model model.json]
//	         [-shadow-model challenger.json]
//	         [-metrics 127.0.0.1:9090] [-classify-every 30s]
//	         [-window 4m] [-client-ttl 1h] [-max-session-txns 4096]
//	         [-shards N] [-classify-workers N]
//	         [-source proxy|squid|pcap|netflow|replay] [-input FILE]
//	         [-ingest-speed X] [-ingest-workers N] [-ingest-epoch T]
//	         [-ingest-horizon 5m] [-follow=true] [-parse-workers N]
//	         [-cluster-config cluster.json] [-instance-id ID]
//	         [-snapshot state.json] [-restore state.json]
//	         [-v]
//
// The daemon's telemetry arrives through one internal/ingest
// TransactionSource selected with -source: the live proxy (default),
// a tailed Squid access log, a pcap packet trace, a client-attributed
// NetFlow record CSV, or a replay workload CSV — everything downstream
// of the callbacks (sessionization, classification, sinks, metrics) is
// source-agnostic and byte-identical for equivalent inputs. Non-proxy
// sources read -input, do not bind -listen and need no -upstream;
// docs/INGEST.md is the per-source guide.
//
// The resolver map file holds "sni backend:port" lines; unlisted SNIs
// fall back to -upstream. Logs are JSON lines on stderr (-v adds
// per-transaction detail). Per-client memory is bounded: idle clients
// are evicted after -client-ttl (their final classification is
// emitted first) and retained transaction state is capped at
// -max-session-txns, so the daemon's footprint is O(active clients),
// not O(all traffic ever seen). Per-client state is partitioned into
// -shards lock-sharded maps (default GOMAXPROCS) so concurrent
// connections ingest in parallel, and the classify tick fans out
// across shards on a -classify-workers pool, sweeping each shard's
// feature rows through the compiled scorer in contiguous row-major
// blocks; outputs stay ordered through a single sink-writer goroutine.
// -source replay feeds a recorded workload CSV
// (internal/tlsproxy.ReadWorkload) into the same ingest path with
// logical timestamps, at -ingest-speed times recorded speed — which is
// how cmd/qoeload drives tens of thousands of simulated clients through
// the real serving loop without a socket per session.
//
// The model is operated like production ML, not loaded once and served
// forever. SIGHUP or POST /admin/reload (loopback callers only, on the
// -metrics listener) re-reads -model (and -shadow-model, if set) and
// swaps the compiled estimator in atomically — each classification
// pass reads the model pointer exactly once, so no sweep ever mixes
// two models, and a corrupt file is rejected with the previous model
// untouched. -shadow-model scores a challenger over the same gathered
// feature rows, reporting disagreement and per-class confusion
// counters without altering a byte of the primary's output. Models
// saved with a training baseline (cmd/qoeinfer -save) additionally
// expose per-feature drift z-scores comparing live traffic against the
// training distribution. Stop with SIGINT/SIGTERM:
// the proxy stops accepting, drains open relays, flushes the
// sessionizers, prints per-client QoE estimates (if -model is given)
// and exits cleanly.
//
// The daemon also runs as one member of a serving fleet:
// -cluster-config/-instance-id load a static consistent-hash ring
// (internal/cluster) so N instances tailing the same telemetry jointly
// cover every client exactly once, each skipping (and counting) the
// clients the ring assigns elsewhere. -snapshot serializes the live
// serving state on shutdown (or POST /admin/snapshot) and -restore
// rebuilds it at startup, so an instance restarts warm — or hands its
// partitions to a peer — with mid-session classifications
// byte-identical to a daemon that never stopped (see snapshot.go).
// docs/OPERATIONS.md is the full runbook.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/cluster"
	"droppackets/internal/core"
	"droppackets/internal/ingest"
	"droppackets/internal/metrics"
	"droppackets/internal/sessionid"
	"droppackets/internal/squidlog"
	"droppackets/internal/stats"
	"droppackets/internal/tlsproxy"
)

func main() {
	var opts options
	flag.StringVar(&opts.listen, "listen", "127.0.0.1:8443", "address to listen on")
	flag.StringVar(&opts.upstream, "upstream", "", "default backend address (required unless every SNI is mapped)")
	flag.StringVar(&opts.resolve, "resolve", "", "file of 'sni backend:port' mappings")
	flag.StringVar(&opts.outPath, "out", "", "append transaction CSV records to this file")
	flag.StringVar(&opts.squidPath, "squid-log", "", "append Squid-format log lines to this file")
	flag.StringVar(&opts.modelPath, "model", "", "saved model (cmd/qoeinfer -save) for online and shutdown classification")
	flag.StringVar(&opts.shadowPath, "shadow-model", "", "challenger model scored over the same rows as -model; disagreements are counted, output is untouched")
	flag.StringVar(&opts.metricsAddr, "metrics", "127.0.0.1:9090", "address for /metrics and /healthz (empty disables)")
	flag.DurationVar(&opts.classifyEvery, "classify-every", 30*time.Second, "interval between online classification passes (0 disables)")
	flag.DurationVar(&opts.window, "window", 4*time.Minute, "sliding window of transactions classified per pass (0 = whole current session)")
	flag.DurationVar(&opts.clientTTL, "client-ttl", time.Hour, "evict a client's state after this much idle time, emitting its final classification (0 disables; swept on the classify tick)")
	flag.IntVar(&opts.maxSessionTxns, "max-session-txns", 4096, "most transactions retained per client session and summary buffer; oldest are dropped beyond it (0 = unbounded)")
	flag.IntVar(&opts.shards, "shards", 0, "lock shards for per-client state; ingest for clients on different shards never contends (0 = GOMAXPROCS)")
	flag.IntVar(&opts.classifyWorkers, "classify-workers", 0, "goroutines fanning the classify tick across shards (0 = GOMAXPROCS, capped at -shards)")
	flag.StringVar(&opts.source, "source", "proxy", "primary telemetry source: proxy|squid|pcap|netflow|replay (docs/INGEST.md)")
	flag.StringVar(&opts.input, "input", "", "input file for a non-proxy -source: Squid access log, pcap trace, flow CSV or workload CSV")
	flag.Float64Var(&opts.ingestSpeed, "ingest-speed", 0, "time-compression factor for file sources: 1 = recorded pace, 0 = as fast as possible")
	flag.IntVar(&opts.ingestWorkers, "ingest-workers", 1, "delivery goroutines for batch file sources (clients hash-partitioned; per-client order preserved)")
	flag.Float64Var(&opts.ingestEpoch, "ingest-epoch", -1, "Unix time mapped to offset 0 for squid/pcap sources (-1 = first event's time)")
	flag.DurationVar(&opts.ingestHorizon, "ingest-horizon", 5*time.Minute, "reordering slack for -source=squid: entries are released once the log's end-time watermark is this far past them")
	flag.BoolVar(&opts.follow, "follow", true, "for -source=squid: keep tailing the log across rotation/truncation (false stops at EOF)")
	flag.IntVar(&opts.parseWorkers, "parse-workers", 1, "for -source=squid: goroutines decoding log lines (output is identical at any setting)")
	flag.StringVar(&opts.clusterConfig, "cluster-config", "", "cluster membership file (internal/cluster JSON); this instance serves only the clients the ring assigns it")
	flag.StringVar(&opts.instanceID, "instance-id", "", "this daemon's id in -cluster-config (required with it)")
	flag.StringVar(&opts.snapshotPath, "snapshot", "", "write the serving state here on shutdown (and on POST /admin/snapshot) instead of printing the shutdown summary")
	flag.StringVar(&opts.restorePath, "restore", "", "restore serving state from this snapshot at startup (missing/corrupt files log and start cold)")
	flag.BoolVar(&opts.verbose, "v", false, "log per-transaction detail (debug level)")
	flag.Parse()
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "qoeproxy:", err)
		os.Exit(1)
	}
}

// options collects every flag so tests can drive run directly.
type options struct {
	listen, upstream, resolve     string
	outPath, squidPath, modelPath string
	shadowPath                    string
	metricsAddr                   string
	classifyEvery, window         time.Duration
	clientTTL                     time.Duration
	maxSessionTxns                int
	shards, classifyWorkers       int
	// classifyBatch is the rows per batched inference call in a
	// classification pass; <= 0 means 256. No flag sets it: tests vary
	// it to split shard blocks at awkward boundaries.
	classifyBatch             int
	source, input             string
	ingestSpeed               float64
	ingestWorkers             int
	ingestEpoch               float64
	ingestHorizon             time.Duration
	follow                    bool
	parseWorkers              int
	clusterConfig, instanceID string
	snapshotPath, restorePath string
	verbose                   bool
}

// loadResolver builds the SNI->backend mapping.
func loadResolver(path, fallback string) (tlsproxy.Resolver, error) {
	table := map[string]string{}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) != 2 {
				return nil, fmt.Errorf("resolve map line %d: want 'sni backend'", line)
			}
			table[fields[0]] = fields[1]
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	if fallback == "" && len(table) == 0 {
		return nil, fmt.Errorf("need -upstream or a non-empty -resolve map")
	}
	return func(sni string) (string, error) {
		if addr, ok := table[sni]; ok {
			return addr, nil
		}
		if fallback == "" {
			return "", fmt.Errorf("no backend for SNI %q", sni)
		}
		return fallback, nil
	}, nil
}

// openAppend opens path for appending, creating it if absent, and
// reports whether it was empty (so headers are written exactly once).
func openAppend(path string) (f *os.File, wasEmpty bool, err error) {
	f, err = os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, false, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return f, st.Size() == 0, nil
}

// clientState is everything the service tracks per client address.
type clientState struct {
	streamer *sessionid.Streamer
	// activeStarts maps in-flight connection IDs to their start time in
	// epoch seconds; the minimum is the sessionizer watermark.
	activeStarts map[uint64]float64
	// run is the ongoing session, one slice in three segments:
	// run[:decided] is the current session, the next streamer.Pending()
	// entries mirror the sessionizer's look-ahead, and the rest is the
	// reorder buffer, sorted by Start, waiting on the watermark (the
	// earliest start among open connections). The watermark never
	// decreases and releases leave the buffer's front, so the segments
	// concatenate in start order — except that the live proxy may commit
	// a connection behind a released one (Start is set at accept,
	// OnConnOpen fires after the dial). Traffic belongs to the ongoing
	// session until a boundary says otherwise, so a client with one
	// long-lived connection is classifiable before any window closes.
	run     []capture.TLSTransaction
	decided int
	// tracked mirrors run[:decided] in an incremental feature accumulator
	// (window 0 mode only): classify passes read the maintained vector
	// and fold the still-undecided transactions in speculatively, so a
	// pass costs O(new transactions), not O(session length).
	tracked *core.TrackedSession
	// recent retains the most recent transactions (capped at
	// -max-session-txns) for the shutdown/eviction summary; lifetime
	// aggregates below summarize what the ring has dropped.
	recent *txnRing
	// lastActivity is the latest transaction end (or connection start)
	// in epoch seconds; the eviction sweep compares it to -client-ttl.
	lastActivity float64
	// txns, upBytes and downBytes are lifetime totals; durStats
	// aggregates transaction durations online — all O(1) state.
	txns               int64
	upBytes, downBytes int64
	durStats           stats.Running
	// boundaries counts detected session starts.
	boundaries int64
	// truncated marks that the current session already counted toward
	// qoeproxy_sessions_truncated_total; reset at each boundary.
	truncated bool
	// lastClass is the most recent online classification (hasClass
	// guards it).
	lastClass int
	hasClass  bool
}

// txnRing retains the most recent transactions in arrival order
// within a fixed capacity; limit 0 disables the cap (unbounded).
type txnRing struct {
	limit   int
	buf     []capture.TLSTransaction
	start   int
	dropped int64
}

func newTxnRing(limit int) *txnRing { return &txnRing{limit: limit} }

// push appends t, dropping the oldest retained transaction when the
// ring is full, and reports how many were dropped (0 or 1).
func (r *txnRing) push(t capture.TLSTransaction) int {
	if r.limit <= 0 || len(r.buf) < r.limit {
		r.buf = append(r.buf, t)
		return 0
	}
	r.buf[r.start] = t
	r.start = (r.start + 1) % r.limit
	r.dropped++
	return 1
}

// len reports how many transactions the ring retains.
func (r *txnRing) len() int { return len(r.buf) }

// snapshot appends the retained transactions, oldest first, to dst.
func (r *txnRing) snapshot(dst []capture.TLSTransaction) []capture.TLSTransaction {
	dst = append(dst, r.buf[r.start:]...)
	return append(dst, r.buf[:r.start]...)
}

// current, inFlight and buffered are the three segments of run.
func (cs *clientState) current() []capture.TLSTransaction { return cs.run[:cs.decided] }
func (cs *clientState) inFlight() []capture.TLSTransaction {
	return cs.run[cs.decided:cs.bufferStart()]
}
func (cs *clientState) buffered() []capture.TLSTransaction { return cs.run[cs.bufferStart():] }

// bufferStart is the index in run where the reorder buffer begins.
func (cs *clientState) bufferStart() int { return cs.decided + cs.streamer.Pending() }

// capSegment bounds the run segment [lo, hi) to limit entries,
// dropping its oldest once it overshoots the limit by half — the slack
// amortizes the copy-down to O(1) per transaction. Entries past hi
// shift down. It reports how many entries were dropped.
func (cs *clientState) capSegment(lo, hi, limit int) int {
	if limit <= 0 || hi-lo <= limit+limit/2 {
		return 0
	}
	drop := hi - lo - limit
	cs.run = slices.Delete(cs.run, lo, lo+drop)
	return drop
}

// service is the running daemon: proxy plus sessionizers, estimator,
// metrics and log sinks. Per-client state lives in lock shards so
// concurrent connections only contend when their clients hash
// together; everything outside the shards is either immutable after
// startup, atomic, or owned by a single goroutine (the sink writer,
// the classify tick).
type service struct {
	opts options
	log  *slog.Logger
	// model is the serving bundle: the estimator plus everything derived
	// from it (class names, cached counter handles, row builders, shadow
	// scorer, drift tracker). Swapped whole on reload; every consumer
	// Loads it exactly once per pass, so a sweep never mixes two models.
	// Nil when no -model is configured.
	model atomic.Pointer[servingModel]
	// pendingEst/pendingShadow hold the startup estimators between
	// newService and registerMetrics, which builds the first bundle (the
	// cached prediction-counter handles need the registry).
	pendingEst    *core.Estimator
	pendingShadow *core.Estimator
	// reloadMu serializes reloads (SIGHUP racing /admin/reload); the
	// serving path never takes it.
	reloadMu sync.Mutex
	track    bool // maintain incremental accumulators (est set, window 0)
	epoch    time.Time
	// watermark is the latest record event time delivered into the
	// ingest path, in epoch seconds (float bits, CAS-max). For file
	// sources it is the sweep clock: record timestamps are logical, so
	// comparing them against the wall clock would evict clients
	// mid-session at -ingest-speed 100 and never at 0.01.
	watermark atomic.Uint64
	// logicalClock selects the watermark (true: file sources) over wall
	// time (false: live proxy) as the sweep clock.
	logicalClock bool
	// lastRotate is when (sweep clock) the intern tables last rotated;
	// tick goroutine only.
	lastRotate float64
	// debugLog caches whether the logger emits debug records, so the
	// ingest hot path skips building per-transaction attribute lists
	// that a production (info-level) daemon would throw away.
	debugLog bool
	// batchPool recycles the scratch (line buffer, commit list) of
	// onTransactionBatch calls across goroutines.
	batchPool sync.Pool
	proxy     *tlsproxy.Proxy
	// src is the primary TransactionSource feeding the ingest path;
	// its Stats back the qoeproxy_ingest_source_* series. Nil in tests
	// that drive callbacks directly.
	src ingest.TransactionSource
	reg *metrics.Registry

	// ring is the fleet's consistent-hash client assignment and
	// instanceID this daemon's member id; both nil/empty for a
	// standalone daemon. Immutable after run() wires them, so the ingest
	// hot path reads them without synchronization.
	ring       *cluster.Ring
	instanceID string

	// shards partition the per-client state by FNV hash of the client
	// host. Immutable after newService.
	shards []*shard

	mTxns          *metrics.Counter
	mBoundaries    *metrics.Counter
	mRuns          *metrics.Counter
	mClassErrors   *metrics.Counter
	mPred          *metrics.CounterVec
	mReloadOK      *metrics.LabeledCounter
	mReloadError   *metrics.LabeledCounter
	mReloadNoop    *metrics.LabeledCounter
	mShadowDis     *metrics.Counter
	mShadowConf    *metrics.CounterVec2
	mInfer         *metrics.Histogram
	mExtract       *metrics.Histogram
	mShardClassify *metrics.Histogram
	mIngested      *metrics.Counter
	mTruncated     *metrics.Counter
	mSinkFailures  *metrics.Counter
	mEvicted       *metrics.Counter
	mContention    *metrics.Counter
	mSkipped       *metrics.Counter

	out   *sink
	squid *sink
	// sinkCh feeds the single writer goroutine, which writes lines in
	// enqueue order, so the hot path never blocks on file I/O. Lines are
	// enqueued before their records commit, outside any shard lock: a
	// client's lines follow its delivery order when one goroutine
	// delivers all of that client's records (every file source), but
	// the live proxy delivers from per-connection goroutines, so there
	// concurrent connections' lines land in whichever order they
	// enqueue, which need not match commit order.
	sinkCh   chan sinkMsg
	sinkDone chan struct{}
	sinkStop sync.Once
}

// shard owns one partition of the per-client state: its mutex guards
// the map and every clientState (and its sessionizer/accumulator)
// reached through it.
type shard struct {
	mu      sync.Mutex
	clients map[string]*clientState

	// Classify scratch, reused across passes. During one pass exactly
	// one worker visits each shard (forEachShard hands out shard indices
	// exclusively), so these need no lock of their own: the gather phase
	// fills them under mu, the sweep reads them after release — and
	// nothing else ever touches them.
	cNames   []string
	cCounts  []int
	cBlock   []float64 // row-major block, cap(cNames) x stride
	cProbs   []float64 // per-sweep probability scratch
	cClasses []int
	cShadow  []int                    // challenger classes over the same rows (-shadow-model)
	cTxns    []capture.TLSTransaction // one client's sliding-window filtrate
	cRow     []float64                // one client's feature row, copied into cBlock
}

// newService assembles the daemon state around the given options,
// normalising the concurrency knobs and starting the sink writer.
// The caller attaches the proxy and calls registerMetrics before
// serving traffic.
func newService(opts options, logger *slog.Logger, est *core.Estimator) *service {
	if opts.shards <= 0 {
		opts.shards = runtime.GOMAXPROCS(0)
	}
	if opts.classifyWorkers <= 0 {
		opts.classifyWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.classifyWorkers > opts.shards {
		opts.classifyWorkers = opts.shards
	}
	if opts.classifyBatch <= 0 {
		opts.classifyBatch = 256
	}
	s := &service{
		opts:       opts,
		log:        logger,
		pendingEst: est,
		epoch:      time.Now(),
		debugLog:   logger.Enabled(context.Background(), slog.LevelDebug),
	}
	s.batchPool.New = func() any { return &batchScratch{} }
	if est != nil {
		s.track = opts.window <= 0
	}
	s.logicalClock = opts.source != "" && opts.source != "proxy"
	s.shards = make([]*shard, opts.shards)
	for i := range s.shards {
		s.shards[i] = &shard{clients: map[string]*clientState{}}
	}
	s.startSinkWriter()
	return s
}

// servingModel bundles one model with everything derived from it, so a
// reload swaps all of it atomically: a pass that Loaded the old bundle
// finishes on the old estimator, names and counters; the next pass sees
// the new ones. Nothing in a bundle is mutated after Store except the
// drift tracker, which is internally locked.
type servingModel struct {
	est   *core.Estimator
	names []string // class display names
	// predClass caches the per-class prediction-counter handles, aligned
	// with names. The underlying CounterVec children outlive reloads, so
	// counts keep accumulating across models with the same metric.
	predClass []*metrics.LabeledCounter
	// rowBuilders hold one extraction scratch per classify worker
	// (windowed mode); worker w exclusively uses rowBuilders[w].
	rowBuilders []*core.RowBuilder
	// shadow is the challenger state, nil without -shadow-model.
	shadow *shadowState
	// drift compares classified rows against the model's training
	// baseline, nil when the model file carries none (version 1).
	drift *driftTracker
	// loadedAt stamps the swap for qoeproxy_model_loaded_timestamp_seconds.
	loadedAt time.Time
}

// shadowState is the champion/challenger comparison: a second compiled
// estimator swept over the same gathered rows as the primary, with the
// outcome recorded only in counters — never in logs, sinks or stored
// classifications.
type shadowState struct {
	est *core.Estimator
	// confusion caches the nc×nc confusion-counter handles,
	// primary-major: cell [p*nc+c] counts rows the primary called p and
	// the challenger called c (p != c).
	confusion []*metrics.LabeledCounter
}

// driftTracker accumulates per-feature population stats over every row
// a pass classifies and compares them against the model's training
// baseline. Shard workers fold whole row blocks under one mutex — a
// few calls per pass, so contention is negligible next to inference.
type driftTracker struct {
	mu       sync.Mutex
	names    []string // subset-space feature names
	baseMean []float64
	baseStd  []float64
	obs      []stats.Running
}

func newDriftTracker(names []string, means, stds []float64) *driftTracker {
	return &driftTracker{names: names, baseMean: means, baseStd: stds, obs: make([]stats.Running, len(names))}
}

// observeBlock folds n row-major rows of the given stride into the
// per-feature accumulators.
func (d *driftTracker) observeBlock(block []float64, n, stride int) {
	d.mu.Lock()
	for r := 0; r < n; r++ {
		row := block[r*stride : (r+1)*stride]
		for j := range row {
			d.obs[j].Observe(row[j])
		}
	}
	d.mu.Unlock()
}

// zscores snapshots the drift gauge children: for each feature,
// (observed mean − baseline mean) / baseline std. Features with a
// degenerate (zero-variance) baseline report 0 rather than ±Inf; so do
// features with no observations yet.
func (d *driftTracker) zscores() ([]string, []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	zs := make([]float64, len(d.names))
	for j := range d.names {
		if d.obs[j].N() == 0 || d.baseStd[j] <= 0 {
			continue
		}
		zs[j] = (d.obs[j].Mean() - d.baseMean[j]) / d.baseStd[j]
	}
	return d.names, zs
}

// validateShadow checks a challenger against the primary: the shadow
// sweep reuses the primary's gathered rows and compares class indices
// one-to-one, so the feature subset and the metric must match.
func validateShadow(primary, shadow *core.Estimator) error {
	if shadow.Metric() != primary.Metric() {
		return fmt.Errorf("shadow model targets metric %d, primary targets %d", shadow.Metric(), primary.Metric())
	}
	if shadow.Subset() != primary.Subset() || shadow.NumFeatures() != primary.NumFeatures() {
		return fmt.Errorf("shadow model uses feature subset %d (%d features), primary uses %d (%d)",
			shadow.Subset(), shadow.NumFeatures(), primary.Subset(), primary.NumFeatures())
	}
	return nil
}

// buildModel assembles a serving bundle around freshly loaded
// estimators. Called with the registry's vec families already
// registered (registerMetrics for the first bundle, reloadModel after).
func (s *service) buildModel(est, shadow *core.Estimator) (*servingModel, error) {
	if est == nil {
		return nil, nil
	}
	m := &servingModel{
		est:      est,
		names:    core.ClassNames(est.Metric()),
		loadedAt: time.Now(),
	}
	m.predClass = make([]*metrics.LabeledCounter, len(m.names))
	for i, n := range m.names {
		m.predClass[i] = s.mPred.WithLabel(n)
	}
	if !s.track {
		m.rowBuilders = make([]*core.RowBuilder, s.opts.classifyWorkers)
		for i := range m.rowBuilders {
			m.rowBuilders[i] = est.NewRowBuilder()
		}
	}
	if shadow != nil {
		if err := validateShadow(est, shadow); err != nil {
			return nil, err
		}
		nc := est.NumClasses()
		ss := &shadowState{est: shadow, confusion: make([]*metrics.LabeledCounter, nc*nc)}
		for p := 0; p < nc; p++ {
			for c := 0; c < nc; c++ {
				ss.confusion[p*nc+c] = s.mShadowConf.WithLabels(m.names[p], m.names[c])
			}
		}
		m.shadow = ss
	}
	if means, stds := est.Baseline(); means != nil {
		m.drift = newDriftTracker(est.FeatureNames(), means, stds)
	}
	return m, nil
}

// loadEstimatorFile opens and loads one saved model file.
func loadEstimatorFile(path string) (*core.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadEstimator(f)
}

// reloadModel re-reads -model (and -shadow-model) from disk and swaps
// the serving bundle. Any failure — unreadable file, corrupt model,
// incompatible shadow — leaves the previous bundle serving untouched.
// With no -model configured the request is a safe no-op, so a habitual
// `kill -HUP` on a record-only daemon does nothing. Returns the result
// label recorded in qoeproxy_model_reloads_total.
func (s *service) reloadModel() (string, error) {
	if s.opts.modelPath == "" {
		s.mReloadNoop.Inc()
		s.log.Info("model reload requested with no -model configured; nothing to do")
		return "noop", nil
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	est, err := loadEstimatorFile(s.opts.modelPath)
	var shadow *core.Estimator
	if err == nil && s.opts.shadowPath != "" {
		shadow, err = loadEstimatorFile(s.opts.shadowPath)
	}
	var m *servingModel
	if err == nil {
		m, err = s.buildModel(est, shadow)
	}
	if err != nil {
		s.mReloadError.Inc()
		s.log.Error("model reload failed; previous model still serving",
			"model", s.opts.modelPath, "err", err)
		return "error", err
	}
	s.model.Store(m)
	s.mReloadOK.Inc()
	s.log.Info("model reloaded", "model", s.opts.modelPath,
		"shadow", s.opts.shadowPath, "features", est.NumFeatures(),
		"drift_baseline", m.drift != nil)
	return "ok", nil
}

// noteEventTime advances the ingest watermark (CAS-max on float bits)
// to a record's event time in epoch seconds.
func (s *service) noteEventTime(t float64) {
	for {
		old := s.watermark.Load()
		if math.Float64frombits(old) >= t {
			return
		}
		if s.watermark.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// sweepNow converts a tick's wall time to the sweep clock in epoch
// seconds: the ingest watermark for file sources (whose record
// timestamps are logical and scaled by -ingest-speed, so the -window
// cutoff and -client-ttl comparisons must use the records' own
// timescale), wall time for the live proxy.
func (s *service) sweepNow(now time.Time) float64 {
	if s.logicalClock {
		return math.Float64frombits(s.watermark.Load())
	}
	return now.Sub(s.epoch).Seconds()
}

// shardIndex hashes a client host onto a shard with inline FNV-1a —
// no allocation, stable across runs so tests can pin placements.
func shardIndex(client string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(client); i++ {
		h ^= uint32(client[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// shardFor returns the shard owning a client's state.
func (s *service) shardFor(client string) *shard {
	return s.shards[shardIndex(client, len(s.shards))]
}

// lockIngest takes a shard's lock from the ingest path, counting
// acquisitions that had to wait in qoeproxy_ingest_contention_total —
// the signal that -shards needs raising.
func (s *service) lockIngest(sh *shard) {
	if sh.mu.TryLock() {
		return
	}
	s.mContention.Inc()
	sh.mu.Lock()
}

// sink is one transaction-record output (CSV or Squid log) with its
// failure-burst state: failing flips on the first failed write and
// back off on the first success, so each burst logs exactly once and
// /healthz can report the degradation while it lasts. Only the writer
// goroutine writes; failing is atomic so /healthz can read it without
// a lock.
type sink struct {
	w       io.Writer
	name    string
	failing atomic.Bool
}

// sinkMsg is one unit of sink-writer work: a record line for a sink,
// or (when sync is non-nil) a flush marker the writer acknowledges by
// closing the channel.
type sinkMsg struct {
	k    *sink
	line string
	sync chan struct{}
}

// startSinkWriter launches the single goroutine that performs all
// sink I/O, in enqueue order.
func (s *service) startSinkWriter() {
	s.sinkCh = make(chan sinkMsg, 1024)
	s.sinkDone = make(chan struct{})
	go func() {
		defer close(s.sinkDone)
		for m := range s.sinkCh {
			if m.sync != nil {
				close(m.sync)
				continue
			}
			s.writeSink(m.k, m.line)
		}
	}()
}

// enqueueSink hands one record line to the writer goroutine, which
// writes it after every line enqueued before it. It takes no lock, so
// ordering across goroutines is whatever order their sends land in; a
// full channel blocks the calling delivery goroutine until the writer
// catches up.
func (s *service) enqueueSink(k *sink, line string) {
	s.sinkCh <- sinkMsg{k: k, line: line}
}

// flushSinks blocks until every record enqueued before the call has
// been written (or counted as failed).
func (s *service) flushSinks() {
	done := make(chan struct{})
	s.sinkCh <- sinkMsg{sync: done}
	<-done
}

// stopSinkWriter drains the queue and stops the writer goroutine.
// Idempotent; no enqueues may follow.
func (s *service) stopSinkWriter() {
	s.sinkStop.Do(func() {
		close(s.sinkCh)
		<-s.sinkDone
	})
}

// writeSink appends one record line to a sink, counting failed writes
// in qoeproxy_sink_write_failures_total. Runs only on the writer
// goroutine.
func (s *service) writeSink(k *sink, line string) {
	if _, err := io.WriteString(k.w, line); err != nil {
		s.mSinkFailures.Inc()
		if !k.failing.Swap(true) {
			s.log.Error("sink write failing, records dropped until it recovers",
				"sink", k.name, "err", err)
		}
		return
	}
	if k.failing.Swap(false) {
		s.log.Info("sink recovered", "sink", k.name)
	}
}

// sinksDegraded reports whether any configured sink is currently in a
// failure burst.
func (s *service) sinksDegraded() bool {
	return (s.out != nil && s.out.failing.Load()) || (s.squid != nil && s.squid.failing.Load())
}

// run wires the service together and blocks until SIGINT/SIGTERM or a
// listener error.
func run(opts options) error {
	level := slog.LevelInfo
	if opts.verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	source := opts.source
	if source == "" {
		source = "proxy"
	}
	switch source {
	case "proxy", "squid", "pcap", "netflow", "replay":
	default:
		return fmt.Errorf("-source %q: want proxy, squid, pcap, netflow or replay", source)
	}
	if source != "proxy" && opts.input == "" {
		return fmt.Errorf("-source %s needs -input", source)
	}
	if (opts.clusterConfig == "") != (opts.instanceID == "") {
		return fmt.Errorf("-cluster-config and -instance-id must be given together")
	}
	var ring *cluster.Ring
	if opts.clusterConfig != "" {
		cfg, err := cluster.LoadConfigFile(opts.clusterConfig)
		if err != nil {
			return err
		}
		if ring, err = cluster.New(cfg); err != nil {
			return err
		}
		if !ring.Has(opts.instanceID) {
			return fmt.Errorf("-instance-id %q is not a member of %s", opts.instanceID, opts.clusterConfig)
		}
	}

	var resolver tlsproxy.Resolver
	if source == "proxy" {
		var err error
		resolver, err = loadResolver(opts.resolve, opts.upstream)
		if err != nil {
			return err
		}
	} else {
		// File sources never dial a backend; the stub keeps the proxy's
		// stats bridges alive without requiring -upstream.
		resolver = tlsproxy.StaticResolver("127.0.0.1:9")
	}

	// Validate every output path and the model BEFORE binding the
	// listener: a daemon that accepts traffic and then dies on a bad
	// -out path would leave clients mid-relay and files half-written.
	var est, shadowEst *core.Estimator
	if opts.modelPath != "" {
		var err error
		if est, err = loadEstimatorFile(opts.modelPath); err != nil {
			return err
		}
	}
	if opts.shadowPath != "" {
		if est == nil {
			return fmt.Errorf("-shadow-model needs -model")
		}
		var err error
		if shadowEst, err = loadEstimatorFile(opts.shadowPath); err != nil {
			return fmt.Errorf("-shadow-model: %w", err)
		}
		if err := validateShadow(est, shadowEst); err != nil {
			return fmt.Errorf("-shadow-model: %w", err)
		}
	}
	s := newService(opts, logger, est)
	s.pendingShadow = shadowEst
	defer s.stopSinkWriter()
	if ring != nil {
		s.ring, s.instanceID = ring, opts.instanceID
		logger.Info("cluster membership loaded", "instance", opts.instanceID,
			"config", opts.clusterConfig, "instances", len(ring.Instances()),
			"partitions_owned", ring.Partitions(opts.instanceID),
			"partitions_total", ring.TotalPartitions())
	}
	// Restore precedes every source and sink construction: the adopted
	// epoch must be in place before any component derives offsets from
	// it, and the restored shards before any record commits.
	if opts.restorePath != "" {
		s.restoreFromFile(opts.restorePath)
	}
	if opts.outPath != "" {
		f, empty, err := openAppend(opts.outPath)
		if err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		defer f.Close()
		if empty {
			if _, err := fmt.Fprintln(f, "session,sni,start,end,up_bytes,down_bytes"); err != nil {
				return fmt.Errorf("-out: writing header: %w", err)
			}
		}
		s.out = &sink{w: f, name: "out"}
	}
	if opts.squidPath != "" {
		f, _, err := openAppend(opts.squidPath)
		if err != nil {
			return fmt.Errorf("-squid-log: %w", err)
		}
		defer f.Close()
		s.squid = &sink{w: f, name: "squid-log"}
	}

	// Build the primary TransactionSource. Proxy mode serves live
	// traffic; file sources feed the same callbacks from disk. Either
	// way a tlsproxy.Proxy exists (a stub for file sources) so the
	// proxy-stats metric bridges and /healthz stay live.
	var src ingest.TransactionSource
	var ps *ingest.ProxySource
	var err error
	switch source {
	case "proxy":
		if ps, err = ingest.NewProxySource(tlsproxy.Config{Resolver: resolver}); err == nil {
			s.proxy = ps.Proxy()
			src = ps
		}
	case "squid":
		// Fail fast on an unreadable log before serving starts; the
		// tailer itself tolerates rotation gaps later.
		f, err := os.Open(opts.input)
		if err != nil {
			return fmt.Errorf("-input: %w", err)
		}
		f.Close()
		src = &ingest.SquidSource{
			Path:         opts.input,
			Base:         s.epoch,
			EpochUnix:    opts.ingestEpoch,
			Horizon:      opts.ingestHorizon.Seconds(),
			Follow:       opts.follow,
			ParseWorkers: opts.parseWorkers,
		}
	case "pcap":
		src, err = ingest.NewPcapSource(opts.input, s.epoch, opts.ingestEpoch, opts.ingestSpeed, opts.ingestWorkers)
	case "netflow":
		src, err = ingest.NewNetflowSource(opts.input, s.epoch, opts.ingestSpeed, opts.ingestWorkers)
	case "replay":
		src, err = ingest.NewReplaySource(opts.input, s.epoch, opts.ingestSpeed, opts.ingestWorkers)
	}
	if err != nil {
		return err
	}
	if s.proxy == nil {
		stub, err := tlsproxy.New(tlsproxy.Config{Resolver: resolver})
		if err != nil {
			return err
		}
		s.proxy = stub
	}
	s.src = src
	s.registerMetrics()

	// Outputs validated, model loaded: now bind (proxy mode only; file
	// sources accept no traffic).
	if ps != nil {
		l, err := net.Listen("tcp", opts.listen)
		if err != nil {
			return err
		}
		ps.Listener = l
		logger.Info("listening", "addr", l.Addr().String())
	}

	// The source goroutine sends only fatal errors to errCh; benign
	// completion (a file source finishing its input) logs and leaves
	// the daemon serving metrics until a signal arrives.
	srcCtx, srcCancel := context.WithCancel(context.Background())
	defer srcCancel()
	errCh := make(chan error, 1)
	runDone := make(chan struct{})
	runStart := time.Now()
	if ps == nil {
		logger.Info("ingesting", "source", src.Name(), "input", opts.input)
	}
	// Records arrive coalesced and each shard lock is taken once per
	// batch.
	handler := ingest.Handler{ConnOpen: s.onConnOpen, TransactionBatch: s.onTransactionBatch}
	go func() {
		defer close(runDone)
		err := src.Run(srcCtx, handler)
		if srcCtx.Err() != nil {
			return
		}
		if err != nil {
			errCh <- err
			return
		}
		st := src.Stats()
		wall := time.Since(runStart).Seconds()
		logger.Info("ingest complete", "source", src.Name(),
			"records", st.Records, "clients", st.Clients,
			"skipped", st.Skipped, "malformed", st.Malformed,
			"wall_seconds", wall, "records_per_second", float64(st.Records)/wall)
	}()
	stopSource := func() {
		srcCancel()
		<-runDone
	}

	var httpSrv *http.Server
	if opts.metricsAddr != "" {
		ml, err := net.Listen("tcp", opts.metricsAddr)
		if err != nil {
			stopSource()
			return fmt.Errorf("-metrics: %w", err)
		}
		httpSrv = &http.Server{Handler: s.httpHandler()}
		go func() {
			if err := httpSrv.Serve(ml); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics server", "err", err)
			}
		}()
		logger.Info("metrics listening", "addr", ml.Addr().String())
	}

	// The tick drives both classification passes and the idle-client
	// eviction sweep, so it runs whenever either needs it.
	var tick <-chan time.Time
	if opts.classifyEvery > 0 && (est != nil || opts.clientTTL > 0) {
		ticker := time.NewTicker(opts.classifyEvery)
		defer ticker.Stop()
		tick = ticker.C
	}

	stopHTTP := func() {}
	if httpSrv != nil {
		stopHTTP = func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			httpSrv.Shutdown(ctx)
			cancel()
		}
	}

	// SIGHUP is registered alongside the shutdown signals: unregistered
	// its default disposition would kill the daemon on a conventional
	// `kill -HUP` log-rotation sweep; registered it triggers a model
	// reload (a no-op when -model is unset).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sig)
	return s.serveLoop(errCh, tick, sig, stopSource, stopHTTP)
}

// serveLoop is the daemon's main loop: it reacts to fatal source
// errors, classification/eviction ticks, SIGHUP model reloads and
// shutdown signals. Ticks are converted to the sweep clock (wall or
// ingest watermark) before classifyPass/evictIdle see them. Both
// exits — source death and a signal — stop the source, then the
// metrics endpoint, before draining the sessionizers, so no ingest
// follows the drain and pending decisions and the shutdown summary are
// never lost to a crash-landing listener.
func (s *service) serveLoop(errCh <-chan error, tick <-chan time.Time, sig <-chan os.Signal, stopSource, stopHTTP func()) error {
	for {
		select {
		case err := <-errCh:
			stopSource()
			stopHTTP()
			s.shutdownState()
			return err
		case now := <-tick:
			ns := s.sweepNow(now)
			s.classifyPass(ns)
			s.evictIdle(ns)
		case got := <-sig:
			if got == syscall.SIGHUP {
				// Reload, not shutdown. Errors are already counted and
				// logged; the previous model keeps serving.
				s.reloadModel()
				continue
			}
			s.log.Info("shutting down", "signal", got.String())
			// Stop the source: in proxy mode that stops accepting and
			// drains open relays (their final records arrive through
			// onTransactionBatch before Run returns); file sources flush
			// their reorder buffers. Then stop the metrics endpoint.
			stopSource()
			stopHTTP()
			s.shutdownState()
			return nil
		}
	}
}

// shutdownState finishes the serving state after ingest has stopped:
// with -snapshot it serializes the state for a warm restart or peer
// handoff — deliberately NOT flushing the sessionizers or printing the
// per-client summary, because those finalizations belong to whichever
// instance ends each session, and emitting them here too would
// double-count against the successor. Queued sink lines still flush
// (they are already-committed records). Without -snapshot, or if the
// write fails, the classic drain runs so a shutdown never silently
// loses the summary.
func (s *service) shutdownState() {
	if s.opts.snapshotPath != "" {
		clients, err := s.writeSnapshotFile(s.opts.snapshotPath)
		if err == nil {
			s.log.Info("state snapshot written", "path", s.opts.snapshotPath,
				"clients", clients, "trigger", "shutdown")
			s.stopSinkWriter()
			return
		}
		s.log.Error("snapshot failed; draining instead", "path", s.opts.snapshotPath, "err", err)
	}
	s.drain()
}

// classifyBuckets are the histogram bounds for the classification-pass
// latency series. The batched per-shard sweep finishes typical passes
// in well under a millisecond, where metrics.DefBuckets (lowest bound
// 5ms) would lump everything into one bucket; spanning 50µs to 2.5s
// keeps p50/p95/p99 estimates meaningful from an idle shard to a
// pathological stall.
var classifyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// memSampler caches runtime.ReadMemStats so the scrape-time runtime
// bridges share one stop-the-world sample per ~100ms instead of taking
// one each per scrape.
type memSampler struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

func (m *memSampler) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now := time.Now(); m.at.IsZero() || now.Sub(m.at) > 100*time.Millisecond {
		runtime.ReadMemStats(&m.ms)
		m.at = now
	}
	return m.ms
}

// registerMetrics declares every exported series. The full reference
// table lives in docs/OPERATIONS.md; keep the two in sync.
func (s *service) registerMetrics() {
	r := metrics.NewRegistry()
	s.reg = r
	s.mTxns = r.NewCounter("qoeproxy_transactions_total",
		"Completed TLS transactions (one per relayed connection).")
	s.mBoundaries = r.NewCounter("qoeproxy_session_boundaries_total",
		"Session starts detected by the online sessionizer.")
	s.mRuns = r.NewCounter("qoeproxy_classification_runs_total",
		"Periodic classification passes that completed successfully.")
	s.mClassErrors = r.NewCounter("qoeproxy_classification_errors_total",
		"Periodic classification passes that failed (model/feature mismatch).")
	s.mPred = r.NewCounterVec("qoeproxy_qoe_predictions_total",
		"Online QoE predictions by class.", "class")
	// Model-lifecycle series. The reload results are pre-declared so
	// dashboards see zeros before the first reload; the per-class
	// prediction and confusion handles are cached per serving bundle.
	mReloads := r.NewCounterVec("qoeproxy_model_reloads_total",
		"Model reload attempts (SIGHUP or /admin/reload) by result: ok = new model serving, error = rejected with the previous model untouched, noop = no -model configured.", "result")
	s.mReloadOK = mReloads.WithLabel("ok")
	s.mReloadError = mReloads.WithLabel("error")
	s.mReloadNoop = mReloads.WithLabel("noop")
	r.NewGaugeFunc("qoeproxy_model_loaded_timestamp_seconds",
		"Unix time the serving model was loaded or last reloaded (0 = no model).", func() float64 {
			if m := s.model.Load(); m != nil {
				return float64(m.loadedAt.UnixNano()) / 1e9
			}
			return 0
		})
	s.mShadowDis = r.NewCounter("qoeproxy_shadow_disagreement_total",
		"Classified rows where the -shadow-model challenger disagreed with the primary model.")
	s.mShadowConf = r.NewCounterVec2("qoeproxy_shadow_confusion_total",
		"Primary/challenger confusion cells for disagreeing rows (-shadow-model).", "primary", "shadow")
	mDrift := r.NewGaugeVecFunc("qoeproxy_feature_drift_zscore",
		"Per-feature drift of classified traffic against the model's training baseline: (observed mean - training mean) / training std. Requires a model saved with a baseline.", "feature")
	mDrift.Set(func() ([]string, []float64) {
		m := s.model.Load()
		if m == nil || m.drift == nil {
			return nil, nil
		}
		return m.drift.zscores()
	})
	r.NewGaugeFunc("qoeproxy_interned_strings",
		"Distinct client/SNI strings held by the ingest source's intern tables (0 for sources that do not intern).", func() float64 {
			if in, ok := s.src.(ingest.Interner); ok {
				return float64(in.InternedStrings())
			}
			return 0
		})
	s.mInfer = r.NewHistogram("qoeproxy_inference_seconds",
		"Latency of the model-prediction half of one classification pass (summed across shard sweeps).", classifyBuckets)
	s.mExtract = r.NewHistogram("qoeproxy_feature_extraction_seconds",
		"Latency of building every client's feature row in one classification pass (summed across shards).", classifyBuckets)
	s.mIngested = r.NewCounter("qoeproxy_feature_transactions_ingested_total",
		"Transactions folded into the incremental per-session feature accumulators.")
	s.mTruncated = r.NewCounter("qoeproxy_sessions_truncated_total",
		"Client sessions whose retained transaction state hit -max-session-txns and dropped oldest entries.")
	s.mSinkFailures = r.NewCounter("qoeproxy_sink_write_failures_total",
		"Transaction records lost because a -out/-squid-log write failed.")
	s.mEvicted = r.NewCounter("qoeproxy_clients_evicted_total",
		"Clients evicted after -client-ttl of idleness, final classification emitted.")
	s.mContention = r.NewCounter("qoeproxy_ingest_contention_total",
		"Ingest lock acquisitions that found their shard already held; a rising rate means -shards is too low.")
	// Fleet-operation series: the instance identity, the partitions this
	// member owns (summed across members they equal the ring total, so
	// coverage is verifiable from scrapes alone) and the records skipped
	// because the ring assigns their client elsewhere.
	s.mSkipped = r.NewCounter("qoeproxy_cluster_clients_skipped_total",
		"Transaction records skipped because the cluster ring assigns their client to another instance (0 standalone).")
	r.NewGaugeFunc("qoeproxy_partitions_owned",
		"Consistent-hash partitions (virtual ring points) this instance owns; the fleet-wide sum equals the ring's partition total exactly when coverage is 100% (0 standalone).", func() float64 {
			if s.ring == nil {
				return 0
			}
			return float64(s.ring.Partitions(s.instanceID))
		})
	mInstance := r.NewGaugeVecFunc("qoeproxy_instance_info",
		"Identity of this daemon in the serving fleet; constant 1 with the instance id as a label.", "instance")
	mInstance.Set(func() ([]string, []float64) {
		if s.instanceID == "" {
			return nil, nil
		}
		return []string{s.instanceID}, []float64{1}
	})
	s.mShardClassify = r.NewHistogram("qoeproxy_shard_classify_seconds",
		"Per-shard latency of one classification pass: row gather under the shard lock plus the batched inference sweep outside it.", classifyBuckets)
	// Per-source ingest counters, sampled from the primary source's
	// Stats. The families always render (operators alert on series
	// existence); children appear for the active source.
	mSrcRecords := r.NewCounterVecFunc("qoeproxy_ingest_source_records_total",
		"Transactions delivered into the ingest path, by source.", "source")
	mSrcSkipped := r.NewCounterVecFunc("qoeproxy_ingest_source_skipped_total",
		"Out-of-scope input units dropped by a source (non-CONNECT log lines, unresolved flows), by source.", "source")
	mSrcMalformed := r.NewCounterVecFunc("qoeproxy_ingest_source_malformed_total",
		"Unparseable input units dropped by a streaming source, by source.", "source")
	mSrcRotations := r.NewCounterVecFunc("qoeproxy_ingest_source_rotations_total",
		"Log rotations and truncations a tailing source survived, by source.", "source")
	if s.src != nil {
		name := s.src.Name()
		src := s.src
		mSrcRecords.With(name, func() int64 { return src.Stats().Records })
		mSrcSkipped.With(name, func() int64 { return src.Stats().Skipped })
		mSrcMalformed.With(name, func() int64 { return src.Stats().Malformed })
		mSrcRotations.With(name, func() int64 { return src.Stats().Rotations })
	}
	r.NewCounterFunc("qoeproxy_connections_total",
		"Client connections accepted.", func() int64 { return s.proxy.Stats().TotalConnections })
	r.NewGaugeFunc("qoeproxy_connections_active",
		"Client connections currently relayed.", func() float64 { return float64(s.proxy.Stats().ActiveConnections) })
	r.NewCounterFunc("qoeproxy_hello_parse_failures_total",
		"Connections dropped: ClientHello missing, timed out or unparseable.", func() int64 { return s.proxy.Stats().HelloFailures })
	r.NewCounterFunc("qoeproxy_resolve_failures_total",
		"Connections dropped: no backend for the SNI.", func() int64 { return s.proxy.Stats().ResolveFailures })
	r.NewCounterFunc("qoeproxy_dial_failures_total",
		"Connections dropped: backend dial failed.", func() int64 { return s.proxy.Stats().DialFailures })
	r.NewCounterFunc("qoeproxy_relayed_up_bytes_total",
		"Bytes relayed client to server.", func() int64 { return s.proxy.Stats().RelayedUpBytes })
	r.NewCounterFunc("qoeproxy_relayed_down_bytes_total",
		"Bytes relayed server to client.", func() int64 { return s.proxy.Stats().RelayedDownBytes })
	r.NewGaugeFunc("qoeproxy_active_sessions",
		"Clients with transactions in their current (ongoing) session.", func() float64 {
			n := 0
			for _, sh := range s.shards {
				sh.mu.Lock()
				for _, cs := range sh.clients {
					if len(cs.run) > 0 {
						n++
					}
				}
				sh.mu.Unlock()
			}
			return float64(n)
		})
	r.NewGaugeFunc("qoeproxy_clients",
		"Distinct client addresses seen.", func() float64 {
			return float64(s.clientCount())
		})
	r.NewGaugeFunc("qoeproxy_uptime_seconds",
		"Seconds since the proxy started.", func() float64 { return time.Since(s.epoch).Seconds() })
	// Runtime memory and scheduler health, for correlating classify-tick
	// latency and ingest throughput with GC pressure under load.
	mem := &memSampler{}
	r.NewFloatCounterFunc("qoeproxy_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.", func() float64 {
			return float64(mem.read().PauseTotalNs) / 1e9
		})
	r.NewCounterFunc("qoeproxy_gc_runs_total",
		"Completed GC cycles.", func() int64 { return int64(mem.read().NumGC) })
	r.NewCounterFunc("qoeproxy_heap_alloc_bytes_total",
		"Cumulative bytes allocated on the heap.", func() int64 { return int64(mem.read().TotalAlloc) })
	r.NewGaugeFunc("qoeproxy_heap_inuse_bytes",
		"Bytes in in-use heap spans.", func() float64 { return float64(mem.read().HeapInuse) })
	r.NewGaugeFunc("qoeproxy_goroutines",
		"Live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) })

	// The first serving bundle installs here rather than in newService:
	// the cached prediction/confusion handles need the registry. run()
	// validates the estimator pair before newService, so a build failure
	// can only mean a caller wired an incompatible pair directly — serve
	// the primary alone rather than die.
	m, err := s.buildModel(s.pendingEst, s.pendingShadow)
	if err != nil {
		s.log.Error("shadow model incompatible; serving without it", "err", err)
		m, _ = s.buildModel(s.pendingEst, nil)
	}
	s.model.Store(m)
}

// httpHandler serves /metrics, /healthz and the loopback-only admin
// plane (/admin/reload).
func (s *service) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		// Authenticated by locality: -metrics may be bound wide for
		// scrapers, but mutating the serving model is reserved for
		// operators on the box itself.
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil || !isLoopbackHost(host) {
			http.Error(w, "reload is loopback-only", http.StatusForbidden)
			return
		}
		result, rerr := s.reloadModel()
		status := http.StatusOK
		body := map[string]any{"result": result}
		if rerr != nil {
			status = http.StatusUnprocessableEntity
			body["error"] = rerr.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/admin/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		// Loopback-only like /admin/reload: serializing the serving state
		// to disk is an operator action, not a scraper's.
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil || !isLoopbackHost(host) {
			http.Error(w, "snapshot is loopback-only", http.StatusForbidden)
			return
		}
		if s.opts.snapshotPath == "" {
			http.Error(w, "no -snapshot path configured", http.StatusUnprocessableEntity)
			return
		}
		clients, werr := s.writeSnapshotFile(s.opts.snapshotPath)
		status := http.StatusOK
		body := map[string]any{"path": s.opts.snapshotPath, "clients": clients}
		if werr != nil {
			status = http.StatusInternalServerError
			body = map[string]any{"error": werr.Error()}
		} else {
			s.log.Info("state snapshot written", "path", s.opts.snapshotPath, "clients", clients, "trigger", "admin")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		st := s.proxy.Stats()
		clients := s.clientCount()
		degraded := s.sinksDegraded()
		status := "ok"
		if degraded {
			status = "degraded"
		}
		partitions := 0
		if s.ring != nil {
			partitions = s.ring.Partitions(s.instanceID)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":              status,
			"instance":            s.instanceID,
			"partitions_owned":    partitions,
			"clients_skipped":     s.mSkipped.Value(),
			"uptime_seconds":      time.Since(s.epoch).Seconds(),
			"active_connections":  st.ActiveConnections,
			"total_connections":   st.TotalConnections,
			"clients":             clients,
			"clients_evicted":     s.mEvicted.Value(),
			"sink_write_failures": s.mSinkFailures.Value(),
		})
	})
	return mux
}

// isLoopbackHost reports whether an address host is loopback (IPv4
// 127/8, IPv6 ::1).
func isLoopbackHost(host string) bool {
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// clientCount sums the distinct clients across all shards.
func (s *service) clientCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.clients)
		sh.mu.Unlock()
	}
	return n
}

// state returns (creating if needed) the per-client state; the caller
// holds the shard's lock, and the shard must be the client's.
func (s *service) state(sh *shard, client string) *clientState {
	cs, ok := sh.clients[client]
	if !ok {
		cs = &clientState{
			streamer:     sessionid.NewStreamer(sessionid.PaperParams),
			activeStarts: map[uint64]float64{},
			recent:       newTxnRing(s.opts.maxSessionTxns),
		}
		if s.track {
			cs.tracked = core.NewTrackedSession()
		}
		sh.clients[client] = cs
	}
	return cs
}

// owns reports whether this instance serves a client: always true for
// a standalone daemon, the ring's verdict in a fleet. The filter lives
// here in the callbacks — not in the sources — so skipped records
// still advance the ingest watermark (the logical sweep clock): a
// fleet member owning few clients of a replayed workload must still
// see time pass, or its eviction and window cutoffs would stall.
func (s *service) owns(client string) bool {
	return s.ring == nil || s.ring.Owns(s.instanceID, client)
}

// onConnOpen records an in-flight connection so the sessionizer knows
// not to advance past its start time until it completes.
func (s *service) onConnOpen(r tlsproxy.Record) {
	client := clientHost(r.ClientAddr)
	start := r.Start.Sub(s.epoch).Seconds()
	s.noteEventTime(start)
	if !s.owns(client) {
		return // counted once per record in the transaction callbacks
	}
	sh := s.shardFor(client)
	s.lockIngest(sh)
	defer sh.mu.Unlock()
	cs := s.state(sh, client)
	cs.activeStarts[r.ConnID] = start
	if start > cs.lastActivity {
		cs.lastActivity = start
	}
}

// appendOutLine renders one CSV sink record onto dst, matching the
// historical fmt verbs ("%s,%s,%.3f,%.3f,%d,%d\n") byte for byte.
func appendOutLine(dst []byte, client string, txn capture.TLSTransaction) []byte {
	dst = append(dst, client...)
	dst = append(dst, ',')
	dst = append(dst, txn.SNI...)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, txn.Start, 'f', 3, 64)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, txn.End, 'f', 3, 64)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, txn.UpBytes, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, txn.DownBytes, 10)
	return append(dst, '\n')
}

// txnCommit is one record's phase-two work in a batched delivery: the
// state mutation that must run under the client's shard lock.
type txnCommit struct {
	si     int
	connID uint64
	client string
	txn    capture.TLSTransaction
}

// batchScratch is the reusable per-call scratch of the transaction
// ingest path, pooled so steady state allocates only the sink line
// strings themselves.
type batchScratch struct {
	buf     []byte
	commits []txnCommit
}

// debugTransaction logs per-transaction detail; the caller guards with
// s.debugLog so an info-level daemon never builds the attribute list.
func (s *service) debugTransaction(r tlsproxy.Record, client string) {
	s.log.Debug("transaction",
		"sni", r.SNI, "client", client, "conn_id", r.ConnID,
		"duration_s", r.End.Sub(r.Start).Seconds(), "up_bytes", r.UpBytes, "down_bytes", r.DownBytes)
}

// onTransactionBatch exports a batch of completed transactions to the
// configured sinks and feeds each client's online sessionizer, in two
// phases. Phase one walks the batch in delivery order with no locks
// held: counters, debug logs and sink lines, built in a pooled buffer
// and enqueued at once, so the batch's lines reach the writer in
// delivery order (see service.sinkCh for what that means across
// goroutines). Phase two commits per-client state grouped by shard,
// taking each shard's lock once per batch instead of once per record;
// within a shard, commits apply in delivery order.
func (s *service) onTransactionBatch(recs []tlsproxy.Record) {
	sc := s.batchPool.Get().(*batchScratch)
	commits := sc.commits[:0]
	buf := sc.buf
	epochUnix := float64(s.epoch.Unix())
	for _, r := range recs {
		client := clientHost(r.ClientAddr)
		if !s.owns(client) {
			s.noteEventTime(r.End.Sub(s.epoch).Seconds())
			s.mSkipped.Inc()
			continue
		}
		txn := tlsproxy.ToCaptureTransaction(r, s.epoch)
		s.mTxns.Inc()
		if s.out != nil {
			buf = appendOutLine(buf[:0], client, txn)
			s.enqueueSink(s.out, string(buf))
		}
		if s.squid != nil {
			buf = append(squidlog.AppendEntry(buf[:0], client, txn, epochUnix), '\n')
			s.enqueueSink(s.squid, string(buf))
		}
		if s.debugLog {
			s.debugTransaction(r, client)
		}
		commits = append(commits, txnCommit{
			si:     shardIndex(client, len(s.shards)),
			connID: r.ConnID,
			client: client,
			txn:    txn,
		})
	}
	done := 0
	for si := 0; si < len(s.shards) && done < len(commits); si++ {
		sh := s.shards[si]
		locked := false
		for ci := range commits {
			c := &commits[ci]
			if c.si != si {
				continue
			}
			if !locked {
				s.lockIngest(sh)
				locked = true
			}
			s.commitTransaction(sh, c.client, c.connID, c.txn)
			done++
		}
		if locked {
			sh.mu.Unlock()
		}
	}
	sc.buf, sc.commits = buf, commits
	s.batchPool.Put(sc)
}

// commitTransaction folds one completed transaction into its client's
// state and advances the sessionizer. The caller holds the client's
// shard lock; sink lines and the transaction counter are the caller's
// business.
func (s *service) commitTransaction(sh *shard, client string, connID uint64, txn capture.TLSTransaction) {
	cs := s.state(sh, client)
	s.noteEventTime(txn.End)
	if txn.End > cs.lastActivity {
		cs.lastActivity = txn.End
	}
	cs.txns++
	cs.upBytes += txn.UpBytes
	cs.downBytes += txn.DownBytes
	cs.durStats.Observe(txn.End - txn.Start)
	if cs.recent.push(txn) > 0 {
		s.noteTruncation(cs)
	}
	delete(cs.activeStarts, connID)
	// Insert into the reorder buffer sorted by start: connections end
	// out of order, the sessionizer wants start order.
	b := cs.bufferStart()
	i := b + sort.Search(len(cs.run)-b, func(j int) bool { return cs.run[b+j].Start > txn.Start })
	cs.run = slices.Insert(cs.run, i, txn)
	// A single long-lived connection can pin the watermark while later
	// transactions pile up behind it; the reorder buffer is capped like
	// the current session.
	if cs.capSegment(b, len(cs.run), s.opts.maxSessionTxns) > 0 {
		s.noteTruncation(cs)
	}
	s.advance(client, cs)
}

// noteTruncation counts a client's current session toward
// qoeproxy_sessions_truncated_total, once per session. The caller
// holds the client's shard lock.
func (s *service) noteTruncation(cs *clientState) {
	if !cs.truncated {
		cs.truncated = true
		s.mTruncated.Inc()
	}
}

// advance pushes every buffered transaction at or before the client's
// watermark — the earliest start among still-open connections — into
// the streaming sessionizer and applies the resulting decisions. The
// caller holds the client's shard lock.
func (s *service) advance(client string, cs *clientState) {
	// With no open connection the watermark is unbounded: everything
	// is safe to release.
	wm, bounded := 0.0, false
	for _, start := range cs.activeStarts {
		if !bounded || start < wm {
			wm, bounded = start, true
		}
	}
	// Pushing the buffer's front moves it into the in-flight segment:
	// the segment boundary follows streamer.Pending(), nothing is copied.
	for b := cs.bufferStart(); b < len(cs.run); b = cs.bufferStart() {
		txn := cs.run[b]
		if bounded && txn.Start > wm {
			break
		}
		s.apply(client, cs, cs.streamer.Push(sessionid.Transaction{Start: txn.Start, End: txn.End, SNI: txn.SNI}))
	}
}

// apply consumes finalized sessionizer decisions: boundaries close the
// current session, decided transactions join it. The caller holds the
// client's shard lock.
func (s *service) apply(client string, cs *clientState, decisions []sessionid.Decision) {
	// Decision i resolves run[decided+i]. A boundary starts the session
	// over at its transaction; the closed session is dropped with one
	// copy-down after the loop.
	start := 0
	for i, d := range decisions {
		at := cs.decided + i
		if d.NewSession {
			cs.boundaries++
			s.mBoundaries.Inc()
			if s.debugLog {
				s.log.Debug("session boundary", "client", client, "boundaries", cs.boundaries,
					"closed_session_txns", at-start)
			}
			start = at
			cs.truncated = false
			if cs.tracked != nil {
				cs.tracked.Reset()
			}
		}
		if cs.tracked != nil {
			cs.tracked.Observe(cs.run[at])
			s.mIngested.Inc()
		}
	}
	cs.decided += len(decisions) - start
	cs.run = slices.Delete(cs.run, 0, start)
	if drop := cs.capSegment(0, cs.decided, s.opts.maxSessionTxns); drop > 0 {
		cs.decided -= drop
		s.noteTruncation(cs)
		if cs.tracked != nil {
			// The accumulator only grows, so rebuild it over the capped
			// session; classifications keep matching a batch extraction
			// of exactly the retained transactions.
			cs.tracked.Reset()
			cs.tracked.ObserveAll(cs.current())
		}
	}
}

// forEachShard runs fn(worker, shardIndex) for every shard, fanning
// across the -classify-workers pool. Worker indices are stable and
// exclusive within one call, so fn may use per-worker scratch (the
// rowBuilders). With one worker it runs inline, shards in order.
func (s *service) forEachShard(fn func(worker, si int)) {
	workers := s.opts.classifyWorkers
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	if workers <= 1 {
		for si := range s.shards {
			fn(0, si)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si := range idx {
				fn(w, si)
			}
		}(w)
	}
	for si := range s.shards {
		idx <- si
	}
	close(idx)
	wg.Wait()
}

// classifyPass classifies every client's ongoing session, updating
// prediction counters, the latency histograms and the structured log.
// nowSec is the sweep clock in epoch seconds (see sweepNow). The pass
// fans out across shards on the classify-worker pool: each shard's
// feature rows are gathered into one contiguous row-major block under
// that shard's lock only — ingest on other shards never stalls — and
// then swept through the compiled scorer's batched predictor outside
// the lock, options.classifyBatch rows per call. The per-shard results
// merge in shard order and sort by client, so logs, counters and
// stored classes are identical at every (shards, workers, batch)
// setting. Safe to call concurrently with traffic.
//
// The serving bundle is Loaded exactly once, up front: a reload landing
// mid-pass takes effect at the next pass, never inside one. When the
// bundle carries a shadow challenger, the gathered rows are additionally
// swept through it and compared row-for-row — counters only, nothing in
// the primary's output changes. When it carries a drift tracker, the
// gathered rows are folded into the per-feature running stats.
func (s *service) classifyPass(nowSec float64) {
	m := s.model.Load()
	if m == nil {
		return
	}
	cutoff := nowSec - s.opts.window.Seconds()
	stride := m.est.NumFeatures()
	nc := m.est.NumClasses()
	batch := s.opts.classifyBatch
	var buildNanos, sweepNanos atomic.Int64
	var errMu sync.Mutex
	var passErr error
	s.forEachShard(func(worker, si int) {
		sh := s.shards[si]
		t0 := time.Now()
		sh.cNames = sh.cNames[:0]
		sh.cCounts = sh.cCounts[:0]
		sh.cBlock = sh.cBlock[:0]
		sh.mu.Lock()
		for client, cs := range sh.clients {
			var row []float64
			var n int
			if s.track {
				row, n = s.incrementalRow(m, sh, cs)
			} else {
				row, n = s.windowedRow(m, worker, sh, cs, cutoff)
			}
			if n == 0 {
				continue
			}
			sh.cNames = append(sh.cNames, client)
			sh.cCounts = append(sh.cCounts, n)
			sh.cBlock = append(sh.cBlock, row...)
		}
		sh.mu.Unlock()
		build := time.Since(t0)
		buildNanos.Add(int64(build))

		// Sweep the gathered block outside the shard lock; ingest can
		// proceed while inference runs.
		t1 := time.Now()
		rows := len(sh.cNames)
		if cap(sh.cClasses) < rows {
			sh.cClasses = make([]int, rows)
		}
		sh.cClasses = sh.cClasses[:rows]
		if cap(sh.cProbs) < batch*nc {
			sh.cProbs = make([]float64, batch*nc)
		}
		err := sweepBlock(m.est, sh, sh.cClasses, rows, stride, nc, batch)
		// The challenger sweeps the same rows after the primary; its only
		// output is counters, so a shadow failure never fails the pass.
		if m.shadow != nil && err == nil {
			if cap(sh.cShadow) < rows {
				sh.cShadow = make([]int, rows)
			}
			sh.cShadow = sh.cShadow[:rows]
			if serr := sweepBlock(m.shadow.est, sh, sh.cShadow, rows, stride, nc, batch); serr != nil {
				s.log.Error("shadow classification failed", "err", serr)
				sh.cShadow = sh.cShadow[:0]
			}
		} else {
			sh.cShadow = sh.cShadow[:0]
		}
		if m.drift != nil && err == nil {
			m.drift.observeBlock(sh.cBlock, rows, stride)
		}
		sweep := time.Since(t1)
		sweepNanos.Add(int64(sweep))
		s.mShardClassify.Observe((build + sweep).Seconds())
		if err != nil {
			errMu.Lock()
			if passErr == nil {
				passErr = err
			}
			errMu.Unlock()
		}
	})
	var names []string
	var classes, counts, shadowClasses []int
	shadowOK := m.shadow != nil
	for _, sh := range s.shards {
		names = append(names, sh.cNames...)
		classes = append(classes, sh.cClasses...)
		counts = append(counts, sh.cCounts...)
		if len(sh.cShadow) != len(sh.cNames) {
			shadowOK = false // a shard's shadow sweep failed; skip comparison
		}
		shadowClasses = append(shadowClasses, sh.cShadow...)
	}
	if len(names) == 0 {
		return
	}
	s.mExtract.Observe(time.Duration(buildNanos.Load()).Seconds())
	s.mInfer.Observe(time.Duration(sweepNanos.Load()).Seconds())
	if passErr != nil {
		s.mClassErrors.Inc()
		s.log.Error("classification failed", "err", passErr)
		return
	}
	// Champion/challenger comparison: order-independent counter bumps,
	// done on the pre-sort merge so the sort below stays three-column.
	if shadowOK {
		for i, p := range classes {
			if c := shadowClasses[i]; c != p {
				s.mShadowDis.Inc()
				m.shadow.confusion[p*nc+c].Inc()
			}
		}
	}
	s.mRuns.Inc()
	sort.Sort(byName{names, classes, counts})
	for i, client := range names {
		sh := s.shardFor(client)
		sh.mu.Lock()
		if cs, ok := sh.clients[client]; ok {
			cs.lastClass, cs.hasClass = classes[i], true
		}
		sh.mu.Unlock()
	}
	for i, client := range names {
		m.predClass[classes[i]].Inc()
		s.log.Info("classification", "client", client, "class", m.names[classes[i]], "transactions", counts[i])
	}
}

// sweepBlock classifies a shard's gathered row block with est, batch
// rows per call, writing row r's class to out[r]. The primary and the
// shadow challenger both sweep the same block through it.
func sweepBlock(est *core.Estimator, sh *shard, out []int, rows, stride, nc, batch int) error {
	for lo := 0; lo < rows; lo += batch {
		hi := min(lo+batch, rows)
		if err := est.ClassifyBlockInto(sh.cBlock[lo*stride:hi*stride],
			hi-lo, sh.cProbs[:(hi-lo)*nc], out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// incrementalRow builds a client's feature row from its maintained
// accumulator, folding the still-undecided transactions (the in-flight
// and buffered segments, which follow the decided ones in start order)
// in speculatively so the row covers the whole ongoing session. The
// row lands in the shard's scratch. The caller holds the client's
// shard lock; TrackedRow touches only the session's own accumulator,
// so shards proceed in parallel. The accumulator holds the full
// feature vector, so the pass's bundle m projects its own subset
// regardless of which model ingested the transactions — reloads
// across subsets stay correct.
func (s *service) incrementalRow(m *servingModel, sh *shard, cs *clientState) ([]float64, int) {
	if len(cs.run) == 0 {
		return nil, 0
	}
	sh.cRow = m.est.TrackedRow(cs.tracked, cs.run[cs.decided:], sh.cRow)
	return sh.cRow, len(cs.run)
}

// windowedRow builds a client's feature row over the transactions of
// the ongoing session ending inside the sliding window, in the shard's
// scratch list and row. The caller holds the client's shard lock;
// extraction goes through the worker's private RowBuilder (the
// estimator's shared scratch is not concurrency-safe).
func (s *service) windowedRow(m *servingModel, worker int, sh *shard, cs *clientState, cutoff float64) ([]float64, int) {
	w := sh.cTxns[:0]
	for _, t := range cs.run {
		if t.End >= cutoff {
			w = append(w, t)
		}
	}
	sh.cTxns = w
	if len(w) == 0 {
		return nil, 0
	}
	sh.cRow = m.rowBuilders[worker].FeatureRow(w, sh.cRow)
	return sh.cRow, len(w)
}

// byName sorts the classification results by client for deterministic
// logs and tests.
type byName struct {
	names   []string
	classes []int
	counts  []int
}

func (b byName) Len() int { return len(b.names) }
func (b byName) Swap(i, j int) {
	b.names[i], b.names[j] = b.names[j], b.names[i]
	b.classes[i], b.classes[j] = b.classes[j], b.classes[i]
	b.counts[i], b.counts[j] = b.counts[j], b.counts[i]
}
func (b byName) Less(i, j int) bool { return b.names[i] < b.names[j] }

// evictIdle removes every client whose last activity predates
// -client-ttl and has no open connections: the client's streamer is
// flushed (finalizing pending decisions), its final classification is
// emitted to the log and prediction counters, and its state is
// deleted — keeping the clients map O(active clients). nowSec is the
// sweep clock in epoch seconds (see sweepNow) — record-derived for
// file/replay sources, so the TTL comparison shares the timescale of
// the lastActivity values it is compared against. Runs on the classify
// tick, after classifyPass, on the same goroutine (the estimator's
// scratch buffers are not concurrency-safe). The sweep also rotates
// the ingest source's intern tables at most once per TTL, so released
// client state releases its interned strings too.
func (s *service) evictIdle(nowSec float64) {
	s.rotateInterned(nowSec)
	ttl := s.opts.clientTTL
	if ttl <= 0 {
		return
	}
	type evictee struct {
		client     string
		txns       []capture.TLSTransaction
		total      int64
		boundaries int64
		meanDur    float64
		downBytes  int64
	}
	perShard := make([][]evictee, len(s.shards))
	s.forEachShard(func(_, si int) {
		sh := s.shards[si]
		sh.mu.Lock()
		for client, cs := range sh.clients {
			if len(cs.activeStarts) > 0 || nowSec-cs.lastActivity < ttl.Seconds() {
				continue
			}
			s.advance(client, cs)
			s.apply(client, cs, cs.streamer.Flush())
			perShard[si] = append(perShard[si], evictee{
				client:     client,
				txns:       cs.recent.snapshot(nil),
				total:      cs.txns,
				boundaries: cs.boundaries,
				meanDur:    cs.durStats.Mean(),
				downBytes:  cs.downBytes,
			})
			delete(sh.clients, client)
			s.mEvicted.Inc()
		}
		sh.mu.Unlock()
	})
	var gone []evictee
	for _, g := range perShard {
		gone = append(gone, g...)
	}
	sort.Slice(gone, func(i, j int) bool { return gone[i].client < gone[j].client })
	// Final classifications run sequentially on the tick goroutine: the
	// estimator's Classify scratch is per-call, but the sorted order
	// keeps logs and counters deterministic across shard counts. One
	// bundle Load covers the whole sweep, like classifyPass.
	m := s.model.Load()
	for _, e := range gone {
		attrs := []any{"client", e.client, "transactions", e.total,
			"boundaries", e.boundaries, "down_bytes", e.downBytes,
			"mean_txn_seconds", e.meanDur}
		if m != nil && len(e.txns) > 0 {
			class, err := m.est.Classify(e.txns)
			if err != nil {
				s.log.Error("eviction classification failed", "client", e.client, "err", err)
			} else {
				m.predClass[class].Inc()
				attrs = append(attrs, "class", m.names[class])
			}
		}
		s.log.Info("client evicted", attrs...)
	}
}

// rotateInterned ties interned-string release to client eviction: when
// the source interns (squid tail), its tables rotate at most once per
// -client-ttl of sweep-clock time, so a string is released only after
// one to two TTLs of idleness — the same horizon on which its client's
// state is reclaimed. Tick goroutine only.
func (s *service) rotateInterned(nowSec float64) {
	ttl := s.opts.clientTTL
	if ttl <= 0 {
		return
	}
	in, ok := s.src.(ingest.Interner)
	if !ok {
		return
	}
	if nowSec-s.lastRotate < ttl.Seconds() {
		return
	}
	s.lastRotate = nowSec
	in.ReleaseIdleInterned()
}

// drain finishes the sessionizers after the proxy has stopped, stops
// the sink writer (flushing queued records) and prints the per-client
// shutdown summary in client order.
func (s *service) drain() {
	var clients []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for c, cs := range sh.clients {
			clients = append(clients, c)
			// All connections have ended; the watermark is unbounded.
			s.advance(c, cs)
			s.apply(c, cs, cs.streamer.Flush())
		}
		sh.mu.Unlock()
	}
	s.stopSinkWriter()
	m := s.model.Load()
	if m == nil {
		return
	}
	sort.Strings(clients)
	for _, c := range clients {
		sh := s.shardFor(c)
		sh.mu.Lock()
		cs := sh.clients[c]
		// The summary classifies the retained ring — the whole history
		// for clients under -max-session-txns, the most recent slice
		// beyond it (lifetime counts still report the full totals).
		txns := cs.recent.snapshot(nil)
		total, boundaries := cs.txns, cs.boundaries
		sh.mu.Unlock()
		if len(txns) == 0 {
			continue
		}
		class, err := m.est.Classify(txns)
		if err != nil {
			s.log.Error("shutdown classification failed", "client", c, "err", err)
			continue
		}
		fmt.Printf("client %-22s sessions-qoe=%s (%d transactions, %d boundaries)\n",
			c, m.names[class], total, boundaries)
	}
}

// clientHost strips the port from a client address. Bare addresses —
// including bare IPv6 like "::1", which a naive LastIndex(":") cut
// would mangle to "::" — pass through unchanged.
func clientHost(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return host
}

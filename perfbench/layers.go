package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/ingest"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// span is one traced interval of the layer replay. Times are
// nanoseconds since the tracer started; Parent indexes the enclosing
// span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Client string `json:"client,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced timing run executes the
// same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, client string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Client: client})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover, in nanoseconds.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self[s.Name] += float64(s.End - s.Start - child[i])
	}
	return self
}

// layerWork counts the units each layer processed in one replay.
type layerWork struct {
	records, lines, txns, clients, rows float64
	allocBytes                          float64 // heap allocated by the workload's own source
}

// layerInputs are the files the replay reads: the workload rendered in
// both source formats.
type layerInputs struct {
	csvPath, squidPath string
	squidLines         [][]byte
}

// writeLayerInputs renders the workload in the format the daemon did
// not read, so every ingest layer can be timed on the same records.
func writeLayerInputs(s spec, in *prepared, recs []tlsproxy.ReplayRecord, dir string) (*layerInputs, error) {
	li := &layerInputs{csvPath: in.inputPath, squidPath: in.inputPath}
	if s.source == "squid" {
		li.csvPath = filepath.Join(dir, "layers.csv")
		if err := writeInput(li.csvPath, spec{source: "replay"}, recs); err != nil {
			return nil, err
		}
	} else {
		li.squidPath = filepath.Join(dir, "layers.log")
		if err := writeInput(li.squidPath, spec{source: "squid"}, squidOrder(recs)); err != nil {
			return nil, err
		}
	}
	data, err := os.ReadFile(li.squidPath)
	if err != nil {
		return nil, err
	}
	li.squidLines = bytes.Split(bytes.TrimSpace(data), []byte{'\n'})
	return li, nil
}

// replayLayers feeds the workload through each layer's public
// functions on one goroutine, in the order the daemon runs them. It is
// the single-threaded baseline of the daemon's job and, with a tracer,
// the source of per-layer self times.
func replayLayers(s spec, in *prepared, li *layerInputs, tr *tracer) (*layerWork, error) {
	var w layerWork
	root := tr.begin("replay", -1, "")
	defer tr.end(root)
	base := time.Unix(0, 0)
	var ms0, ms1 runtime.MemStats
	count := func(recs []tlsproxy.Record) { w.records += float64(len(recs)) }
	open := func(tlsproxy.Record) {}

	// Ingest: the replay source (load, then delivery) and the squid
	// source (parse timed on its own, then the whole tail).
	runtime.ReadMemStats(&ms0)
	sp := tr.begin("ingest.replay_load", root, "")
	bs, err := ingest.NewReplaySource(li.csvPath, base, 0, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("ingest.replay_deliver", root, "")
	bs.Run(context.Background(), ingest.Handler{ConnOpen: open, TransactionBatch: count})
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	if s.source != "squid" {
		w.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}
	replayed := w.records

	sp = tr.begin("squidlog.parse", root, "")
	for _, line := range li.squidLines {
		if _, ok, err := squidlog.ParseLineBytes(line); err != nil || !ok {
			tr.end(sp)
			return nil, fmt.Errorf("access log line %q does not parse: %v", line, err)
		}
	}
	tr.end(sp)
	w.lines = float64(len(li.squidLines))

	w.records = 0
	runtime.ReadMemStats(&ms0)
	sp = tr.begin("ingest.squid_run", root, "")
	src := &ingest.SquidSource{Path: li.squidPath, Base: base, EpochUnix: 0, Horizon: squidHorizon.Seconds()}
	err = src.Run(context.Background(), ingest.Handler{ConnOpen: open, TransactionBatch: count})
	tr.end(sp)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	if s.source == "squid" {
		w.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}
	if w.records != replayed || int(w.records) != in.ref.records {
		return nil, fmt.Errorf("layer replay delivered %v (replay) and %v (squid) records, want %d", replayed, w.records, in.ref.records)
	}

	// Per-client commit and classify work, over exactly the values and
	// order the daemon commits.
	clients := make([]string, 0, len(in.ref.clients))
	for c := range in.ref.clients {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	cutoff := -1.0
	if s.window > 0 {
		maxEnd := 0.0
		for _, r := range in.recv {
			maxEnd = max(maxEnd, r.txn.End)
		}
		cutoff = maxEnd - s.window.Seconds()
	}
	est := in.est
	rb := est.NewRowBuilder()
	stride := est.NumFeatures()
	block := make([]float64, 0, len(clients)*stride)
	var row []float64
	var win []capture.TLSTransaction
	for _, client := range clients {
		c := in.ref.clients[client]
		ordered := startOrder(c.committed)
		cs := tr.begin("client", root, client)

		sp := tr.begin("sessionid.push", cs, client)
		decisions, _ := sessionize(ordered)
		tr.end(sp)

		// The accumulator follows the current session, reset at each
		// boundary, as the daemon's tracked mode does.
		sp = tr.begin("features.observe", cs, client)
		ts := core.NewTrackedSession()
		last := 0
		for i, d := range decisions {
			if d.NewSession {
				ts.Reset()
				last = i
			}
			ts.Observe(ordered[i])
		}
		tr.end(sp)

		sp = tr.begin("core.tracked_row", cs, client)
		row = est.TrackedRow(ts, nil, row)
		tr.end(sp)
		if s.window == 0 {
			block = append(block, row...)
		}

		win = win[:0]
		for _, t := range ordered[last:] {
			if t.End >= cutoff {
				win = append(win, t)
			}
		}
		sp = tr.begin("core.windowed_row", cs, client)
		row = rb.FeatureRow(win, row)
		tr.end(sp)
		if s.window > 0 {
			block = append(block, row...)
		}

		summary := summaryTxns(c.committed)
		sp = tr.begin("core.classify_session", cs, client)
		_, err := est.Classify(summary)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tr.end(cs)
		w.txns += float64(len(ordered))
	}
	w.clients = float64(len(clients))

	// Batched sweep over every client's row, 256-row blocks as the
	// daemon's default -classify-batch.
	const batch = 256
	rows := len(block) / stride
	probs := make([]float64, batch*est.NumClasses())
	out := make([]int, batch)
	for lo := 0; lo < rows; lo += batch {
		hi := min(lo+batch, rows)
		sp := tr.begin("core.sweep", root, "")
		err := est.ClassifyBlockInto(block[lo*stride:hi*stride], hi-lo, probs[:(hi-lo)*est.NumClasses()], out[:hi-lo])
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	w.rows = float64(rows)
	return &w, nil
}

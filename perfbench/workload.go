package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// spec is one workload: the generated traffic and the daemon settings
// it is served with.
type spec struct {
	name string
	// source is the daemon's -source: "replay" reads the workload CSV,
	// "squid" an end-time-ordered access log of the same records.
	source string
	// clients is the client count. Each client of a history workload
	// plays sessions sessions back to back; an end-aligned workload's
	// clients play one each.
	clients, sessions int
	// endAligned places every client's single session so that it ends
	// inside the last endSpread seconds of the timeline, keeping every
	// client inside the daemon's classification window when ingest ends.
	endAligned bool
	// window and tick are the daemon's -window and -classify-every.
	window, tick time.Duration
	// backToBack says the tick is far below one pass, so that passes run
	// back to back after ingest and a pass is timed as the gap between
	// successive passes. Otherwise the gap is the tick, and a pass is
	// timed as the daemon's CPU time between successive passes.
	backToBack bool
}

// Workload definitions. Sizes fit a 2-CPU host: one daemon cycle
// ingests in a few seconds, so a run repeats several cycles and
// reports medians.
var workloads = []spec{
	// Many back-to-back sessions per client, whole-session tracked
	// accumulator: per-client commit dominates (sessionid, features,
	// sink) and parse does nothing.
	// The tick is moderate, so passes take a minor share of ingest CPU.
	{name: "replay-history", source: "replay", clients: 2000, sessions: 10,
		window: 0, tick: 50 * time.Millisecond},
	// The same client/session stream as an access log: parse, intern
	// and reorder run in front of the same commit path, so the
	// difference from replay-history is the ingest layer.
	{name: "squid-history", source: "squid", clients: 2000, sessions: 10,
		window: 0, tick: 50 * time.Millisecond},
	// Many resident clients with one session each, all inside the
	// default 4m window; back-to-back passes over the static state
	// after ingest stress gather, sweep and per-client emit.
	{name: "resident-windowed", source: "replay", clients: 8000,
		endAligned: true, window: 4 * time.Minute, tick: time.Millisecond, backToBack: true},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// historyRamp spreads the history clients' first session starts.
	historyRamp = 600.0
	// endAlignAt is where the end-aligned timeline ends, and endSpread
	// how far before it each client's last transaction may end; it must
	// stay below the daemon's 4m window.
	endAlignAt = 3600.0
	endSpread  = 120.0
	// squidHorizon is the daemon's -ingest-horizon for the squid
	// workload. Squid logs a connection at its end, so the reorder
	// buffer must hold back events for at least the longest connection
	// for delivery to follow global event order; generate rejects a
	// workload whose connections outlast it.
	squidHorizon = 20 * time.Minute
)

// buildCorpora generates perProfile sessions for each of the three
// service profiles, deterministically from seed.
func buildCorpora(seed int64, perProfile int) ([]*dataset.Corpus, error) {
	var out []*dataset.Corpus
	for _, prof := range []*has.ServiceProfile{has.Svc1(), has.Svc2(), has.Svc3()} {
		c, err := dataset.Build(dataset.Config{Seed: seed, Sessions: perProfile}, prof)
		if err != nil {
			return nil, fmt.Errorf("building %s pool: %w", prof.Name, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// poolOf pools the sessions of all corpora.
func poolOf(corpora []*dataset.Corpus) ([][]capture.TLSTransaction, error) {
	var pool [][]capture.TLSTransaction
	for _, c := range corpora {
		for _, r := range c.Records {
			if len(r.Capture.TLS) > 0 {
				pool = append(pool, r.Capture.TLS)
			}
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("empty session pool")
	}
	return pool, nil
}

// clientAddr derives a unique client address from an index.
func clientAddr(i int) string {
	return fmt.Sprintf("10.%d.%d.%d:40000", (i>>16)&255, (i>>8)&255, i&255)
}

// generate deals sessions from the pool to the spec's clients: which
// sessions each client plays, when it arrives and the pauses between
// its sessions all come from seed. Records come out client by client,
// each client's in start order, as the replay format expects.
func generate(s spec, pool [][]capture.TLSTransaction, seed int64) ([]tlsproxy.ReplayRecord, error) {
	rng := rand.New(rand.NewSource(seed))
	var recs []tlsproxy.ReplayRecord
	for c := 0; c < s.clients; c++ {
		client := clientAddr(c)
		first := len(recs)
		var t float64
		if s.endAligned {
			sess := pool[rng.Intn(len(pool))]
			t = endAlignAt - rng.Float64()*endSpread - sessionEnd(sess)
			recs = appendSession(recs, client, sess, t)
		} else {
			t = rng.Float64() * historyRamp
			for k := 0; k < s.sessions; k++ {
				sess := pool[rng.Intn(len(pool))]
				recs = appendSession(recs, client, sess, t)
				// The next session follows after a short pause, too short
				// for an idle timeout to separate the two.
				t += sessionEnd(sess) + 1 + 4*rng.Float64()
			}
		}
		mine := recs[first:]
		sort.SliceStable(mine, func(i, j int) bool { return mine[i].Start < mine[j].Start })
	}
	for _, r := range recs {
		if d := r.End - r.Start; d >= squidHorizon.Seconds() {
			return nil, fmt.Errorf("connection of %.0fs outlasts the %s reorder horizon", d, squidHorizon)
		}
	}
	return recs, nil
}

func sessionEnd(txns []capture.TLSTransaction) float64 {
	end := 0.0
	for _, t := range txns {
		if t.End > end {
			end = t.End
		}
	}
	return end
}

func appendSession(recs []tlsproxy.ReplayRecord, client string, sess []capture.TLSTransaction, at float64) []tlsproxy.ReplayRecord {
	for _, t := range sess {
		recs = append(recs, tlsproxy.ReplayRecord{
			Client:    client,
			SNI:       t.SNI,
			Start:     at + t.Start,
			End:       at + t.End,
			UpBytes:   t.UpBytes,
			DownBytes: t.DownBytes,
		})
	}
	return recs
}

// squidOrder returns the records in the order Squid writes them: by
// end time, ties in generation order.
func squidOrder(recs []tlsproxy.ReplayRecord) []tlsproxy.ReplayRecord {
	out := append([]tlsproxy.ReplayRecord(nil), recs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].End < out[j].End })
	return out
}

// writeInput renders the records in the spec's source format: the
// workload CSV for replay, an access log (epoch 0) for squid.
func writeInput(path string, s spec, recs []tlsproxy.ReplayRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if s.source == "squid" {
		var line []byte
		for _, r := range recs {
			line = squidlog.AppendEntry(line[:0], r.Client, capture.TLSTransaction{
				SNI: r.SNI, Start: r.Start, End: r.End, UpBytes: r.UpBytes, DownBytes: r.DownBytes,
			}, 0)
			bw.Write(append(line, '\n'))
		}
	} else if err := tlsproxy.WriteWorkload(bw, recs); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

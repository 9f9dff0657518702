package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/tlsproxy"
)

// TestEvictionSoakBounded is the acceptance soak for the memory
// bounds: many sessions across many clients, with eviction and the
// transaction cap enabled, must keep per-client state and the clients
// map bounded — asserted via the qoeproxy_clients gauge and direct
// state inspection — while the classification each eviction emits
// stays identical to the unbounded baseline for sessions under the
// cap (and, over it, to a batch classification of exactly the
// retained most-recent transactions).
func TestEvictionSoakBounded(t *testing.T) {
	const (
		maxTxns    = 8
		numClients = 8
		numRounds  = 3
		ttl        = 300 * time.Second
	)

	// A trained model so evictions emit real classifications.
	trainCorpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range trainCorpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 5}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}
	names := core.ClassNames(est.Metric())

	// Traffic corpus: one session per (round, client); seed 9 yields
	// sessions from 4 to 33 transactions, half of them over the cap.
	traffic, err := dataset.Build(dataset.Config{Seed: 9, Sessions: numClients * numRounds}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}

	s, logs := newTestService(t, options{
		window:         0, // incremental mode: tracked accumulators in play
		clientTTL:      ttl,
		maxSessionTxns: maxTxns,
	}, est)

	gaugeValue := func(series string) float64 {
		t.Helper()
		var page bytes.Buffer
		s.reg.Render(&page)
		for _, line := range strings.Split(page.String(), "\n") {
			var v float64
			if n, _ := fmt.Sscanf(line, series+" %f", &v); n == 1 {
				return v
			}
		}
		t.Fatalf("series %s not rendered", series)
		return 0
	}

	var connID uint64
	base := 0.0
	expected := make([]map[string]string, numRounds) // round -> client -> class name
	for round := 0; round < numRounds; round++ {
		expected[round] = map[string]string{}
		roundEnd := 0.0
		for c := 0; c < numClients; c++ {
			client := fmt.Sprintf("10.9.0.%d", c+1)
			session := traffic.Records[round*numClients+c].Capture.TLS
			shifted := make([]capture.TLSTransaction, 0, len(session))
			sorted := append([]capture.TLSTransaction(nil), session...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
			for _, txn := range sorted {
				connID++
				start := s.epoch.Add(time.Duration((base + txn.Start) * float64(time.Second)))
				end := s.epoch.Add(time.Duration((base + txn.End) * float64(time.Second)))
				rec := tlsproxy.Record{
					ConnID:     connID,
					SNI:        txn.SNI,
					ClientAddr: client + ":40000",
					Start:      start,
					End:        end,
					UpBytes:    txn.UpBytes,
					DownBytes:  txn.DownBytes,
				}
				// The canonical transaction, roundtripped through the same
				// time conversion onTransactionBatch applies, so the baseline
				// sees bit-identical values to the ring.
				shifted = append(shifted, capture.TLSTransaction{
					SNI:       txn.SNI,
					Start:     start.Sub(s.epoch).Seconds(),
					End:       end.Sub(s.epoch).Seconds(),
					UpBytes:   txn.UpBytes,
					DownBytes: txn.DownBytes,
				})
				s.onConnOpen(rec)
				s.ingestOne(rec)
				checkClientInvariants(t, s)
				if e := base + txn.End; e > roundEnd {
					roundEnd = e
				}
			}

			// Direct state inspection: every per-client run is bounded.
			// capSegment's 50% hysteresis allows limit+limit/2 before a
			// truncation pass cuts back to limit.
			cs := s.client(client)
			if got := cs.recent.len(); got > maxTxns {
				t.Errorf("round %d %s: ring holds %d txns, cap %d", round, client, got, maxTxns)
			}
			if got := len(cs.current()); got > maxTxns+maxTxns/2 {
				t.Errorf("round %d %s: current session holds %d txns, bound %d", round, client, got, maxTxns+maxTxns/2)
			}
			if got := len(cs.buffered()); got > maxTxns+maxTxns/2 {
				t.Errorf("round %d %s: reorder buffer holds %d txns, bound %d", round, client, got, maxTxns+maxTxns/2)
			}
			if cs.txns != int64(len(sorted)) {
				t.Errorf("round %d %s: lifetime txns = %d, want %d (truncation must not lose the totals)",
					round, client, cs.txns, len(sorted))
			}

			// The unbounded baseline: the classification an uncapped
			// daemon would emit. Under the cap the ring holds the whole
			// session, so the two must match exactly; over it, eviction
			// classifies the most recent maxTxns transactions.
			baseline := shifted
			if len(baseline) > maxTxns {
				baseline = baseline[len(baseline)-maxTxns:]
			}
			class, err := est.Classify(baseline)
			if err != nil {
				t.Fatalf("baseline classify: %v", err)
			}
			expected[round][client] = names[class]
		}

		if got := gaugeValue("qoeproxy_clients"); got != numClients {
			t.Fatalf("round %d: qoeproxy_clients = %v mid-round, want %d", round, got, numClients)
		}

		// The classify tick: a pass, then the eviction sweep past the TTL.
		evictAt := s.epoch.Add(time.Duration((roundEnd + ttl.Seconds() + 1) * float64(time.Second)))
		s.classifyPass(evictAt.Sub(s.epoch).Seconds())
		checkClientInvariants(t, s)
		s.evictIdle(evictAt.Sub(s.epoch).Seconds())
		checkClientInvariants(t, s)

		if left := s.clientCount(); left != 0 {
			t.Fatalf("round %d: %d clients survived the eviction sweep", round, left)
		}
		if got := gaugeValue("qoeproxy_clients"); got != 0 {
			t.Fatalf("round %d: qoeproxy_clients = %v after sweep, want 0", round, got)
		}
		if got := s.mEvicted.Value(); got != int64((round+1)*numClients) {
			t.Fatalf("round %d: clients_evicted_total = %d, want %d", round, got, (round+1)*numClients)
		}

		base = roundEnd + ttl.Seconds() + 10
	}

	if got := s.mTruncated.Value(); got == 0 {
		t.Error("sessions_truncated_total stayed 0 although half the sessions exceed the cap")
	}

	// Every eviction's logged classification must match its baseline.
	// evictIdle logs clients in sorted order per sweep, so the lines
	// arrive as numRounds consecutive sorted groups.
	type evictLine struct {
		Msg    string `json:"msg"`
		Client string `json:"client"`
		Class  string `json:"class"`
	}
	var got []evictLine
	for _, line := range logs.lines() {
		if line == "" {
			continue
		}
		var e evictLine
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if e.Msg == "client evicted" {
			got = append(got, e)
		}
	}
	if len(got) != numRounds*numClients {
		t.Fatalf("logged %d evictions, want %d", len(got), numRounds*numClients)
	}
	for i, e := range got {
		round := i / numClients
		want := expected[round][e.Client]
		if want == "" {
			t.Errorf("eviction %d: unexpected client %q", i, e.Client)
			continue
		}
		if e.Class != want {
			t.Errorf("round %d client %s: evicted as %q, baseline says %q", round, e.Client, e.Class, want)
		}
	}
}

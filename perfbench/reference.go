package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/ingest"
	"droppackets/internal/sessionid"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// summaryRing is the daemon's default -max-session-txns: the shutdown
// summary classifies at most this many of a client's most recent
// transactions.
const summaryRing = 4096

// received is one record as the daemon sees it after decoding and
// clock quantization.
type received struct {
	client string // host part of the client address
	txn    capture.TLSTransaction
}

// readReceived decodes the generated input file the way the daemon's
// source does and returns every record's values in file order: the
// replay CSV through tlsproxy.ReadWorkload, the access log through
// squidlog.ParseLineBytes (millisecond resolution, epoch 0). Offsets
// then take the sources' microsecond quantization and the
// float-to-Duration round trip of record delivery.
func readReceived(s spec, path string) ([]received, error) {
	var out []received
	add := func(client, sni string, start, end float64, up, down int64) {
		qs, qe := ingest.QuantizeMicros(start), ingest.QuantizeMicros(end)
		if qe < qs {
			qe = qs
		}
		if host, _, err := net.SplitHostPort(client); err == nil {
			client = host
		}
		out = append(out, received{client: client, txn: capture.TLSTransaction{
			SNI:       sni,
			Start:     time.Duration(qs * float64(time.Second)).Seconds(),
			End:       time.Duration(qe * float64(time.Second)).Seconds(),
			UpBytes:   up,
			DownBytes: down,
		}})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if s.source != "squid" {
		recs, err := tlsproxy.ReadWorkload(f)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			add(r.Client, r.SNI, r.Start, r.End, r.UpBytes, r.DownBytes)
		}
		return out, nil
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		v, ok, err := squidlog.ParseLineBytes(line)
		if err != nil || !ok {
			return nil, fmt.Errorf("generated access log line %q does not parse: %v", line, err)
		}
		add(string(v.Client), string(v.Host), v.EndUnix-v.ElapsedSec, v.EndUnix, v.UpBytes, v.DownBytes)
	}
	return out, sc.Err()
}

// clientRef is the expected end state of one client.
type clientRef struct {
	// committed holds the client's transactions in the order the daemon
	// commits them: by end time, ties in file order (the sources' global
	// (event time, sequence) delivery order restricted to the client).
	committed []capture.TLSTransaction
	// pushed counts the session boundaries the sessionizer finalizes
	// while ingesting; flushed the ones the shutdown flush adds.
	pushed, flushed int64
	class           string
}

// reference is what a correct daemon run must produce.
type reference struct {
	records int
	clients map[string]*clientRef
	// pushedBoundaries is qoeproxy_session_boundaries_total once ingest
	// has finished and before shutdown.
	pushedBoundaries int64
	// sinkLines counts each expected -out CSV line.
	sinkLines map[string]int
}

// buildReference computes the expected daemon outputs in-process with
// sessionid and core.Estimator.Classify.
func buildReference(recv []received, est *core.Estimator) (*reference, error) {
	ref := &reference{records: len(recv), clients: map[string]*clientRef{}, sinkLines: make(map[string]int, len(recv))}
	var order []string
	var line []byte
	for _, r := range recv {
		c := ref.clients[r.client]
		if c == nil {
			c = &clientRef{}
			ref.clients[r.client] = c
			order = append(order, r.client)
		}
		c.committed = append(c.committed, r.txn)
		line = appendSinkLine(line[:0], r.client, r.txn)
		ref.sinkLines[string(line)]++
	}
	names := core.ClassNames(est.Metric())
	for _, client := range order {
		c := ref.clients[client]
		sort.SliceStable(c.committed, func(i, j int) bool { return c.committed[i].End < c.committed[j].End })
		ds, k := sessionize(startOrder(c.committed))
		c.pushed, c.flushed = boundaries(ds[:k]), boundaries(ds[k:])
		ref.pushedBoundaries += c.pushed
		class, err := est.Classify(summaryTxns(c.committed))
		if err != nil {
			return nil, fmt.Errorf("reference classification of %s: %w", client, err)
		}
		c.class = names[class]
	}
	return ref, nil
}

// summaryTxns returns the transactions the shutdown summary
// classifies: the most recent summaryRing in commit order.
func summaryTxns(committed []capture.TLSTransaction) []capture.TLSTransaction {
	return committed[max(0, len(committed)-summaryRing):]
}

// startOrder returns committed transactions as the sessionizer sees
// them: by start, ties in commit order.
func startOrder(committed []capture.TLSTransaction) []capture.TLSTransaction {
	s := append([]capture.TLSTransaction(nil), committed...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	return s
}

// sessionize runs one client's start-ordered stream through the online
// sessionizer: Push for every transaction, then the closing Flush. It
// returns one decision per transaction and how many of them Push
// finalized.
func sessionize(ordered []capture.TLSTransaction) (decisions []sessionid.Decision, pushed int) {
	st := sessionid.NewStreamer(sessionid.PaperParams)
	for _, t := range ordered {
		decisions = append(decisions, st.Push(sessionid.Transaction{Start: t.Start, End: t.End, SNI: t.SNI})...)
	}
	pushed = len(decisions)
	return append(decisions, st.Flush()...), pushed
}

// boundaries counts the decisions that start a new session.
func boundaries(ds []sessionid.Decision) int64 {
	var n int64
	for _, d := range ds {
		if d.NewSession {
			n++
		}
	}
	return n
}

// appendSinkLine renders one -out CSV record.
func appendSinkLine(dst []byte, client string, t capture.TLSTransaction) []byte {
	dst = append(dst, client...)
	dst = append(dst, ',')
	dst = append(dst, t.SNI...)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, t.Start, 'f', 3, 64)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, t.End, 'f', 3, 64)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, t.UpBytes, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, t.DownBytes, 10)
	return dst
}

var summaryLine = regexp.MustCompile(`^client (\S+)\s+sessions-qoe=(\S+) \((\d+) transactions, (\d+) boundaries\)$`)

// checkSummary compares the daemon's shutdown summary (its stdout) with
// the reference and returns one description per mismatching client.
func (ref *reference) checkSummary(stdout []byte) []string {
	var bad []string
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		m := summaryLine.FindStringSubmatch(sc.Text())
		if m == nil {
			bad = append(bad, fmt.Sprintf("unexpected stdout line %q", sc.Text()))
			continue
		}
		client := m[1]
		c := ref.clients[client]
		if c == nil || seen[client] {
			bad = append(bad, fmt.Sprintf("unexpected or repeated summary for %s", client))
			continue
		}
		seen[client] = true
		txns, _ := strconv.Atoi(m[3])
		bounds, _ := strconv.ParseInt(m[4], 10, 64)
		if txns != len(c.committed) || bounds != c.pushed+c.flushed || m[2] != c.class {
			bad = append(bad, fmt.Sprintf("%s: got %s/%d txns/%d boundaries, want %s/%d/%d",
				client, m[2], txns, bounds, c.class, len(c.committed), c.pushed+c.flushed))
		}
	}
	for client := range ref.clients {
		if !seen[client] {
			bad = append(bad, fmt.Sprintf("no summary for %s", client))
		}
	}
	return bad
}

// checkSink verifies that the -out CSV holds every workload record
// exactly once and nothing else; it returns the number of missing plus
// unexpected lines.
func (ref *reference) checkSink(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	body, ok := bytes.CutPrefix(data, []byte("session,sni,start,end,up_bytes,down_bytes\n"))
	if !ok {
		return 0, fmt.Errorf("sink %s has no CSV header", path)
	}
	left := make(map[string]int, len(ref.sinkLines))
	for k, v := range ref.sinkLines {
		left[k] = v
	}
	bad := 0
	for len(body) > 0 {
		var line []byte
		line, body, _ = bytes.Cut(body, []byte{'\n'})
		if n := left[string(line)]; n > 0 {
			left[string(line)] = n - 1
			continue
		}
		bad++
	}
	for _, n := range left {
		bad += n
	}
	return bad, nil
}

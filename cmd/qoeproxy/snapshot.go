package main

// Serving-state snapshot/restore: the warm-restart and partition-
// handoff half of fleet operation. A snapshot serializes every
// client's live serving state — sessionizer, the ongoing-session run
// (as its current, in-flight and reorder-buffer segments),
// recent-transaction ring, lifetime aggregates, last online
// classification — into one versioned JSON envelope (the convention of
// internal/core/persist.go: explicit version field, unknown versions
// rejected). A daemon started with
// -restore rebuilds that state before ingesting a single record, so
// its subsequent classifications, counters and sink lines are
// byte-identical to a daemon that never stopped; the equivalence tests
// in snapshot_test.go pin this.
//
// The feature accumulator is deliberately NOT serialized: its state is
// a pure function of the current-session transactions ingested in
// order (apply already relies on this when it rebuilds after
// truncation), so restore replays the current segment through a fresh
// accumulator and gets the bit-identical vector back — the envelope
// stays small and version-stable while the accumulator's internals
// remain free to change. The live state keeps one run with a cursor
// but writes its three segments, the data version 1 always held.
//
// The envelope carries the epoch of the instance that wrote it, and
// restore adopts it: every float in the state is epoch-relative
// seconds, so the successor must keep measuring offsets against the
// original zero for watermarks, TTLs and sink timestamps to stay
// consistent (the uptime gauge consequently reports time since the
// ORIGINAL instance started — documented in docs/OPERATIONS.md).

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/sessionid"
	"droppackets/internal/stats"
)

// snapshotVersion is the envelope layout version this build writes and
// the newest it accepts.
const snapshotVersion = 1

// savedSnapshot is the on-disk serving-state envelope.
type savedSnapshot struct {
	Version int `json:"version"`
	// Instance records which fleet member wrote the snapshot (empty for
	// a standalone daemon) — operators use it to audit handoffs; restore
	// does not require it to match.
	Instance string `json:"instance,omitempty"`
	// EpochUnixNanos is the writer's epoch; every time float below is
	// seconds since it.
	EpochUnixNanos int64 `json:"epoch_unix_nanos"`
	// Watermark is the ingest watermark at capture, epoch seconds.
	Watermark float64      `json:"watermark"`
	Clients   []snapClient `json:"clients"`
}

// snapClient is one client's complete serving state. Transaction runs
// use capture.TLSTransaction directly — a stable public type — and are
// the three segments of the live run (current ++ in_flight ++ buffer
// is the ongoing session in order; see clientState.run).
type snapClient struct {
	Client       string                   `json:"client"`
	Streamer     sessionid.StreamerState  `json:"streamer"`
	ActiveStarts map[uint64]float64       `json:"active_starts,omitempty"`
	Buffer       []capture.TLSTransaction `json:"buffer,omitempty"`
	InFlight     []capture.TLSTransaction `json:"in_flight,omitempty"`
	Current      []capture.TLSTransaction `json:"current,omitempty"`
	// Recent is the retained summary ring, oldest first; RecentDropped
	// restores its lifetime drop count.
	Recent        []capture.TLSTransaction `json:"recent,omitempty"`
	RecentDropped int64                    `json:"recent_dropped,omitempty"`
	LastActivity  float64                  `json:"last_activity"`
	Txns          int64                    `json:"txns"`
	UpBytes       int64                    `json:"up_bytes"`
	DownBytes     int64                    `json:"down_bytes"`
	Dur           stats.RunningState       `json:"dur"`
	Boundaries    int64                    `json:"boundaries"`
	Truncated     bool                     `json:"truncated,omitempty"`
	LastClass     int                      `json:"last_class,omitempty"`
	HasClass      bool                     `json:"has_class,omitempty"`
}

// snapshotState captures the full serving state. Each shard is
// captured under its own lock, so every client's state is internally
// consistent; for a fully consistent fleet handoff the caller stops
// ingest first (the SIGTERM path does). Clients are sorted so the same
// state always serializes to the same bytes.
func (s *service) snapshotState() *savedSnapshot {
	snap := &savedSnapshot{
		Version:        snapshotVersion,
		Instance:       s.instanceID,
		EpochUnixNanos: s.epoch.UnixNano(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for client, cs := range sh.clients {
			sc := snapClient{
				Client:        client,
				Streamer:      cs.streamer.State(),
				Buffer:        append([]capture.TLSTransaction(nil), cs.buffered()...),
				InFlight:      append([]capture.TLSTransaction(nil), cs.inFlight()...),
				Current:       append([]capture.TLSTransaction(nil), cs.current()...),
				Recent:        cs.recent.snapshot(nil),
				RecentDropped: cs.recent.dropped,
				LastActivity:  cs.lastActivity,
				Txns:          cs.txns,
				UpBytes:       cs.upBytes,
				DownBytes:     cs.downBytes,
				Dur:           cs.durStats.State(),
				Boundaries:    cs.boundaries,
				Truncated:     cs.truncated,
				LastClass:     cs.lastClass,
				HasClass:      cs.hasClass,
			}
			if len(cs.activeStarts) > 0 {
				sc.ActiveStarts = maps.Clone(cs.activeStarts)
			}
			snap.Clients = append(snap.Clients, sc)
		}
		sh.mu.Unlock()
	}
	sort.Slice(snap.Clients, func(i, j int) bool { return snap.Clients[i].Client < snap.Clients[j].Client })
	snap.Watermark = math.Float64frombits(s.watermark.Load())
	return snap
}

// writeSnapshotFile serializes the serving state atomically: a temp
// file in the destination directory, fsynced, then renamed over the
// target — a crash mid-write never leaves a truncated envelope where
// a successor would look for a good one.
func (s *service) writeSnapshotFile(path string) (clients int, err error) {
	snap := s.snapshotState()
	raw, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".qoeproxy-snapshot-*")
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("snapshot: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("snapshot: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	return len(snap.Clients), nil
}

// loadSnapshotFile reads and validates a snapshot envelope.
func loadSnapshotFile(path string) (*savedSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var snap savedSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("snapshot: decoding %s: %w", path, err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("snapshot: %s has version %d, want 1..%d", path, snap.Version, snapshotVersion)
	}
	if snap.EpochUnixNanos == 0 {
		return nil, fmt.Errorf("snapshot: %s carries no epoch", path)
	}
	for i := range snap.Clients {
		if err := snap.Clients[i].validate(); err != nil {
			return nil, fmt.Errorf("snapshot: %s client %d: %w", path, i, err)
		}
	}
	return &snap, nil
}

// validate rejects a client state the live run cannot hold: in_flight
// must mirror streamer.pending (the run derives that segment's length
// from it), the reorder buffer must be sorted by start as inserts keep
// it, and no lifetime count may be negative. The runs need not
// concatenate sorted: the live proxy can produce that (see
// clientState.run).
func (c *snapClient) validate() error {
	switch {
	case c.Client == "":
		return fmt.Errorf("empty address")
	case len(c.InFlight) != len(c.Streamer.Pending):
		return fmt.Errorf("%s: %d in-flight transactions, streamer holds %d", c.Client, len(c.InFlight), len(c.Streamer.Pending))
	case !slices.IsSortedFunc(c.Buffer, func(a, b capture.TLSTransaction) int { return cmp.Compare(a.Start, b.Start) }):
		return fmt.Errorf("%s: reorder buffer not sorted by start", c.Client)
	case c.Txns < 0 || c.UpBytes < 0 || c.DownBytes < 0 || c.Boundaries < 0 || c.RecentDropped < 0:
		return fmt.Errorf("%s: negative lifetime count", c.Client)
	}
	for i, t := range c.InFlight {
		if p := c.Streamer.Pending[i]; t.Start != p.Start || t.End != p.End || t.SNI != p.SNI {
			return fmt.Errorf("%s: in-flight transaction %d does not match the streamer's", c.Client, i)
		}
	}
	return nil
}

// restoreState rebuilds the serving state from a snapshot: the epoch
// and watermark are adopted wholesale, and every owned client's state
// is reconstructed exactly — the feature accumulator by replaying the
// current session (bit-identical, see the package comment). Clients
// the cluster ring no longer assigns to this instance are dropped, not
// resurrected: their partitions moved to a peer, and keeping their
// state (or re-interning their strings) here would double-classify
// them. Global counters are untouched — restore is not ingest; a
// fleet's counter totals stay the sum of what each instance actually
// processed. Must run before any source is constructed or record
// delivered.
func (s *service) restoreState(snap *savedSnapshot) (restored, skippedNotOwned int) {
	s.epoch = time.Unix(0, snap.EpochUnixNanos)
	s.watermark.Store(math.Float64bits(snap.Watermark))
	for i := range snap.Clients {
		sc := &snap.Clients[i]
		if !s.owns(sc.Client) {
			skippedNotOwned++
			continue
		}
		cs := &clientState{
			streamer:     sessionid.RestoreStreamer(sessionid.PaperParams, sc.Streamer),
			activeStarts: map[uint64]float64{},
			run:          slices.Concat(sc.Current, sc.InFlight, sc.Buffer),
			decided:      len(sc.Current),
			recent:       newTxnRing(s.opts.maxSessionTxns),
			lastActivity: sc.LastActivity,
			txns:         sc.Txns,
			upBytes:      sc.UpBytes,
			downBytes:    sc.DownBytes,
			boundaries:   sc.Boundaries,
			truncated:    sc.Truncated,
			lastClass:    sc.LastClass,
			hasClass:     sc.HasClass,
		}
		maps.Copy(cs.activeStarts, sc.ActiveStarts)
		for _, t := range sc.Recent {
			cs.recent.push(t)
		}
		cs.recent.dropped = sc.RecentDropped
		cs.durStats.Restore(sc.Dur)
		if s.track {
			cs.tracked = core.NewTrackedSession()
			cs.tracked.ObserveAll(cs.current())
		}
		sh := s.shardFor(sc.Client)
		sh.mu.Lock()
		sh.clients[sc.Client] = cs
		sh.mu.Unlock()
		restored++
	}
	return restored, skippedNotOwned
}

// restoreFromFile is the -restore startup path: a missing, corrupt or
// truncated snapshot is logged and the daemon starts cold — never
// crashes — because a fleet member must come up and take its
// partitions even when the previous incarnation left nothing usable
// behind.
func (s *service) restoreFromFile(path string) {
	snap, err := loadSnapshotFile(path)
	if err != nil {
		s.log.Error("snapshot restore failed; starting cold", "path", path, "err", err)
		return
	}
	restored, skipped := s.restoreState(snap)
	s.log.Info("snapshot restored",
		"path", path, "from_instance", snap.Instance,
		"clients", restored, "skipped_not_owned", skipped,
		"watermark", snap.Watermark)
}

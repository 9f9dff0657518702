package main

import (
	"sort"
	"testing"
)

// checkClientInvariants asserts the per-client run layout for every
// client of s (see clientState.run): the decided cursor lies inside the
// run, the in-flight segment mirrors the sessionizer's look-ahead
// entry for entry, the reorder buffer is sorted by start, and a
// tracked accumulator holds exactly the decided prefix. Nothing may be
// feeding s concurrently.
func checkClientInvariants(t testing.TB, s *service) {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.Lock()
		for client, cs := range sh.clients {
			if cs.decided < 0 || cs.decided > len(cs.run) {
				t.Errorf("%s: decided = %d outside run of %d", client, cs.decided, len(cs.run))
				continue
			}
			pending := cs.streamer.State().Pending
			if cs.decided+len(pending) > len(cs.run) {
				t.Errorf("%s: streamer holds %d pending, run has %d past decided",
					client, len(pending), len(cs.run)-cs.decided)
				continue
			}
			for i, p := range pending {
				if r := cs.run[cs.decided+i]; r.Start != p.Start || r.End != p.End || r.SNI != p.SNI {
					t.Errorf("%s: in-flight %d is %+v, streamer pending %+v", client, i, r, p)
				}
			}
			buf := cs.buffered()
			if !sort.SliceIsSorted(buf, func(i, j int) bool { return buf[i].Start < buf[j].Start }) {
				t.Errorf("%s: reorder buffer not sorted by start", client)
			}
			if cs.tracked != nil && cs.tracked.Len() != cs.decided {
				t.Errorf("%s: tracked accumulator holds %d, decided = %d", client, cs.tracked.Len(), cs.decided)
			}
		}
		sh.mu.Unlock()
	}
}

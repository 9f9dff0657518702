package ingest

import (
	"context"
	"errors"
	"net"
	"sync"

	"droppackets/internal/tlsproxy"
)

// ProxySource adapts the live SNI-sniffing proxy to the
// TransactionSource interface: it owns a tlsproxy.Proxy whose
// callbacks forward into the Run handler. Unlike file sources the
// proxy's events arrive on per-connection goroutines as traffic
// happens — per-connection open-before-transaction ordering holds, but
// there is no global replay order to reproduce.
type ProxySource struct {
	// Listener accepts the proxy's client connections; it must be set
	// before Run (the daemon binds it so address errors surface before
	// serving starts).
	Listener net.Listener

	proxy *tlsproxy.Proxy
	mu    sync.Mutex
	h     Handler
	seen  map[string]struct{}
	tally
}

// NewProxySource builds the proxy from cfg, overriding its OnConnOpen
// and OnTransaction callbacks to forward into whatever handler Run is
// given.
func NewProxySource(cfg tlsproxy.Config) (*ProxySource, error) {
	s := &ProxySource{seen: map[string]struct{}{}}
	cfg.OnConnOpen = s.connOpen
	cfg.OnTransaction = s.transaction
	p, err := tlsproxy.New(cfg)
	if err != nil {
		return nil, err
	}
	s.proxy = p
	return s, nil
}

// Proxy exposes the underlying proxy so the daemon can bridge its
// Stats into metrics.
func (s *ProxySource) Proxy() *tlsproxy.Proxy { return s.proxy }

// Name reports "proxy".
func (s *ProxySource) Name() string { return "proxy" }

// Run serves the listener until ctx is cancelled (a clean nil return)
// or the listener fails.
func (s *ProxySource) Run(ctx context.Context, h Handler) error {
	if s.Listener == nil {
		return errors.New("ingest: ProxySource.Run needs a Listener")
	}
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			s.proxy.Close()
		case <-stop:
		}
	}()
	err := s.proxy.Serve(s.Listener)
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// handler snapshots the forwarding target under the lock.
func (s *ProxySource) handler() Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}

// connOpen forwards a connection-open event and tracks distinct client
// hosts.
func (s *ProxySource) connOpen(r tlsproxy.Record) {
	host := r.ClientAddr
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	s.mu.Lock()
	if _, dup := s.seen[host]; !dup {
		s.seen[host] = struct{}{}
		s.clients.Add(1)
	}
	s.mu.Unlock()
	if h := s.handler(); h.ConnOpen != nil {
		h.ConnOpen(r)
	}
}

// transaction forwards a completed record; the live proxy has no
// natural batch, so the handler sees one-element batches.
func (s *ProxySource) transaction(r tlsproxy.Record) {
	s.records.Add(1)
	if h := s.handler(); h.TransactionBatch != nil {
		one := [1]tlsproxy.Record{r}
		h.TransactionBatch(one[:])
	}
}

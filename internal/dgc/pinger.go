package dgc

import (
	"log/slog"
	"sync"
	"time"

	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// PingerConfig wires a Pinger to the runtime.
type PingerConfig struct {
	// Interval is the pause between ping rounds (default 1s).
	Interval time.Duration
	// MaxFailures is how many consecutive failed rounds a client survives
	// before it is presumed dead (default 3).
	MaxFailures int
	// Clients snapshots the spaces currently in some dirty set, with the
	// endpoints they can be pinged at.
	Clients func() map[wire.SpaceID][]string
	// Ping probes one client; it must verify that the responder carries
	// the expected space id, so an endpoint reused by a new incarnation of
	// a crashed process is not mistaken for the old one.
	Ping func(id wire.SpaceID, endpoints []string) error
	// Drop removes a presumed-dead client from every dirty set.
	Drop func(id wire.SpaceID)
	// SessionAlive, when non-nil, reports whether a healthy mux session
	// whose peer identified itself as id already exists. Such a session's
	// keepalives subsume the probe: the round skips the explicit ping and
	// clears the client's failure count, so the Pinger degrades to a
	// fallback for session-less peers only.
	SessionAlive func(id wire.SpaceID, endpoints []string) bool
	// Logger receives liveness events; nil discards them.
	Logger *slog.Logger
	// Obs, when non-nil, counts ping failures.
	Obs *obs.Metrics
}

// Pinger is the owner-side liveness daemon: it periodically pings every
// client holding surrogates for the owner's objects and drops clients that
// stop answering, which is how the collector survives client crashes.
type Pinger struct {
	cfg      PingerConfig
	failures map[wire.SpaceID]int

	mu     sync.Mutex
	closed chan struct{}
	wg     sync.WaitGroup
}

// NewPinger starts a liveness daemon.
func NewPinger(cfg PingerConfig) *Pinger {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 3
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	p := &Pinger{
		cfg:      cfg,
		failures: make(map[wire.SpaceID]int),
		closed:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

// Close stops the daemon.
func (p *Pinger) Close() {
	p.mu.Lock()
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Poke runs one ping round immediately; tests use it to avoid waiting for
// the interval.
func (p *Pinger) Poke() { p.round() }

func (p *Pinger) run() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			p.round()
		case <-p.closed:
			return
		}
	}
}

func (p *Pinger) round() {
	clients := p.cfg.Clients()
	// Forget failure history for clients that no longer hold surrogates.
	p.mu.Lock()
	for id := range p.failures {
		if _, ok := clients[id]; !ok {
			delete(p.failures, id)
		}
	}
	p.mu.Unlock()

	for id, eps := range clients {
		select {
		case <-p.closed:
			return
		default:
		}
		if p.cfg.SessionAlive != nil && p.cfg.SessionAlive(id, eps) {
			if p.cfg.Obs != nil {
				p.cfg.Obs.PingsSubsumed.Inc()
			}
			p.mu.Lock()
			delete(p.failures, id)
			p.mu.Unlock()
			continue
		}
		err := p.cfg.Ping(id, eps)
		p.mu.Lock()
		if err == nil {
			delete(p.failures, id)
			p.mu.Unlock()
			continue
		}
		p.failures[id]++
		n := p.failures[id]
		p.mu.Unlock()
		if p.cfg.Obs != nil {
			p.cfg.Obs.PingFailures.Inc()
		}
		p.cfg.Logger.Debug("dgc: ping failed", "client", id.String(), "failures", n, "err", err)
		if n >= p.cfg.MaxFailures {
			p.cfg.Logger.Info("dgc: client presumed dead", "client", id.String())
			p.mu.Lock()
			delete(p.failures, id)
			p.mu.Unlock()
			p.cfg.Drop(id)
		}
	}
}

package dgc

import (
	"log/slog"
	"sync"
	"time"
)

// cycleInterval is the pause between detection passes: cycles are rare
// garbage, so the pass is deliberately lazy. Tests and demos Poke it.
const cycleInterval = time.Minute

// DetectorConfig wires a Detector to the runtime.
type DetectorConfig struct {
	// Pass runs one trial-deletion pass: snapshot suspects, query their
	// holders, apply GarbageCycles, act on the verdicts.
	Pass func()
	// Logger receives detector events; nil discards them.
	Logger *slog.Logger
}

// Detector is the cross-space cycle daemon: it periodically runs a
// trial-deletion pass over the exports whose only liveness is their
// remote dirty sets. The pass itself lives in the core package (it needs
// the RPC machinery); the daemon only paces it.
type Detector struct {
	cfg    DetectorConfig
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// mu serializes passes: a Poke during a ticker pass waits, so two
	// passes never interleave their queries.
	mu sync.Mutex
}

// NewDetector starts a cycle-detection daemon.
func NewDetector(cfg DetectorConfig) *Detector {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	d := &Detector{cfg: cfg, closed: make(chan struct{})}
	d.wg.Add(1)
	go d.run()
	return d
}

// Close stops the daemon and waits out any in-flight pass.
func (d *Detector) Close() {
	d.once.Do(func() { close(d.closed) })
	d.wg.Wait()
}

// Poke runs one detection pass immediately (tests and demos).
func (d *Detector) Poke() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cfg.Pass()
}

func (d *Detector) run() {
	defer d.wg.Done()
	t := time.NewTicker(cycleInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.mu.Lock()
			d.cfg.Pass()
			d.mu.Unlock()
		case <-d.closed:
			return
		}
	}
}

package flow

import "time"

// Keepalive is the dead-peer detector for one session. Any inbound frame
// proves the peer alive — pongs are not special — so the session keeps a
// count of what it receives, and a timer goroutine calls Tick with that
// count once per interval: a tick that finds the count moved since the
// last one clears the detector, and a tick that finds it still pings. A
// peer silent for KeepaliveMisses consecutive ticks is declared dead, so
// detection takes between KeepaliveMisses and KeepaliveMisses+1 intervals
// from the peer's last frame. The reader pays one counter increment a
// frame, and no clock read.
type Keepalive struct {
	interval time.Duration

	// Touched only by the Tick caller: the count the last tick saw, how
	// many ticks in a row have seen it unchanged, and the last probe's
	// token.
	seen  uint64
	quiet int
	token uint64
}

// NewKeepalive returns a detector pinging at interval.
func NewKeepalive(interval time.Duration) *Keepalive {
	return &Keepalive{interval: interval}
}

// Interval returns the configured ping interval.
func (k *Keepalive) Interval() time.Duration { return k.interval }

// Tick advances the detector by one interval, given received, the
// session's count of inbound traffic. dead reports that the peer has been
// silent for KeepaliveMisses ticks and the session must be failed;
// otherwise ping reports whether a probe should be sent (nothing arrived
// since the last tick) and token is the probe's payload.
func (k *Keepalive) Tick(received uint64) (dead bool, ping bool, token uint64) {
	if received != k.seen {
		// Traffic since the last tick already proves liveness; skip the
		// probe.
		k.seen, k.quiet = received, 0
		return false, false, 0
	}
	k.quiet++
	if k.quiet >= KeepaliveMisses {
		return true, false, 0
	}
	k.token++
	return false, true, k.token
}

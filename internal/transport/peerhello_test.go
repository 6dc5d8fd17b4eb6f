package transport

import (
	"testing"
	"time"

	"netobjects/internal/flow"
	"netobjects/internal/wire"
)

// identityPair wires two sessions over an in-memory link with the given
// space identities (zero = anonymous) and fast keepalives.
func identityPair(t *testing.T, clientID, serverID wire.SpaceID) (client, server *Session) {
	t.Helper()
	mem := NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cc, err := mem.Dial("peer")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sc := <-accepted
	p := flow.Params{KeepaliveInterval: 10 * time.Millisecond}
	client = NewSession(cc, SessionOptions{Flow: &p, LocalSpace: clientID})
	server = NewSession(sc, SessionOptions{Flow: &p, LocalSpace: serverID,
		Accept: func(st *Stream) { st.Close() }})
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeerHelloIdentity pins the self-identification mechanism the
// collector's session-subsumed liveness rests on: each side advertises
// its space id in its hello (Hello.Space), the other end reports it
// through PeerSpace, and KeepaliveHealthy turns true once that hello has
// arrived on a session with keepalives running. Space.sessionAlive
// requires both — identity is what stops a reborn process at the same
// endpoint from standing in for the space it replaced.
func TestPeerHelloIdentity(t *testing.T) {
	client, server := identityPair(t, wire.SpaceID(7), wire.SpaceID(9))
	eventually(t, "identities to propagate", func() bool {
		return server.PeerSpace() == wire.SpaceID(7) && client.PeerSpace() == wire.SpaceID(9)
	})
	eventually(t, "keepalives to confirm both peers", func() bool {
		return server.KeepaliveHealthy() && client.KeepaliveHealthy()
	})
}

// TestPeerHelloAnonymous: a session whose endpoint never advertised an
// identity stays at PeerSpace zero however healthy its keepalives are,
// so liveness can never attribute it to a space.
func TestPeerHelloAnonymous(t *testing.T) {
	client, server := identityPair(t, 0, wire.SpaceID(9))
	eventually(t, "server identity to propagate", func() bool {
		return client.PeerSpace() == wire.SpaceID(9)
	})
	eventually(t, "keepalives to confirm both peers", func() bool {
		return server.KeepaliveHealthy() && client.KeepaliveHealthy()
	})
	if got := server.PeerSpace(); got != 0 {
		t.Fatalf("anonymous client advertised space %v", got)
	}
}

// TestPeerHelloHealthDiesWithSession: closing the link turns
// KeepaliveHealthy off on the surviving side, so a dead session never
// subsumes liveness traffic.
func TestPeerHelloHealthDiesWithSession(t *testing.T) {
	client, server := identityPair(t, wire.SpaceID(7), wire.SpaceID(9))
	eventually(t, "keepalives to confirm both peers", func() bool {
		return server.KeepaliveHealthy() && client.KeepaliveHealthy()
	})
	client.Close()
	eventually(t, "server health to drop after peer close", func() bool {
		return !server.KeepaliveHealthy()
	})
}

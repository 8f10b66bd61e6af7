package transport

import (
	"net"
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// deadAddr reserves a loopback port and releases it, yielding an address
// that refuses connections immediately.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// forceRedial clears the group's dial gate so the next streamTo attempts a
// dial immediately — the tests drive the backoff state machine through its
// transitions without sleeping out real backoff windows.
func forceRedial(g *peerGroup) {
	g.mu.Lock()
	g.nextDial = time.Time{}
	g.mu.Unlock()
}

func backoffState(g *peerGroup) (backoff time.Duration, fails, dials uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.backoff, g.dialFails, g.dials
}

// TestDialBackoffDoublesToCap pins the redial schedule: the first failed
// dial arms dialBackoff, each subsequent failure doubles it, and it clamps
// at dialBackoffMax while the failure counter keeps climbing monotonically.
func TestDialBackoffDoublesToCap(t *testing.T) {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	n, err := NewTCPNode(TCPConfig{
		ID:             "a",
		Peers:          map[ring.NodeID]string{"b": deadAddr(t)},
		dialBackoff:    10 * time.Millisecond,
		dialBackoffMax: 80 * time.Millisecond,
		Logf:           func(string, ...any) {},
	}, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	g := n.group("b")
	want := []time.Duration{10, 20, 40, 80, 80, 80} // ms
	var lastFails uint64
	for i, w := range want {
		forceRedial(g)
		if _, err := n.streamTo("b"); err == nil {
			t.Fatalf("dial %d to dead address succeeded", i)
		}
		backoff, fails, dials := backoffState(g)
		if backoff != w*time.Millisecond {
			t.Fatalf("after failure %d: backoff = %v, want %v", i+1, backoff, w*time.Millisecond)
		}
		if fails != lastFails+1 {
			t.Fatalf("after failure %d: dialFails = %d, want %d", i+1, fails, lastFails+1)
		}
		lastFails = fails
		if dials != 0 {
			t.Fatalf("phantom successful dial: %d", dials)
		}
	}
	if st := n.Stats(); st.DialFailures != uint64(len(want)) {
		t.Fatalf("Stats().DialFailures = %d, want %d", st.DialFailures, len(want))
	}
}

// TestDialBackoffGateFailsFast pins what happens inside the backoff window:
// streamTo refuses without dialing (errBackoff), Send drops the frame
// without blocking, and the failure counter does NOT advance — the gate is
// not an attempt.
func TestDialBackoffGateFailsFast(t *testing.T) {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	n, err := NewTCPNode(TCPConfig{
		ID:             "a",
		Peers:          map[ring.NodeID]string{"b": deadAddr(t)},
		dialBackoff:    time.Minute, // nothing re-arms during the test
		dialBackoffMax: time.Minute,
		Logf:           func(string, ...any) {},
	}, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	if _, err := n.streamTo("b"); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	_, failsAfterDial, _ := backoffState(n.group("b"))

	if _, err := n.streamTo("b"); err != errBackoff {
		t.Fatalf("streamTo inside backoff window: err = %v, want errBackoff", err)
	}
	dropsBefore := n.Stats().FramesDropped
	start := time.Now()
	n.Send("a", "b", wire.Ping{ID: 1})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("send during backoff took %v — it must drop fast", took)
	}
	if drops := n.Stats().FramesDropped; drops != dropsBefore+1 {
		t.Fatalf("FramesDropped = %d, want %d", drops, dropsBefore+1)
	}
	if _, fails, _ := backoffState(n.group("b")); fails != failsAfterDial {
		t.Fatalf("backoff gate advanced dialFails: %d -> %d", failsAfterDial, fails)
	}
}

// TestDialBackoffResetsOnSuccess grows the backoff against a dead address,
// then brings a real listener up at that address and verifies a successful
// dial resets the schedule to zero so the next failure starts over at
// dialBackoff, not where the last outage left off.
func TestDialBackoffResetsOnSuccess(t *testing.T) {
	rtA, rtB := sim.NewRealRuntime(), sim.NewRealRuntime()
	defer rtA.Stop()
	defer rtB.Stop()
	addr := deadAddr(t)
	a, err := NewTCPNode(TCPConfig{
		ID:             "a",
		Peers:          map[ring.NodeID]string{"b": addr},
		dialBackoff:    10 * time.Millisecond,
		dialBackoffMax: 80 * time.Millisecond,
		Logf:           func(string, ...any) {},
	}, rtA, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	g := a.group("b")
	for i := 0; i < 3; i++ {
		forceRedial(g)
		if _, err := a.streamTo("b"); err == nil {
			t.Fatalf("dial %d to dead address succeeded", i)
		}
	}
	if backoff, _, _ := backoffState(g); backoff != 40*time.Millisecond {
		t.Fatalf("pre-recovery backoff = %v, want 40ms", backoff)
	}

	// The peer comes up at the exact address the failed dials targeted.
	b, err := NewTCPNode(TCPConfig{ID: "b", Listen: addr, Logf: func(string, ...any) {}}, rtB, newSyncCapture())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	forceRedial(g)
	if _, err := a.streamTo("b"); err != nil {
		t.Fatalf("dial to recovered peer: %v", err)
	}
	backoff, fails, dials := backoffState(g)
	if backoff != 0 {
		t.Fatalf("post-recovery backoff = %v, want 0 (reset)", backoff)
	}
	if dials != 1 {
		t.Fatalf("post-recovery dials = %d, want 1", dials)
	}
	if fails != 3 {
		t.Fatalf("dialFails rewrote history: %d, want 3", fails)
	}
	ps := a.PeerStats()
	if len(ps) != 1 || ps[0].Streams == 0 || ps[0].Dials != 1 || ps[0].DialFailures != 3 {
		t.Fatalf("PeerStats = %+v", ps)
	}
}

// TestCloseDuringBackoffReleasesFast: an endpoint closed while a peer sits
// in a long backoff window must tear down promptly, and subsequent sends
// must refuse instead of attempting to dial.
func TestCloseDuringBackoffReleasesFast(t *testing.T) {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	n, err := NewTCPNode(TCPConfig{
		ID:             "a",
		Peers:          map[ring.NodeID]string{"b": deadAddr(t)},
		dialBackoff:    time.Hour,
		dialBackoffMax: time.Hour,
		Logf:           func(string, ...any) {},
	}, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.streamTo("b"); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	start := time.Now()
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("close during backoff took %v", took)
	}
	if _, err := n.streamTo("b"); err != errClosed {
		t.Fatalf("streamTo after close: err = %v, want errClosed", err)
	}
}

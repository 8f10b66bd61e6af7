package transport

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// syncCapture is a concurrency-safe message sink for TCP tests.
type syncCapture struct {
	mu    sync.Mutex
	froms []ring.NodeID
	msgs  []wire.Message
	ch    chan struct{}
}

func newSyncCapture() *syncCapture {
	return &syncCapture{ch: make(chan struct{}, 128)}
}

func (c *syncCapture) Deliver(from ring.NodeID, m wire.Message) {
	c.mu.Lock()
	c.froms = append(c.froms, from)
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *syncCapture) wait(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
}

func (c *syncCapture) snapshot() ([]ring.NodeID, []wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ring.NodeID(nil), c.froms...), append([]wire.Message(nil), c.msgs...)
}

func TestTCPRoundTrip(t *testing.T) {
	rtA, rtB := sim.NewRealRuntime(), sim.NewRealRuntime()
	defer rtA.Stop()
	defer rtB.Stop()
	sinkA, sinkB := newSyncCapture(), newSyncCapture()

	a, err := NewTCPNode(TCPConfig{ID: "a", Listen: "127.0.0.1:0"}, rtA, sinkA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode(TCPConfig{ID: "b", Listen: "127.0.0.1:0"}, rtB, sinkB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr().String())

	want := wire.Mutation{ID: 7, Key: []byte("k"), Value: wire.Value{Data: []byte("v"), Timestamp: 42}}
	a.Send("a", "b", want)
	sinkB.wait(t, 1)
	froms, msgs := sinkB.snapshot()
	if froms[0] != "a" || !reflect.DeepEqual(msgs[0], want) {
		t.Fatalf("got %v from %v", msgs[0], froms[0])
	}

	// Reply over the reverse path without b knowing a's address.
	ack := wire.MutationAck{ID: 7}
	b.Send("b", "a", ack)
	sinkA.wait(t, 1)
	_, amsgs := sinkA.snapshot()
	if !reflect.DeepEqual(amsgs[0], ack) {
		t.Fatalf("reply = %v", amsgs[0])
	}
}

func TestTCPUnknownPeerDropped(t *testing.T) {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	var logged []string
	var mu sync.Mutex
	n, err := NewTCPNode(TCPConfig{ID: "solo", Logf: func(f string, args ...any) {
		mu.Lock()
		logged = append(logged, f)
		mu.Unlock()
	}}, rt, newSyncCapture())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Send("solo", "ghost", wire.Ping{ID: 1}) // must not panic or block
	mu.Lock()
	defer mu.Unlock()
	if len(logged) == 0 {
		t.Fatal("drop not logged")
	}
}

func TestTCPManyMessagesInOrderPerPeer(t *testing.T) {
	rtA, rtB := sim.NewRealRuntime(), sim.NewRealRuntime()
	defer rtA.Stop()
	defer rtB.Stop()
	sinkB := newSyncCapture()
	a, err := NewTCPNode(TCPConfig{ID: "a"}, rtA, newSyncCapture())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode(TCPConfig{ID: "b", Listen: "127.0.0.1:0"}, rtB, sinkB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr().String())

	const count = 200
	for i := 0; i < count; i++ {
		a.Send("a", "b", wire.Ping{ID: uint64(i)})
	}
	sinkB.wait(t, count)
	_, msgs := sinkB.snapshot()
	for i, m := range msgs {
		if got := m.(wire.Ping).ID; got != uint64(i) {
			t.Fatalf("message %d has ID %d; TCP must preserve per-peer order", i, got)
		}
	}
}

func TestTCPCloseStopsAccept(t *testing.T) {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	n, err := NewTCPNode(TCPConfig{ID: "x", Listen: "127.0.0.1:0"}, rt, newSyncCapture())
	if err != nil {
		t.Fatal(err)
	}
	addr := n.Addr().String()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-binding the same address proves the listener is gone.
	n2, err := NewTCPNode(TCPConfig{ID: "y", Listen: addr}, rt, newSyncCapture())
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	n2.Close()
}

// selfSender answers the first message it receives by sending burst
// messages to its own node, and records the order in which they come back.
type selfSender struct {
	node  *TCPNode
	burst int
	got   chan uint64
}

func (s *selfSender) Deliver(from ring.NodeID, m wire.Message) {
	p := m.(wire.Ping)
	if p.ID == 0 {
		for i := 1; i <= s.burst; i++ {
			s.node.Send("a", "a", wire.Ping{ID: uint64(i)})
		}
		return
	}
	s.got <- p.ID
}

// TestTCPSelfSendBurstDoesNotBlockTheMailbox: the loopback fast path runs on
// the node's own mailbox goroutine, so a burst of self-sends larger than the
// mailbox must not wait for room in it — nobody else drains it.
func TestTCPSelfSendBurstDoesNotBlockTheMailbox(t *testing.T) {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	const burst = 5000
	h := &selfSender{burst: burst, got: make(chan uint64, burst)}
	n, err := NewTCPNode(TCPConfig{ID: "a"}, rt, h)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h.node = n
	n.Send("a", "a", wire.Ping{ID: 0})
	for want := uint64(1); want <= burst; want++ {
		select {
		case id := <-h.got:
			if id != want {
				t.Fatalf("self-send %d delivered where %d was due", id, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("delivered %d of %d self-sends", want-1, burst)
		}
	}
}

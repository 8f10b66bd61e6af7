package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// TestTCPConcurrentSendersPooled hammers one pooled peer from many
// goroutines (run under -race): every frame must arrive exactly once, and
// the pool must open no more than the configured number of dialed streams.
func TestTCPConcurrentSendersPooled(t *testing.T) {
	rtA, rtB := sim.NewRealRuntime(), sim.NewRealRuntime()
	defer rtA.Stop()
	defer rtB.Stop()

	const senders, perSender = 16, 250
	total := senders * perSender
	got := make(map[uint64]bool, total)
	var mu sync.Mutex
	done := make(chan struct{})
	sink := HandlerFunc(func(from ring.NodeID, m wire.Message) {
		mu.Lock()
		defer mu.Unlock()
		id := m.(wire.Mutation).ID
		if got[id] {
			t.Errorf("duplicate delivery of frame %d", id)
		}
		got[id] = true
		if len(got) == total {
			close(done)
		}
	})

	b, err := NewTCPNode(TCPConfig{ID: "b", Listen: "127.0.0.1:0"}, rtB, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCPNode(TCPConfig{
		ID:      "a",
		Peers:   map[ring.NodeID]string{"b": b.Addr().String()},
		Streams: 4,
		// Large enough that backpressure never drops test frames.
		MaxPending: 64 << 20,
	}, rtA, newSyncCapture())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id := uint64(s*perSender + i)
				a.Send("a", "b", wire.Mutation{ID: id, Key: []byte("k"),
					Value: wire.Value{Data: []byte("v"), Timestamp: int64(id)}})
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d/%d frames", len(got), total)
	}
	if d := a.Stats().Dials; d > 4 {
		t.Fatalf("dialed %d streams to one peer, configured 4", d)
	}
}

// TestTCPRedialAfterPeerRestart is the cached-connection poisoning fix: a
// peer dies (its process restarts on the same address) and subsequent sends
// must tear down the dead cached connection and redial instead of failing
// against it forever.
func TestTCPRedialAfterPeerRestart(t *testing.T) {
	rtA, rtB := sim.NewRealRuntime(), sim.NewRealRuntime()
	defer rtA.Stop()
	defer rtB.Stop()

	sinkB := newSyncCapture()
	b, err := NewTCPNode(TCPConfig{ID: "b", Listen: "127.0.0.1:0"}, rtB, sinkB)
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr().String()
	a, err := NewTCPNode(TCPConfig{
		ID:          "a",
		Peers:       map[ring.NodeID]string{"b": addr},
		DialBackoff: 5 * time.Millisecond,
	}, rtA, newSyncCapture())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send("a", "b", wire.Ping{ID: 1})
	sinkB.wait(t, 1)
	b.Close() // the peer "crashes": the cached connection is now poisoned

	// Restart on the same address (Go listeners set SO_REUSEADDR).
	rtB2 := sim.NewRealRuntime()
	defer rtB2.Stop()
	sinkB2 := newSyncCapture()
	b2, err := NewTCPNode(TCPConfig{ID: "b", Listen: addr}, rtB2, sinkB2)
	if err != nil {
		t.Fatalf("restart listener: %v", err)
	}
	defer b2.Close()

	// Sends must start landing again: the first may be eaten by the dead
	// stream's write error, after which the transport redials.
	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for i := uint64(2); ; i++ {
		a.Send("a", "b", wire.Ping{ID: i})
		select {
		case <-sinkB2.ch:
			return // delivered over a fresh connection
		case <-deadline:
			t.Fatal("transport never recovered from peer restart")
		case <-tick.C:
		}
	}
}

// TestTCPAliasingContractRetainedValues proves no frame buffer is recycled
// while a decoded message is still live: handlers retain every delivered
// mutation's value bytes — exactly what the storage engine does — while
// thousands of frames churn the buffer pool underneath. Without
// copy-on-escape promotion (or with premature recycling) retained values
// would be overwritten by later frames.
func TestTCPAliasingContractRetainedValues(t *testing.T) {
	rtA, rtB := sim.NewRealRuntime(), sim.NewRealRuntime()
	defer rtA.Stop()
	defer rtB.Stop()

	const frames = 2000
	pattern := func(id uint64) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%08d", id)), 8) // 64 bytes
	}
	retained := make([][]byte, 0, frames)
	keys := make([]string, 0, frames)
	done := make(chan struct{})
	sink := HandlerFunc(func(from ring.NodeID, m wire.Message) {
		mut := m.(wire.Mutation)
		// Value bytes escape as-is (the engine stores the slice); keys are
		// interned via string conversion — exactly the retention pattern of
		// the real apply path, and the split the promotion table encodes.
		retained = append(retained, mut.Value.Data)
		keys = append(keys, string(mut.Key))
		if len(retained) == frames {
			close(done)
		}
	})

	b, err := NewTCPNode(TCPConfig{ID: "b", Listen: "127.0.0.1:0"}, rtB, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCPNode(TCPConfig{
		ID:         "a",
		Peers:      map[ring.NodeID]string{"b": b.Addr().String()},
		MaxPending: 64 << 20,
	}, rtA, newSyncCapture())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	for i := uint64(0); i < frames; i++ {
		a.Send("a", "b", wire.Mutation{ID: i, Key: []byte(fmt.Sprintf("key-%d", i)),
			Value: wire.Value{Data: pattern(i), Timestamp: int64(i)}})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d/%d frames", len(retained), frames)
	}
	for i, v := range retained {
		if want := pattern(uint64(i)); !bytes.Equal(v, want) {
			t.Fatalf("retained value %d corrupted by buffer recycling: got %q", i, v)
		}
		if want := fmt.Sprintf("key-%d", i); keys[i] != want {
			t.Fatalf("retained key %d corrupted: got %q want %q", i, keys[i], want)
		}
	}
}

// TestPromoteCopiesEscapingFields checks promotion semantics directly:
// escaping byte fields come back as owned copies, non-escaping kinds pass
// through aliasing the original frame (that is what keeps them 1-alloc).
func TestPromoteCopiesEscapingFields(t *testing.T) {
	val := []byte("value-bytes")
	key := []byte("key-bytes")
	m := promote(wire.Mutation{ID: 1, Key: key, Value: wire.Value{Data: val}}).(wire.Mutation)
	if !bytes.Equal(m.Value.Data, val) {
		t.Fatal("promoted value changed contents")
	}
	val[0] = 'X'
	if m.Value.Data[0] == 'X' {
		t.Fatal("Mutation.Value.Data still aliases the frame after promotion")
	}
	if m.Key[0] != 'k' {
		t.Fatal("Mutation.Key should pass through (engine interns keys)")
	}
	key[0] = 'X'
	if m.Key[0] != 'X' {
		t.Fatal("Mutation.Key unexpectedly copied; promotion should leave it shared")
	}

	rr := promote(wire.ReplicaRead{ID: 2, Key: key}).(wire.ReplicaRead)
	if &rr.Key[0] != &key[0] {
		t.Fatal("non-escaping ReplicaRead must not be copied")
	}

	frameKey := []byte("hot")
	sr := promote(wire.StatsResponse{KeySamples: []wire.KeySample{{Key: frameKey, Reads: 1}}}).(wire.StatsResponse)
	frameKey[0] = 'X' // the frame buffer is recycled under the retained sample
	if sr.KeySamples[0].Key[0] == 'X' {
		t.Fatal("StatsResponse.KeySamples keys must be promoted")
	}
}

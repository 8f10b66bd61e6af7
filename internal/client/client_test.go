package client

import (
	"errors"
	"slices"
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// fakeCoordinator records requests and lets tests script responses.
type fakeCoordinator struct {
	bus      *transport.Loopback
	id       ring.NodeID
	requests []wire.Message
	// respond maps request IDs to canned replies sent synchronously.
	respond func(m wire.Message) wire.Message
}

func (f *fakeCoordinator) Deliver(from ring.NodeID, m wire.Message) {
	f.requests = append(f.requests, m)
	if f.respond != nil {
		if reply := f.respond(m); reply != nil {
			f.bus.Send(f.id, from, reply)
		}
	}
}

func newFixture(t *testing.T, respond func(wire.Message) wire.Message) (*sim.Sim, *Driver, *fakeCoordinator) {
	t.Helper()
	s := sim.New(1)
	bus := transport.NewLoopback()
	co := &fakeCoordinator{bus: bus, id: "coord", respond: respond}
	bus.Register("coord", co)
	drv, err := New(Options{ID: "cl", Coordinators: []ring.NodeID{"coord"}, Timeout: 100 * time.Millisecond}, s, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("cl", drv)
	return s, drv, co
}

func TestDriverValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := New(Options{ID: "x"}, s, transport.NewLoopback()); err == nil {
		t.Fatal("no coordinators accepted")
	}
}

func TestReadSuccess(t *testing.T) {
	s, drv, _ := newFixture(t, func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		return wire.ReadResponse{ID: req.ID, Found: true, Value: wire.Value{Data: []byte("v"), Timestamp: 9}, Achieved: wire.Quorum}
	})
	var got ReadResult
	drv.ReadAt([]byte("k"), wire.Quorum, func(r ReadResult) { got = r })
	s.RunUntilIdle(100)
	if got.Err != nil || !got.Found || string(got.Value) != "v" || got.Ts != 9 || got.Achieved != wire.Quorum {
		t.Fatalf("read = %+v", got)
	}
	if drv.Pending() != 0 {
		t.Fatal("pending leaked")
	}
}

func TestWriteAndDelete(t *testing.T) {
	var sawDelete bool
	s, drv, _ := newFixture(t, func(m wire.Message) wire.Message {
		req := m.(wire.WriteRequest)
		if req.Delete {
			sawDelete = true
		}
		return wire.WriteResponse{ID: req.ID, OK: true, Timestamp: 77}
	})
	var got WriteResult
	drv.Write([]byte("k"), []byte("v"), func(r WriteResult) { got = r })
	s.RunUntilIdle(100)
	if got.Err != nil || got.Ts != 77 {
		t.Fatalf("write = %+v", got)
	}
	drv.Delete([]byte("k"), func(WriteResult) {})
	s.RunUntilIdle(100)
	if !sawDelete {
		t.Fatal("delete flag not sent")
	}
}

func TestTimeoutWhenNoReply(t *testing.T) {
	s, drv, _ := newFixture(t, nil) // coordinator never answers
	var got ReadResult
	drv.ReadAt([]byte("k"), wire.One, func(r ReadResult) { got = r })
	s.RunUntilIdle(100)
	if !errors.Is(got.Err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", got.Err)
	}
	if drv.Pending() != 0 {
		t.Fatal("pending leaked after timeout")
	}
}

func TestServerErrorMapping(t *testing.T) {
	s, drv, _ := newFixture(t, func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		return wire.Error{ID: req.ID, Code: wire.ErrUnavailable, Msg: "no replicas"}
	})
	var got ReadResult
	drv.ReadAt([]byte("k"), wire.One, func(r ReadResult) { got = r })
	s.RunUntilIdle(100)
	if !errors.Is(got.Err, ErrUnavailable) {
		t.Fatalf("err = %v, want unavailable", got.Err)
	}
}

func TestPolicyConsulted(t *testing.T) {
	var levels []wire.ConsistencyLevel
	s := sim.New(1)
	bus := transport.NewLoopback()
	co := &fakeCoordinator{bus: bus, id: "coord"}
	co.respond = func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		levels = append(levels, req.Level)
		return wire.ReadResponse{ID: req.ID}
	}
	bus.Register("coord", co)
	lvl := wire.One
	src := policyFunc(func([]byte) (wire.ConsistencyLevel, wire.ConsistencyLevel) { return lvl, wire.One })
	drv, err := New(Options{ID: "cl", Coordinators: []ring.NodeID{"coord"}, Policy: src}, s, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("cl", drv)
	drv.Read([]byte("k"), func(ReadResult) {})
	lvl = wire.Quorum // the adaptive controller raised the level
	drv.Read([]byte("k"), func(ReadResult) {})
	s.RunUntilIdle(100)
	if len(levels) != 2 || levels[0] != wire.One || levels[1] != wire.Quorum {
		t.Fatalf("levels = %v", levels)
	}
}

type policyFunc func(key []byte) (read, write wire.ConsistencyLevel)

func (f policyFunc) LevelsFor(key []byte) (read, write wire.ConsistencyLevel) { return f(key) }

func TestShadowSampling(t *testing.T) {
	var shadows []bool
	s := sim.New(1)
	bus := transport.NewLoopback()
	co := &fakeCoordinator{bus: bus, id: "coord"}
	co.respond = func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		shadows = append(shadows, req.Shadow)
		return wire.ReadResponse{ID: req.ID}
	}
	bus.Register("coord", co)
	drv, err := New(Options{ID: "cl", Coordinators: []ring.NodeID{"coord"}, ShadowEvery: 3}, s, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("cl", drv)
	for i := 0; i < 9; i++ {
		drv.Read([]byte("k"), func(ReadResult) {})
	}
	s.RunUntilIdle(1000)
	count := 0
	for _, sh := range shadows {
		if sh {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("shadow count = %d of 9 with ShadowEvery=3", count)
	}
}

func TestRoundRobinCoordinators(t *testing.T) {
	s := sim.New(1)
	bus := transport.NewLoopback()
	var hits []ring.NodeID
	for _, id := range []ring.NodeID{"c1", "c2", "c3"} {
		id := id
		bus.Register(id, transport.HandlerFunc(func(from ring.NodeID, m wire.Message) {
			hits = append(hits, id)
		}))
	}
	drv, err := New(Options{ID: "cl", Coordinators: []ring.NodeID{"c1", "c2", "c3"}, Timeout: time.Millisecond}, s, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("cl", drv)
	for i := 0; i < 6; i++ {
		drv.Read([]byte("k"), func(ReadResult) {})
	}
	s.RunUntilIdle(1000)
	want := []ring.NodeID{"c1", "c2", "c3", "c1", "c2", "c3"}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("round robin order = %v", hits)
		}
	}
}

func TestVerifyRead(t *testing.T) {
	// First (primary) read returns ts=5; strong read returns ts=9 -> stale.
	call := 0
	s, drv, _ := newFixture(t, func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		call++
		ts := int64(5)
		if req.Level == wire.All {
			ts = 9
		}
		return wire.ReadResponse{ID: req.ID, Found: true, Value: wire.Value{Data: []byte("v"), Timestamp: ts}}
	})
	var stale bool
	var primary ReadResult
	drv.VerifyRead([]byte("k"), func(p ReadResult, st bool) { primary = p; stale = st })
	s.RunUntilIdle(100)
	if call != 2 {
		t.Fatalf("verify issued %d reads, want 2", call)
	}
	if primary.Ts != 5 || !stale {
		t.Fatalf("primary=%+v stale=%v, want stale", primary, stale)
	}
}

func TestVerifyReadFresh(t *testing.T) {
	s, drv, _ := newFixture(t, func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		return wire.ReadResponse{ID: req.ID, Found: true, Value: wire.Value{Timestamp: 9}}
	})
	var stale bool
	drv.VerifyRead([]byte("k"), func(_ ReadResult, st bool) { stale = st })
	s.RunUntilIdle(100)
	if stale {
		t.Fatal("equal timestamps flagged stale")
	}
}

// TestVerifyReadIgnoresVersionsStampedAfterIssue: the ALL leg surfaces a
// version stamped after the primary read was issued, a concurrent write the
// reader could not have seen, so the read is not stale.
func TestVerifyReadIgnoresVersionsStampedAfterIssue(t *testing.T) {
	var s *sim.Sim
	s, drv, _ := newFixture(t, func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		ts := int64(5)
		if req.Level == wire.All {
			ts = s.Now().UnixNano() + 1
		}
		return wire.ReadResponse{ID: req.ID, Found: true, Value: wire.Value{Timestamp: ts}}
	})
	stale, done := true, false
	drv.VerifyRead([]byte("k"), func(_ ReadResult, st bool) { stale, done = st, true })
	s.RunUntilIdle(100)
	if !done || stale {
		t.Fatalf("done=%v stale=%v: a version stamped after issue counted as stale", done, stale)
	}
}

// TestSessionTokenIsWatermark: a Session's token for a key range is the
// highest timestamp it has written or read there, sent only on reads at
// wire.Session, and a read answering below the key's watermark counts as a
// regression.
func TestSessionTokenIsWatermark(t *testing.T) {
	readTs := int64(0)
	var tokens []int64
	s, drv, _ := newFixture(t, func(m wire.Message) wire.Message {
		switch req := m.(type) {
		case wire.WriteRequest:
			return wire.WriteResponse{ID: req.ID, OK: true, Timestamp: 100}
		case wire.ReadRequest:
			tokens = append(tokens, req.Token)
			return wire.ReadResponse{ID: req.ID, Found: true, Value: wire.Value{Timestamp: readTs}}
		}
		return nil
	})
	sess := NewSession(drv)
	key := []byte("k")
	read := func(level wire.ConsistencyLevel, ts int64) {
		readTs = ts
		sess.ReadAt(key, level, func(ReadResult) {})
		s.RunUntilIdle(100)
	}
	read(wire.Session, 40) // nothing seen yet: token 0
	sess.Write(key, []byte("v"), func(WriteResult) {})
	s.RunUntilIdle(100)
	read(wire.Session, 100) // the write raised the token to 100
	read(wire.One, 150)     // ONE carries no token; the read raises it to 150
	read(wire.Session, 120) // below the 150 watermark: a regression
	if want := []int64{0, 100, 0, 150}; !slices.Equal(tokens, want) {
		t.Fatalf("tokens sent %v, want %v", tokens, want)
	}
	if sess.Regressions() != 1 {
		t.Fatalf("regressions = %d, want 1", sess.Regressions())
	}
}

func TestPerKeyPolicyChoosesLevels(t *testing.T) {
	var got []wire.ConsistencyLevel
	s := sim.New(1)
	bus := transport.NewLoopback()
	co := &fakeCoordinator{bus: bus, id: "coord"}
	co.respond = func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		got = append(got, req.Level)
		return wire.ReadResponse{ID: req.ID}
	}
	bus.Register("coord", co)
	drv, err := New(Options{
		ID:           "cl",
		Coordinators: []ring.NodeID{"coord"},
		Policy: policyFunc(func(key []byte) (wire.ConsistencyLevel, wire.ConsistencyLevel) {
			if string(key) == "hot" {
				return wire.All, wire.One // the hot category demands ALL
			}
			return wire.One, wire.One
		}),
	}, s, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("cl", drv)
	drv.Read([]byte("hot"), func(ReadResult) {})
	drv.Read([]byte("cold"), func(ReadResult) {})
	s.RunUntilIdle(100)
	if len(got) != 2 || got[0] != wire.All || got[1] != wire.One {
		t.Fatalf("levels = %v, want [ALL ONE]", got)
	}
	// Explicit ReadAt bypasses the policy.
	drv.ReadAt([]byte("hot"), wire.Two, func(ReadResult) {})
	s.RunUntilIdle(100)
	if got[2] != wire.Two {
		t.Fatalf("explicit level = %v", got[2])
	}
}

// TestPolicyConsistentAcrossEpochSwap pins the driver half of the
// regrouping contract: levels are resolved from the ConsistencyPolicy at
// issue time, per operation, with nothing cached — so when the policy's
// grouping swaps to a new epoch between two reads, the second read
// immediately sees the new epoch's level for its key.
func TestPolicyConsistentAcrossEpochSwap(t *testing.T) {
	var got []wire.ConsistencyLevel
	s := sim.New(1)
	bus := transport.NewLoopback()
	co := &fakeCoordinator{bus: bus, id: "coord"}
	co.respond = func(m wire.Message) wire.Message {
		req := m.(wire.ReadRequest)
		got = append(got, req.Level)
		return wire.ReadResponse{ID: req.ID}
	}
	bus.Register("coord", co)
	// An epoch-swappable source: before the swap key "k" is cold (ONE),
	// after it the same key is classified hot (QUORUM).
	epoch := 0
	src := policyFunc(func(key []byte) (wire.ConsistencyLevel, wire.ConsistencyLevel) {
		if epoch >= 1 && string(key) == "k" {
			return wire.Quorum, wire.One
		}
		return wire.One, wire.One
	})
	drv, err := New(Options{ID: "cl", Coordinators: []ring.NodeID{"coord"}, Policy: src}, s, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("cl", drv)
	drv.Read([]byte("k"), func(ReadResult) {})
	s.RunUntilIdle(100)
	epoch = 1 // the regrouping subsystem swapped assignments
	drv.Read([]byte("k"), func(ReadResult) {})
	drv.Read([]byte("other"), func(ReadResult) {})
	s.RunUntilIdle(100)
	if len(got) != 3 || got[0] != wire.One || got[1] != wire.Quorum || got[2] != wire.One {
		t.Fatalf("levels = %v, want [ONE QUORUM ONE] across the epoch swap", got)
	}
}

// keyedWriteLevels ships writes of keys with an "h" prefix at QUORUM.
type keyedWriteLevels struct{}

func (keyedWriteLevels) LevelsFor(key []byte) (read, write wire.ConsistencyLevel) {
	if len(key) > 0 && key[0] == 'h' {
		return wire.One, wire.Quorum
	}
	return wire.One, wire.One
}

func TestPolicyChoosesPerKeyWriteLevel(t *testing.T) {
	s := sim.New(1)
	bus := transport.NewLoopback()
	co := &fakeCoordinator{bus: bus, id: "coord", respond: func(m wire.Message) wire.Message {
		req := m.(wire.WriteRequest)
		return wire.WriteResponse{ID: req.ID, OK: true, Timestamp: 1}
	}}
	bus.Register("coord", co)
	drv, err := New(Options{
		ID:           "cl",
		Coordinators: []ring.NodeID{"coord"},
		Policy:       keyedWriteLevels{},
		Timeout:      100 * time.Millisecond,
	}, s, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("cl", drv)
	drv.Write([]byte("hot1"), []byte("v"), func(WriteResult) {})
	drv.Write([]byte("cold1"), []byte("v"), func(WriteResult) {})
	s.RunUntilIdle(100)
	if len(co.requests) != 2 {
		t.Fatalf("coordinator saw %d requests, want 2", len(co.requests))
	}
	if lvl := co.requests[0].(wire.WriteRequest).Level; lvl != wire.Quorum {
		t.Fatalf("hot write shipped at %v, want QUORUM", lvl)
	}
	if lvl := co.requests[1].(wire.WriteRequest).Level; lvl != wire.One {
		t.Fatalf("cold write shipped at %v, want ONE", lvl)
	}
}

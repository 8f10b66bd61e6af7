package cluster

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/storage"
	"harmony/internal/wire"
)

// Node-level contract of the asynchronous durable apply: a member with a
// group-commit engine keeps serving its mailbox while a fsync round runs,
// and a MutationAck leaves only once the round covering its ticket has
// completed. The tests hold rounds at storage's fsync seam (package-wide, so
// they do not run in parallel) on a real engine in t.TempDir() under a
// RealRuntime, and read what the node sends off a recording Sender.

type sent struct {
	to ring.NodeID
	m  wire.Message
}

type recorder chan sent

func (r recorder) Send(_, to ring.NodeID, m wire.Message) { r <- sent{to, m} }

// next returns the node's next send.
func (r recorder) next(t *testing.T) sent {
	t.Helper()
	select {
	case s := <-r:
		return s
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the node to send")
		return sent{}
	}
}

// quiet fails the test if the node sends anything within a grace period.
func (r recorder) quiet(t *testing.T, why string) {
	t.Helper()
	select {
	case s := <-r:
		t.Fatalf("node sent %T%+v to %s %s", s.m, s.m, s.to, why)
	case <-time.After(30 * time.Millisecond):
	}
}

// roundGate holds every fsync round until release lets one through.
type roundGate struct {
	entered chan struct{} // a token per round that reached the seam
	mu      sync.Mutex
	cond    *sync.Cond
	open    bool
	allow   int
	fail    error
}

func holdRounds(t *testing.T) *roundGate {
	t.Helper()
	g := &roundGate{entered: make(chan struct{}, 64)} // more rounds than any test here runs
	g.cond = sync.NewCond(&g.mu)
	t.Cleanup(storage.SetFsyncForTest(func(f *os.File) error {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		g.mu.Lock()
		for !g.open && g.allow == 0 {
			g.cond.Wait()
		}
		if !g.open {
			g.allow--
		}
		fail := g.fail
		g.mu.Unlock()
		if fail != nil {
			return fail
		}
		return f.Sync()
	}))
	return g
}

func (g *roundGate) release() {
	g.mu.Lock()
	g.allow++
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *roundGate) openAll() {
	g.mu.Lock()
	g.open = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *roundGate) awaitRound(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a fsync round to start")
	}
}

type durableNode struct {
	*Node
	rt  *sim.RealRuntime
	out recorder
}

// newDurableNode starts a one-member node on a group-commit engine.
func newDurableNode(t *testing.T) *durableNode {
	t.Helper()
	topo, err := ring.NewTopology([]ring.NodeInfo{{ID: "n1", DC: "dc1", Rack: "r1"}})
	if err != nil {
		t.Fatal(err)
	}
	rng, err := ring.Build(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := &durableNode{rt: sim.NewRealRuntime(), out: make(recorder, 256)} // above the sends any test here causes
	d.Node = New(Config{
		ID:       "n1",
		Ring:     rng,
		Strategy: ring.SimpleStrategy{RF: 1},
		Engine:   storage.Options{Persist: &storage.PersistOptions{Path: t.TempDir()}},
	}, d.rt, d.out)
	return d
}

// deliver hands the node a message on its mailbox.
func (d *durableNode) deliver(from ring.NodeID, m wire.Message) {
	d.rt.Post(func() { d.Deliver(from, m) })
}

// settle returns once the mailbox has run everything posted before it.
func (d *durableNode) settle() {
	done := make(chan struct{})
	d.rt.Post(func() { close(done) })
	<-done
}

func (d *durableNode) close(g *roundGate) {
	g.openAll()
	d.Stop()
	d.rt.Stop()
}

func mutation(id uint64, key string, ts int64) wire.Mutation {
	return wire.Mutation{ID: id, Key: []byte(key), Value: wire.Value{Data: []byte("v-" + key), Timestamp: ts}}
}

func wantAck(t *testing.T, s sent, to ring.NodeID, id uint64) {
	t.Helper()
	if ack, ok := s.m.(wire.MutationAck); !ok || ack.ID != id || s.to != to {
		t.Fatalf("node sent %T%+v to %s, want MutationAck{ID:%d} to %s", s.m, s.m, s.to, id, to)
	}
}

// TestDurableReadServedDuringStalledRound: the mailbox is not asleep in the
// fsync — a replica read is answered, with the appended version, while the
// write's round is still running, and the write's ack waits for the round.
func TestDurableReadServedDuringStalledRound(t *testing.T) {
	g := holdRounds(t)
	d := newDurableNode(t)
	defer d.close(g)

	d.deliver("c1", mutation(1, "k", 100))
	g.awaitRound(t)
	d.deliver("c2", wire.ReplicaRead{ID: 7, Key: []byte("k")})
	resp, ok := d.out.next(t).m.(wire.ReplicaReadResp)
	if !ok || resp.ID != 7 || !resp.Found || resp.Value.Timestamp != 100 {
		t.Fatalf("during the stalled round the node sent %+v, want the read answered with the appended version", resp)
	}
	d.out.quiet(t, "while the write's fsync round is stalled")
	g.release()
	wantAck(t, d.out.next(t), "c1", 1)
}

// TestDurableAcksLeaveInTicketOrder: a round acknowledges exactly the
// tickets issued before it began, acks leave in arrival order, a replay
// rejected in favour of an unsynced version waits with it, and an ack that
// needs no wait still queues behind those that do.
func TestDurableAcksLeaveInTicketOrder(t *testing.T) {
	g := holdRounds(t)
	d := newDurableNode(t)
	defer d.close(g)

	d.deliver("c1", mutation(1, "a", 100))
	g.awaitRound(t) // round 1 covers ticket 1 only
	d.deliver("c1", mutation(2, "b", 100))
	d.deliver("c2", mutation(3, "c", 100))
	d.deliver("c3", mutation(4, "c", 100)) // replay of 3: rejected, waits for 3's round
	d.deliver("c1", mutation(5, "d", 100))
	d.settle()
	d.out.quiet(t, "before any round completed")
	g.release()
	wantAck(t, d.out.next(t), "c1", 1)
	g.awaitRound(t)
	d.out.quiet(t, "for tickets above round 1's watermark")

	// Hold the mailbox, let round 2 complete behind it and queue a replay of
	// the now-durable mutation 1 ahead of the round's drain: it gets ticket
	// 0 with acks 2..5 still queued, and must leave after them.
	held, resume := make(chan struct{}), make(chan struct{})
	d.rt.Post(func() { close(held); <-resume })
	<-held
	d.deliver("c4", mutation(6, "a", 100))
	g.release()
	if err := d.Engine().Sync(); err != nil { // returns once round 2 has finished and posted its drain
		t.Fatal(err)
	}
	close(resume)
	for _, want := range []struct {
		to ring.NodeID
		id uint64
	}{{"c1", 2}, {"c2", 3}, {"c3", 4}, {"c1", 5}, {"c4", 6}} {
		wantAck(t, d.out.next(t), want.to, want.id)
	}
}

// TestDurableFsyncErrorAcksNothing: a failed round acknowledges nothing, and
// neither does anything after it; coordinators time out.
func TestDurableFsyncErrorAcksNothing(t *testing.T) {
	g := holdRounds(t)
	d := newDurableNode(t)
	defer d.close(g)

	d.deliver("c1", mutation(1, "a", 100))
	g.awaitRound(t)
	d.deliver("c1", mutation(2, "b", 100))
	d.settle()
	g.mu.Lock()
	g.fail = errors.New("injected fsync failure")
	g.mu.Unlock()
	g.release()
	if err := d.Engine().WaitDurable(1); err == nil {
		t.Fatal("the round with the injected failure succeeded")
	}
	d.deliver("c1", mutation(3, "c", 100))
	d.deliver("c1", mutation(4, "a", 100)) // a replay: rejected, and still not acknowledged
	d.settle()
	d.out.quiet(t, "after a failed fsync")
}

// TestDurableStopWithAcksQueued: stopping a node with acks waiting for a
// round sends none of them and leaves no goroutine behind.
func TestDurableStopWithAcksQueued(t *testing.T) {
	before := runtime.NumGoroutine()
	g := holdRounds(t)
	d := newDurableNode(t)

	d.deliver("c1", mutation(1, "a", 100))
	g.awaitRound(t)
	d.deliver("c1", mutation(2, "b", 100))
	d.settle()
	// Stop on the mailbox: whatever the released round posts runs after it.
	stopped := make(chan struct{})
	d.rt.Post(func() { d.Stop(); close(stopped) })
	g.openAll()
	<-stopped
	d.settle()
	d.out.quiet(t, "after Stop")
	d.rt.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the node, %d after Stop", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

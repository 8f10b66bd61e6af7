// Package transport connects protocol actors to each other. It defines the
// asynchronous Send/Deliver contract the store is written against and
// provides two in-memory backends: a discrete-event one (virtual time via
// sim.Sim) and a real-time one (goroutine mailboxes plus wall-clock timers).
// The TCP backend for live deployments lives in tcp.go.
package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/simnet"
	"harmony/internal/wire"
)

// Handler consumes messages delivered to an endpoint. Deliver is always
// invoked on the endpoint's runtime (serialized per endpoint).
type Handler interface {
	Deliver(from ring.NodeID, m wire.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from ring.NodeID, m wire.Message)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(from ring.NodeID, m wire.Message) { f(from, m) }

// Sender sends messages to named endpoints. Sends are asynchronous and may
// be silently dropped when the destination is unknown or partitioned —
// exactly the failure mode a UDP-like or timed-out link presents; protocol
// code must rely on its own timeouts.
type Sender interface {
	Send(from, to ring.NodeID, m wire.Message)
}

// Bus is an in-memory message fabric: endpoints register a handler plus the
// runtime on which their callbacks must execute; Send asks the fault plane
// for the message's link, draws its delay from the simulated network and
// schedules Deliver on the target's runtime. One Bus instance serves both
// the DES and the real-time mode — the difference is which Runtime
// implementations are registered.
type Bus struct {
	mu    sync.Mutex // guards the endpoints, the free records and net's rng
	net   *simnet.Net
	plane *faults.Plane
	// endpoints holds one entry per ID ever registered or sent from.
	// unregister clears the entry's registered flag instead of deleting it,
	// so a message in flight keeps a pointer it can re-check at delivery
	// without a second map lookup.
	endpoints map[ring.NodeID]*busEndpoint
	free      []*delivery // records between messages
	dropped   atomic.Uint64
	delivered atomic.Uint64
}

type busEndpoint struct {
	registered bool
	link       int // dense index in the fault plane
	h          Handler
	schedule   func(time.Duration, func())
}

// scheduler returns rt's cheapest way to run a callback after a delay with
// no means of cancelling it: the simulator's allocation-free Schedule when
// rt is one, After with the handle dropped on any other runtime.
func scheduler(rt sim.Runtime) func(time.Duration, func()) {
	if s, ok := rt.(*sim.Sim); ok {
		return s.Schedule
	}
	return func(d time.Duration, fn func()) { rt.After(d, fn) }
}

// NewBus creates a bus over the given simulated network whose every message
// crosses plane.
func NewBus(net *simnet.Net, plane *faults.Plane) *Bus {
	return &Bus{net: net, plane: plane, endpoints: make(map[ring.NodeID]*busEndpoint)}
}

// Register attaches an endpoint. Re-registering an ID replaces the previous
// handler (used when a node restarts).
func (b *Bus) Register(id ring.NodeID, rt sim.Runtime, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep := b.endpointLocked(id)
	ep.registered, ep.h, ep.schedule = true, h, scheduler(rt)
}

// endpointLocked returns id's entry, giving it a link in the fault plane on
// first sight (priced by the network, on its colocation host's links).
func (b *Bus) endpointLocked(id ring.NodeID) *busEndpoint {
	ep := b.endpoints[id]
	if ep == nil {
		ep = &busEndpoint{link: b.plane.Add(id, b.net.Host(id), b.net.Class)}
		b.endpoints[id] = ep
	}
	return ep
}

// unregister detaches an endpoint; in-flight messages to it are dropped.
func (b *Bus) unregister(id ring.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ep := b.endpoints[id]; ep != nil {
		ep.registered = false
	}
}

// Send implements Sender. The message is delivered after the network delay
// plus whatever its link's fault rule injects, or dropped when the link is
// cut, a rule drops it, or the target is unknown.
func (b *Bus) Send(from, to ring.NodeID, m wire.Message) {
	b.mu.Lock()
	ep := b.endpoints[to]
	if ep == nil || !ep.registered {
		b.mu.Unlock()
		b.dropped.Add(1)
		return
	}
	r := b.plane.Route(b.endpointLocked(from).link, ep.link)
	if r.Blocked {
		b.mu.Unlock()
		b.dropped.Add(1)
		return
	}
	size := wire.Size(m)
	d := b.recordLocked(ep, from, m)
	delay := b.net.Delay(r.Class, size) + r.Delay
	var dup *delivery
	var dupDelay time.Duration
	if r.Copy {
		dup = b.recordLocked(ep, from, m)
		dupDelay = b.net.Delay(r.Class, size) + r.CopyDelay
	}
	schedule := ep.schedule
	b.mu.Unlock()
	b.delivered.Add(1)
	schedule(delay, d.fire)
	if dup != nil {
		b.delivered.Add(1)
		schedule(dupDelay, dup.fire)
	}
}

// recordLocked takes a free delivery record and loads it with one message
// bound for ep's current handler.
func (b *Bus) recordLocked(ep *busEndpoint, from ring.NodeID, m wire.Message) *delivery {
	var d *delivery
	if n := len(b.free); n > 0 {
		d, b.free = b.free[n-1], b.free[:n-1]
	} else {
		d = newDelivery(b)
	}
	d.ep, d.h, d.from, d.m = ep, ep.h, from, m
	return d
}

// arrive ends a message's network hop on the target's runtime.
func (b *Bus) arrive(d *delivery) {
	// Re-check registration at delivery time: the node may have stopped
	// (or restarted behind a different handler) while the message was in
	// flight.
	b.mu.Lock()
	ok := d.ep.registered && d.ep.h == d.h
	b.mu.Unlock()
	if !ok {
		d.release()
		return
	}
	if q, isQueue := d.h.(*ServiceQueue); isQueue {
		q.enqueue(d) // the same record carries the message through the queue
		return
	}
	d.deliverTo(d.h)
}

// Stats reports delivered and dropped message counts.
func (b *Bus) Stats() (delivered, dropped uint64) {
	return b.delivered.Load(), b.dropped.Load()
}

// delivery is one simulated message on its way to a handler: first across
// the Bus's network-delay hop, then — when the endpoint is a ServiceQueue —
// through the queue's service-time hop. The two hops stay two scheduled
// events, but they share this one record, and a bus recycles its records, so
// a message in steady state costs no allocation in the fabric.
type delivery struct {
	bus  *Bus // owner of the record; nil for one a ServiceQueue made itself
	ep   *busEndpoint
	h    Handler // the endpoint's handler when the message was sent
	q    *ServiceQueue
	from ring.NodeID
	m    wire.Message
	// fire is d.run bound once, when the record is made, so that scheduling
	// a recycled record allocates no closure.
	fire func()
}

func newDelivery(owner *Bus) *delivery {
	d := &delivery{bus: owner}
	d.fire = d.run
	return d
}

// deliverTo ends the record's journey: it is recycled first (the handler may
// well send, and reuse it) and its message handed to h.
func (d *delivery) deliverTo(h Handler) {
	from, m := d.from, d.m
	d.release()
	h.Deliver(from, m)
}

// release returns the record to its bus; the caller has copied out what it
// still needs.
func (d *delivery) release() {
	b := d.bus
	if b == nil {
		return
	}
	*d = delivery{bus: b, fire: d.fire}
	b.mu.Lock()
	b.free = append(b.free, d)
	b.mu.Unlock()
}

// run is the record's scheduled callback, for whichever hop it is on.
func (d *delivery) run() {
	if d.q != nil {
		d.q.serve(d)
		return
	}
	d.bus.arrive(d)
}

// Loopback is a degenerate Sender delivering synchronously on the calling
// goroutine with zero delay; used by unit tests that exercise a single node
// in isolation.
type Loopback struct {
	mu        sync.Mutex
	endpoints map[ring.NodeID]Handler
}

// NewLoopback returns an empty loopback fabric.
func NewLoopback() *Loopback {
	return &Loopback{endpoints: make(map[ring.NodeID]Handler)}
}

// Register attaches a handler.
func (l *Loopback) Register(id ring.NodeID, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.endpoints[id] = h
}

// Send implements Sender with immediate synchronous delivery.
func (l *Loopback) Send(from, to ring.NodeID, m wire.Message) {
	l.mu.Lock()
	h := l.endpoints[to]
	l.mu.Unlock()
	if h != nil {
		h.Deliver(from, m)
	}
}

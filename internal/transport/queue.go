package transport

import (
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// ServiceTimer returns the CPU/service time a node spends handling m.
type ServiceTimer func(m wire.Message) time.Duration

// ServiceQueue models a node's finite processing capacity: messages are
// served FIFO, each occupying the node for its service time before the
// wrapped handler runs. Under load the queue drains slower than messages
// arrive and effective propagation delay grows — the mechanism behind the
// paper's observation that stale reads increase with client thread count
// (Fig. 4(a)) and that throughput saturates near 90 threads (Fig. 5(c,d)).
//
// The queue must only be driven from its runtime (the Bus guarantees this).
type ServiceQueue struct {
	rt        sim.Runtime
	schedule  func(time.Duration, func())
	h         Handler
	svc       ServiceTimer
	busyUntil time.Time
	depth     int
	maxDepth  int
	served    uint64
	busyFor   time.Duration
}

// NewServiceQueue wraps h with a service-time queue.
func NewServiceQueue(rt sim.Runtime, h Handler, svc ServiceTimer) *ServiceQueue {
	return &ServiceQueue{rt: rt, schedule: scheduler(rt), h: h, svc: svc}
}

// Deliver implements Handler: the message is handed to the wrapped handler
// after queue drain plus its own service time. Ping and Pong bypass the
// queue entirely: the paper's monitoring module measured latency with ICMP
// ping, which the kernel answers without waiting behind the storage
// process's request backlog.
func (q *ServiceQueue) Deliver(from ring.NodeID, m wire.Message) {
	d := newDelivery(nil)
	d.from, d.m = from, m
	q.enqueue(d)
}

// enqueue admits a message to the queue. The Bus hands over the record the
// message crossed the network in; Deliver makes one for everyone else.
func (q *ServiceQueue) enqueue(d *delivery) {
	switch d.m.(type) {
	case wire.Ping, wire.Pong:
		d.deliverTo(q.h)
		return
	}
	now := q.rt.Now()
	start := now
	if q.busyUntil.After(start) {
		start = q.busyUntil
	}
	svc := q.svc(d.m)
	if svc < 0 {
		svc = 0
	}
	q.busyUntil = start.Add(svc)
	q.busyFor += svc
	q.depth++
	if q.depth > q.maxDepth {
		q.maxDepth = q.depth
	}
	d.q = q
	q.schedule(q.busyUntil.Sub(now), d.fire)
}

// serve ends a message's service time and hands it to the wrapped handler.
func (q *ServiceQueue) serve(d *delivery) {
	q.depth--
	q.served++
	d.deliverTo(q.h)
}

// queueStats is a snapshot of queue behaviour.
type queueStats struct {
	depth    int
	maxDepth int
	served   uint64
	busyFor  time.Duration
}

// stats returns current queue statistics (call from the queue's runtime).
func (q *ServiceQueue) stats() queueStats {
	return queueStats{depth: q.depth, maxDepth: q.maxDepth, served: q.served, busyFor: q.busyFor}
}

var _ Handler = (*ServiceQueue)(nil)

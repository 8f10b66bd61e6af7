// Package faults is the fault plane: one dense table of directed links
// between the endpoints a fabric carries, and the Update language that edits
// it. An endpoint gets a dense index the first time the plane sees it (its
// name stays a ring.NodeID at the API), and link[from][to] holds all that
// decides one frame's fate: the latency class the fabric prices it at, a cut
// flag, the impairment Rule (drop, added delay, jitter, duplication,
// reordering), and whether the observer's failure detector convicts the
// peer.
//
// Both backends consult the same table. The simulated bus
// (transport.Bus) looks up every message's link, so partitions, slow links,
// node crashes and converged detector views are all Updates on the cluster's
// plane. A live member wraps its TCP endpoint with Wrap, which applies the
// member's own plane to its outbound frames; the admin endpoint's POST
// /faults takes the same Update documents, so the bench driver partitions
// real processes with the documents the simulator consumes. Cutting a live
// cluster apart takes one Update per member (each cuts its own side of each
// link); a directed rule models an asymmetric link.
//
// Convictions are the simulator's stand-in for a failure detector: a
// simulated node asks Alive before it contacts a peer. A live member runs
// gossip instead, and its plane's convictions only show in its snapshot.
package faults

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// Wildcard matches any endpoint in a rule's From or To position, and stands
// for "every member not on the other side" in a partition.
const Wildcard = "*"

// Rule describes the impairments applied to one directed link. The zero Rule
// is a no-op.
type Rule struct {
	// Drop is the probability in [0,1] that a frame is silently discarded.
	Drop float64 `json:"drop,omitempty"`
	// Delay is added to every surviving frame's delivery.
	Delay time.Duration `json:"delay,omitempty"`
	// Jitter adds a further uniform random [0,Jitter) to each delivery.
	Jitter time.Duration `json:"jitter,omitempty"`
	// Duplicate is the probability a surviving frame is delivered twice
	// (the copy takes an independent delay draw, so it may arrive first).
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the probability a surviving frame is held back by an extra
	// random multiple of Delay+Jitter so frames sent after it overtake it.
	Reorder float64 `json:"reorder,omitempty"`
}

func (r Rule) zero() bool {
	return r.Drop == 0 && r.Delay == 0 && r.Jitter == 0 && r.Duplicate == 0 && r.Reorder == 0
}

// PartitionSpec names the two sides of a cut. Frames from A-side to B-side
// endpoints are blocked; unless Asymmetric is set, B→A is blocked too.
// Endpoints on neither side are unaffected. One side may be the Wildcard,
// meaning "every member not on the other side".
type PartitionSpec struct {
	A          []string `json:"a"`
	B          []string `json:"b"`
	Asymmetric bool     `json:"asymmetric,omitempty"`
}

// RuleUpdate binds a Rule to a directed pair; From/To may be Wildcard.
type RuleUpdate struct {
	From string `json:"from"`
	To   string `json:"to"`
	Rule
}

// Update is one fault-plane command: the JSON document POST /faults accepts
// and plan steps replay. Fields apply in order: Clear, Heal, Acquit, Set,
// Partition, Convict, Down, Up, Plan.
type Update struct {
	// Clear removes every rule, partition, conviction and down mark
	// (plans keep running).
	Clear bool `json:"clear,omitempty"`
	// Heal removes all partitions, leaving everything else in place.
	Heal bool `json:"heal,omitempty"`
	// Acquit withdraws every conviction installed by Convict: the detectors
	// re-converge after a heal.
	Acquit bool `json:"acquit,omitempty"`
	// Set installs (or, for zero rules, removes) directed-pair rules.
	Set []RuleUpdate `json:"set,omitempty"`
	// Partition installs a network cut.
	Partition *PartitionSpec `json:"partition,omitempty"`
	// Convict installs a converged detector view of a cut: members on each
	// side convict those on the other (only A convicts B when Asymmetric).
	// It changes what members believe, not what the network delivers.
	Convict *PartitionSpec `json:"convict,omitempty"`
	// Down crashes endpoints: each is cut off from every member, both ways,
	// and every member, itself included, convicts it.
	Down []string `json:"down,omitempty"`
	// Up restores endpoints taken Down.
	Up []string `json:"up,omitempty"`
	// Plan schedules further updates relative to this one (see Run).
	Plan Plan `json:"plan,omitempty"`
}

// Stats counts what the plane has done to traffic.
type Stats struct {
	Dropped    uint64 `json:"dropped"`    // frames discarded by Drop rules
	Cut        uint64 `json:"cut"`        // frames blocked by cuts
	Delayed    uint64 `json:"delayed"`    // frames delivered late
	Duplicated uint64 `json:"duplicated"` // extra copies delivered
	Reordered  uint64 `json:"reordered"`  // frames held for overtaking
}

// State is the plane's externally visible configuration, served by GET
// /faults.
type State struct {
	Rules       []RuleUpdate    `json:"rules,omitempty"`
	Partitions  []PartitionSpec `json:"partitions,omitempty"`
	Convictions []PartitionSpec `json:"convictions,omitempty"`
	Down        []string        `json:"down,omitempty"`
	Stats       Stats           `json:"stats"`
}

// Route is the plane's verdict on one frame.
type Route struct {
	// Class is the link's latency class, as the fabric registered it.
	Class uint8
	// Blocked: a cut or a Drop rule took the frame; deliver nothing.
	Blocked bool
	// Delay is injected on top of the fabric's own latency.
	Delay time.Duration
	// Copy asks for a duplicate, delivered after CopyDelay plus its own
	// fabric latency.
	Copy      bool
	CopyDelay time.Duration
}

// link is one directed entry of the table's fault state.
type link struct {
	cut  bool
	conv bool // the observer (row) convicts the peer (column)
	rule Rule
}

// classes is the table's latency-class half, n×n row-major. It is replaced
// whole when an endpoint is added, never written once published, so a frame
// on an unarmed plane reads it without the lock.
type classes struct {
	n int
	c []uint8
}

// cut is an installed PartitionSpec with its sides resolved to dense
// indexes.
type cut struct {
	spec PartitionSpec
	a, b []int
}

// Plane is one fabric's fault plane. Its sources of truth are the installed
// rules, cuts, convictions and down marks; every change compiles them into
// the dense link table, so a frame's lookup is two slice indexes.
type Plane struct {
	rt      sim.Runtime
	members []ring.NodeID

	armed   atomic.Bool // a cut or rule is installed
	judging atomic.Bool // a conviction is installed
	classes atomic.Pointer[classes]

	mu        sync.Mutex
	rng       *rand.Rand
	index     map[ring.NodeID]int
	names     []ring.NodeID
	links     [][]link // links[from][to]
	rules     []RuleUpdate
	parts     []cut
	views     []cut
	down      []int
	onRecover func(observer, peer ring.NodeID)
	stats     Stats
}

// New creates a plane over members, the endpoints that Wildcard partition
// sides and Down resolve against (a cluster's nodes, a live member's peer
// list). Members take the first dense indexes, in order. rt runs plan steps
// and, through Wrap, delayed frames; the seed drives the impairment draws,
// so planes on different live members should use different seeds.
func New(rt sim.Runtime, seed int64, members []ring.NodeID) *Plane {
	p := &Plane{
		rt:      rt,
		members: append([]ring.NodeID(nil), members...),
		rng:     rand.New(rand.NewSource(seed)),
		index:   make(map[ring.NodeID]int),
	}
	p.classes.Store(&classes{})
	for _, m := range members {
		p.addLocked(m, m, nil)
	}
	return p
}

// OnRecover installs the callback run when an observer stops convicting a
// peer (Up, Acquit, Clear): the simulated stand-in for the gossip detector's
// down→up trigger. It runs after the Update, outside the plane's lock, in
// observer then peer index order.
func (p *Plane) OnRecover(fn func(observer, peer ring.NodeID)) {
	p.mu.Lock()
	p.onRecover = fn
	p.mu.Unlock()
}

// Add returns id's dense index, registering it on first sight. An endpoint
// whose host differs from itself is colocated: it shares the host's links,
// so every cut, rule and latency class of the host applies to it too. A
// non-nil class prices each of id's links (host names in, class out); a
// fabric that adds an endpoint with class reprices it against every
// endpoint already present. class runs under the plane's lock, so it must
// be a pure function of its arguments.
func (p *Plane) Add(id, host ring.NodeID, class func(a, b ring.NodeID) uint8) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addLocked(id, host, class)
}

func (p *Plane) addLocked(id, host ring.NodeID, class func(a, b ring.NodeID) uint8) int {
	i, ok := p.index[id]
	switch {
	case ok:
	case host != id:
		i = p.addLocked(host, host, nil)
		p.index[id] = i
	default:
		i = len(p.names)
		p.index[id] = i
		p.names = append(p.names, id)
		for r := range p.links {
			p.links[r] = append(p.links[r], link{})
		}
		p.links = append(p.links, make([]link, i+1))
		if p.installedLocked() {
			p.compileLocked() // a new endpoint has no conviction to recover
		}
	}
	if old := p.classes.Load(); class != nil || old.n < len(p.names) {
		n := len(p.names)
		t := &classes{n: n, c: make([]uint8, n*n)}
		for r := 0; r < old.n; r++ {
			copy(t.c[r*n:], old.c[r*old.n:(r+1)*old.n])
		}
		if class != nil {
			for j, other := range p.names {
				t.c[i*n+j] = class(p.names[i], other)
				t.c[j*n+i] = class(other, p.names[i])
			}
		}
		p.classes.Store(t)
	}
	return i
}

// Route judges one frame on the link between two dense indexes from Add.
// Unarmed it takes no lock: the class is a slice index.
func (p *Plane) Route(from, to int) Route {
	t := p.classes.Load()
	r := Route{Class: t.c[from*t.n+to]}
	if !p.armed.Load() {
		return r
	}
	p.mu.Lock()
	lk := &p.links[from][to]
	switch {
	case lk.cut:
		p.stats.Cut++
		r.Blocked = true
	case !lk.rule.zero():
		p.impairLocked(lk.rule, &r)
	}
	p.mu.Unlock()
	return r
}

// impairLocked draws rule's impairments for one frame into r.
func (p *Plane) impairLocked(rule Rule, r *Route) {
	if rule.Drop > 0 && p.rng.Float64() < rule.Drop {
		p.stats.Dropped++
		r.Blocked = true
		return
	}
	r.Delay = p.drawLocked(rule)
	if rule.Duplicate > 0 && p.rng.Float64() < rule.Duplicate {
		p.stats.Duplicated++
		r.Copy = true
		r.CopyDelay = p.drawLocked(rule)
	}
}

// drawLocked computes one delivery's injected delay under rule.
func (p *Plane) drawLocked(rule Rule) time.Duration {
	d := rule.Delay
	if rule.Jitter > 0 {
		d += time.Duration(p.rng.Int63n(int64(rule.Jitter)))
	}
	if rule.Reorder > 0 && p.rng.Float64() < rule.Reorder {
		// Hold the frame back far enough that later sends overtake it: an
		// extra 1–4x of the rule's own latency scale (floor 1ms so a pure
		// reorder rule with no delay still reorders).
		scale := rule.Delay + rule.Jitter
		if scale <= 0 {
			scale = time.Millisecond
		}
		d += scale + time.Duration(p.rng.Int63n(int64(3*scale)))
		p.stats.Reordered++
	}
	if d > 0 {
		p.stats.Delayed++
	}
	return d
}

// Alive reports whether observer's detector holds peer up: false only under
// a conviction (Down, Convict). Endpoints the plane never saw are alive.
func (p *Plane) Alive(observer, peer ring.NodeID) bool {
	if !p.judging.Load() {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[observer]
	j, ok2 := p.index[peer]
	return !ok || !ok2 || !p.links[i][j].conv
}

// AliveCount is how many members observer holds up.
func (p *Plane) AliveCount(observer ring.NodeID) int {
	n := 0
	for _, m := range p.members {
		if p.Alive(observer, m) {
			n++
		}
	}
	return n
}

// Apply executes one Update.
func (p *Plane) Apply(u Update) {
	p.mu.Lock()
	if u.Clear {
		p.rules, p.parts, p.views, p.down = nil, nil, nil, nil
	}
	if u.Heal {
		p.parts = nil
	}
	if u.Acquit {
		p.views = nil
	}
	for _, r := range u.Set {
		p.setRuleLocked(r)
	}
	if u.Partition != nil {
		p.parts = append(p.parts, p.resolveLocked(*u.Partition))
	}
	if u.Convict != nil {
		p.views = append(p.views, p.resolveLocked(*u.Convict))
	}
	for _, d := range u.Down {
		if r := p.rowLocked(d); !slices.Contains(p.down, r) {
			p.down = append(p.down, r)
		}
	}
	for _, up := range u.Up {
		r := p.rowLocked(up)
		p.down = slices.DeleteFunc(p.down, func(d int) bool { return d == r })
	}
	recovered := p.compileLocked()
	fn := p.onRecover
	p.mu.Unlock()
	for _, r := range recovered {
		if fn != nil {
			fn(r[0], r[1])
		}
	}
	if len(u.Plan) > 0 {
		p.Run(u.Plan)
	}
}

// setRuleLocked installs, replaces or (for the zero Rule) removes the rule
// on one directed pair.
func (p *Plane) setRuleLocked(u RuleUpdate) {
	p.rules = slices.DeleteFunc(p.rules, func(r RuleUpdate) bool { return r.From == u.From && r.To == u.To })
	if u.Rule.zero() {
		return
	}
	for _, name := range []string{u.From, u.To} {
		if name != Wildcard {
			p.rowLocked(name)
		}
	}
	p.rules = append(p.rules, u)
}

// rowLocked is name's dense index, registering it on first sight.
func (p *Plane) rowLocked(name string) int {
	return p.addLocked(ring.NodeID(name), ring.NodeID(name), nil)
}

// resolveLocked maps a spec's sides to dense indexes, a Wildcard side meaning
// "every member not on the other side".
func (p *Plane) resolveLocked(spec PartitionSpec) cut {
	side := func(names, other []string) []int {
		var rows []int
		if len(names) == 1 && names[0] == Wildcard {
			for _, m := range p.members {
				if !slices.Contains(other, string(m)) {
					rows = append(rows, p.index[m])
				}
			}
			return rows
		}
		for _, n := range names {
			rows = append(rows, p.rowLocked(n))
		}
		return rows
	}
	return cut{spec: spec, a: side(spec.A, spec.B), b: side(spec.B, spec.A)}
}

func (p *Plane) installedLocked() bool {
	return len(p.rules) > 0 || len(p.parts) > 0 || len(p.views) > 0 || len(p.down) > 0
}

// compileLocked rebuilds every link's fault state from the installed
// sources and returns the (observer, peer) pairs whose conviction it lifted.
func (p *Plane) compileLocked() (recovered [][2]ring.NodeID) {
	n := len(p.names)
	fresh := make([][]link, n)
	for i := range fresh {
		fresh[i] = make([]link, n)
	}
	rows := func(name string) []int {
		if name != Wildcard {
			return []int{p.index[ring.NodeID(name)]}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	armed, judging := false, false
	// Rules by precedence, lowest first so later writes win: *→*, *→to,
	// from→*, exact.
	for _, wild := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		for _, u := range p.rules {
			if (u.From == Wildcard) == wild[0] && (u.To == Wildcard) == wild[1] {
				for _, i := range rows(u.From) {
					for _, j := range rows(u.To) {
						fresh[i][j].rule, armed = u.Rule, true
					}
				}
			}
		}
	}
	mark := func(cs []cut, set func(l *link)) {
		for _, c := range cs {
			for _, i := range c.a {
				for _, j := range c.b {
					if i != j {
						set(&fresh[i][j])
						if !c.spec.Asymmetric {
							set(&fresh[j][i])
						}
					}
				}
			}
		}
	}
	mark(p.parts, func(l *link) { l.cut, armed = true, true })
	mark(p.views, func(l *link) { l.conv, judging = true, true })
	for _, d := range p.down {
		for _, m := range p.members {
			o := p.index[m]
			if o != d {
				fresh[d][o].cut, fresh[o][d].cut, armed = true, true, true
			}
			fresh[o][d].conv, judging = true, true
		}
	}
	for i := range fresh {
		for j := range fresh[i] {
			if i != j && p.links[i][j].conv && !fresh[i][j].conv {
				recovered = append(recovered, [2]ring.NodeID{p.names[i], p.names[j]})
			}
		}
	}
	p.links = fresh
	p.armed.Store(armed)
	p.judging.Store(judging)
	return recovered
}

// Snapshot reports the installed configuration and counters.
func (p *Plane) Snapshot() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := State{Stats: p.stats}
	for _, d := range p.down {
		st.Down = append(st.Down, string(p.names[d]))
	}
	st.Rules = append(st.Rules, p.rules...)
	sort.Slice(st.Rules, func(i, j int) bool {
		a, b := st.Rules[i], st.Rules[j]
		return a.From < b.From || (a.From == b.From && a.To < b.To)
	})
	for _, c := range p.parts {
		st.Partitions = append(st.Partitions, c.spec)
	}
	for _, c := range p.views {
		st.Convictions = append(st.Convictions, c.spec)
	}
	return st
}

// Sender is the outbound half of a fabric, as transport.Sender.
type Sender interface {
	Send(from, to ring.NodeID, m wire.Message)
}

// Wrap returns a Sender that applies the plane to every frame before next
// carries it: the live backend's injector. Frames held back by a rule are
// re-sent through the plane's runtime. Unarmed — no cut and no rule — it
// costs one atomic load per frame.
func (p *Plane) Wrap(next Sender) Sender { return injector{p, next} }

type injector struct {
	p    *Plane
	next Sender
}

func (in injector) Send(from, to ring.NodeID, m wire.Message) {
	p := in.p
	if !p.armed.Load() {
		in.next.Send(from, to, m)
		return
	}
	p.mu.Lock()
	f, t := p.addLocked(from, from, nil), p.addLocked(to, to, nil)
	p.mu.Unlock()
	r := p.Route(f, t)
	if r.Blocked {
		return
	}
	in.deliver(from, to, m, r.Delay)
	if r.Copy {
		in.deliver(from, to, m, r.CopyDelay)
	}
}

func (in injector) deliver(from, to ring.NodeID, m wire.Message, d time.Duration) {
	if d <= 0 {
		in.next.Send(from, to, m)
		return
	}
	in.p.rt.After(d, func() { in.next.Send(from, to, m) })
}

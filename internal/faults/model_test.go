package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
)

// model is the fault plane written the obvious way, one map per concern and
// names resolved at every lookup: the reference the dense table must agree
// with.
type model struct {
	members []string
	host    map[string]string
	rules   map[[2]string]Rule
	cuts    map[[2]string]bool
	views   map[[2]string]bool
	down    map[string]bool
}

func (m *model) hostOf(n string) string {
	if h, ok := m.host[n]; ok {
		return h
	}
	return n
}

func (m *model) member(n string) bool { return slices.Contains(m.members, m.hostOf(n)) }

// sides resolves a spec's names to hosts, a Wildcard side meaning every
// member not named on the other side.
func (m *model) sides(spec PartitionSpec) (a, b []string) {
	side := func(names, other []string) []string {
		var out []string
		if len(names) == 1 && names[0] == Wildcard {
			for _, x := range m.members {
				if !slices.Contains(other, x) {
					out = append(out, x)
				}
			}
			return out
		}
		for _, x := range names {
			out = append(out, m.hostOf(x))
		}
		return out
	}
	return side(spec.A, spec.B), side(spec.B, spec.A)
}

func (m *model) mark(set map[[2]string]bool, spec PartitionSpec) {
	a, b := m.sides(spec)
	for _, x := range a {
		for _, y := range b {
			if x != y {
				set[[2]string{x, y}] = true
				if !spec.Asymmetric {
					set[[2]string{y, x}] = true
				}
			}
		}
	}
}

func (m *model) apply(u Update) {
	if u.Clear {
		m.rules, m.cuts, m.views, m.down = map[[2]string]Rule{}, map[[2]string]bool{}, map[[2]string]bool{}, map[string]bool{}
	}
	if u.Heal {
		m.cuts = map[[2]string]bool{}
	}
	if u.Acquit {
		m.views = map[[2]string]bool{}
	}
	for _, r := range u.Set {
		if r.Rule.zero() {
			delete(m.rules, [2]string{r.From, r.To})
		} else {
			m.rules[[2]string{r.From, r.To}] = r.Rule
		}
	}
	if u.Partition != nil {
		m.mark(m.cuts, *u.Partition)
	}
	if u.Convict != nil {
		m.mark(m.views, *u.Convict)
	}
	for _, d := range u.Down {
		m.down[m.hostOf(d)] = true
	}
	for _, d := range u.Up {
		delete(m.down, m.hostOf(d))
	}
}

func (m *model) cut(a, b string) bool {
	a, b = m.hostOf(a), m.hostOf(b)
	if m.cuts[[2]string{a, b}] {
		return true
	}
	return a != b && (m.down[a] && m.member(b) || m.down[b] && m.member(a))
}

func (m *model) rule(a, b string) Rule {
	a, b = m.hostOf(a), m.hostOf(b)
	for _, k := range [][2]string{{a, b}, {a, Wildcard}, {Wildcard, b}, {Wildcard, Wildcard}} {
		if r, ok := m.rules[k]; ok {
			return r
		}
	}
	return Rule{}
}

func (m *model) alive(o, p string) bool {
	o, p = m.hostOf(o), m.hostOf(p)
	return !m.views[[2]string{o, p}] && !(m.down[p] && m.member(o))
}

// TestPlaneMatchesModel drives the dense plane and the reference model
// through the same random histories of rules (exact and wildcard),
// symmetric, asymmetric and wildcard partitions, crashes and restarts,
// convictions, heals and clears, with a colocated endpoint, and checks every
// link's verdict, every detector view and every recovery trigger.
func TestPlaneMatchesModel(t *testing.T) {
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	names := append(append([]string(nil), members...), "c0", "c1", "mon")
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := make([]ring.NodeID, len(members))
		for i, n := range members {
			ids[i] = ring.NodeID(n)
		}
		p := New(sim.New(seed), seed, ids)
		var recovered [][2]string
		p.OnRecover(func(o, peer ring.NodeID) { recovered = append(recovered, [2]string{string(o), string(peer)}) })
		p.Add("mon", "n0", nil)
		p.Add("c0", "c0", nil)
		m := &model{members: members, host: map[string]string{"mon": "n0"}}
		m.apply(Update{Clear: true})

		pick := func(wild bool) string {
			if wild && rng.Intn(4) == 0 {
				return Wildcard
			}
			return names[rng.Intn(len(names))]
		}
		// Rules name members and clients only: two exact rules on one
		// host link (through an alias) have no defined winner.
		pickDirect := func() string {
			if rng.Intn(4) == 0 {
				return Wildcard
			}
			return names[rng.Intn(len(names)-1)]
		}
		side := func() []string {
			if rng.Intn(4) == 0 {
				return []string{Wildcard}
			}
			out := []string{pick(false)}
			for rng.Intn(2) == 0 {
				out = append(out, pick(false))
			}
			return out
		}
		spec := func() *PartitionSpec {
			s := &PartitionSpec{A: side(), B: side(), Asymmetric: rng.Intn(3) == 0}
			if s.A[0] == Wildcard && s.B[0] == Wildcard {
				s.B = []string{pick(false)}
			}
			return s
		}
		for step := 0; step < 60; step++ {
			var u Update
			switch rng.Intn(9) {
			case 0:
				r := Rule{Delay: time.Duration(1+rng.Intn(5)) * time.Millisecond}
				switch rng.Intn(3) {
				case 0:
					r = Rule{Drop: 1}
				case 1:
					r = Rule{}
				}
				u.Set = []RuleUpdate{{From: pickDirect(), To: pickDirect(), Rule: r}}
			case 1:
				u.Partition = spec()
			case 2:
				u.Convict = spec()
			case 3:
				u.Down = []string{pick(false)}
			case 4:
				u.Up = []string{pick(false)}
			case 5:
				u.Heal = true
			case 6:
				u.Acquit = true
			case 7:
				u.Clear = rng.Intn(3) == 0
			case 8:
				u.Down, u.Up = []string{pick(false)}, []string{pick(false)}
			}
			recovered = recovered[:0]
			before := map[[2]string]bool{}
			for _, o := range names {
				for _, q := range names {
					before[[2]string{m.hostOf(o), m.hostOf(q)}] = !m.alive(o, q)
				}
			}
			m.apply(u)
			p.Apply(u)
			ctx := fmt.Sprintf("seed %d step %d after %+v", seed, step, u)

			var want [][2]string
			for _, o := range names {
				for _, q := range names {
					o, q := m.hostOf(o), m.hostOf(q)
					k := [2]string{o, q}
					if o != q && before[k] && m.alive(o, q) && !slices.Contains(want, k) {
						want = append(want, k)
					}
				}
			}
			sortPairs(want)
			sortPairs(recovered)
			if !slices.Equal(want, recovered) {
				t.Fatalf("%s: recovered %v, want %v", ctx, recovered, want)
			}
			for _, a := range names {
				for _, b := range names {
					r := p.Route(p.Add(ring.NodeID(a), ring.NodeID(a), nil), p.Add(ring.NodeID(b), ring.NodeID(b), nil))
					rule := m.rule(a, b)
					switch {
					case m.cut(a, b):
						if !r.Blocked {
							t.Fatalf("%s: %s→%s delivered across a cut", ctx, a, b)
						}
					case rule.Drop == 1:
						if !r.Blocked {
							t.Fatalf("%s: %s→%s survived a drop rule", ctx, a, b)
						}
					case r.Blocked || r.Delay != rule.Delay:
						t.Fatalf("%s: %s→%s blocked=%v delay=%v, want delay %v", ctx, a, b, r.Blocked, r.Delay, rule.Delay)
					}
					if got, want := p.Alive(ring.NodeID(a), ring.NodeID(b)), m.alive(a, b); got != want {
						t.Fatalf("%s: Alive(%s, %s) = %v, want %v", ctx, a, b, got, want)
					}
				}
				n := 0
				for _, x := range members {
					if m.alive(a, x) {
						n++
					}
				}
				if got := p.AliveCount(ring.NodeID(a)); got != n {
					t.Fatalf("%s: AliveCount(%s) = %d, want %d", ctx, a, got, n)
				}
			}
		}
	}
}

func sortPairs(ps [][2]string) {
	slices.SortFunc(ps, func(x, y [2]string) int {
		if x[0] != y[0] {
			if x[0] < y[0] {
				return -1
			}
			return 1
		}
		if x[1] < y[1] {
			return -1
		}
		if x[1] > y[1] {
			return 1
		}
		return 0
	})
}

// TestRouteAndAliveDoNotAllocate pins the per-message cost of the plane:
// judging a frame and asking a detector view allocate nothing, armed or
// not.
func TestRouteAndAliveDoNotAllocate(t *testing.T) {
	p := New(sim.New(1), 1, []ring.NodeID{"a", "b", "c"})
	a, b := p.Add("a", "a", nil), p.Add("b", "b", nil)
	check := func(when string) {
		t.Helper()
		if n := testing.AllocsPerRun(200, func() {
			_ = p.Route(a, b)
			_ = p.Alive("a", "b")
		}); n != 0 {
			t.Fatalf("%s: %v allocs per Route+Alive, want 0", when, n)
		}
	}
	check("unarmed")
	p.Apply(Update{
		Set:     []RuleUpdate{{From: "a", To: "b", Rule: Rule{Delay: time.Millisecond, Jitter: time.Millisecond}}},
		Convict: &PartitionSpec{A: []string{"a"}, B: []string{"c"}},
	})
	check("armed")
}

package versioning

import (
	"fmt"
	"math/rand"
	"testing"

	"harmony/internal/wire"
)

func ck(pairs ...any) Clock {
	var c Clock
	for i := 0; i < len(pairs); i += 2 {
		c = append(c, wire.ClockEntry{Node: pairs[i].(string), Counter: uint64(pairs[i+1].(int))})
	}
	return Normalize(c)
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Clock
		want Relation
	}{
		{nil, nil, Equal},
		{ck("a", 1), nil, Descends},
		{nil, ck("a", 1), DescendedBy},
		{ck("a", 1), ck("a", 1), Equal},
		{ck("a", 2), ck("a", 1), Descends},
		{ck("a", 1), ck("a", 2), DescendedBy},
		{ck("a", 1, "b", 2), ck("a", 1), Descends},
		{ck("a", 1), ck("b", 1), Concurrent},
		{ck("a", 2, "b", 1), ck("a", 1, "b", 2), Concurrent},
		{ck("a", 1, "b", 2, "c", 3), ck("a", 1, "b", 2, "c", 3), Equal},
	}
	for i, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: Compare(%v,%v)=%v want %v", i, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	raw := Clock{{Node: "b", Counter: 3}, {Node: "a", Counter: 1}, {Node: "b", Counter: 5}, {Node: "c", Counter: 0}}
	n := Normalize(raw)
	want := Clock{{Node: "a", Counter: 1}, {Node: "b", Counter: 5}}
	if len(n) != len(want) {
		t.Fatalf("normalize: got %v want %v", n, want)
	}
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("normalize: got %v want %v", n, want)
		}
	}
	// Already-normalized input passes through without reallocation.
	s := ck("a", 1, "b", 2)
	if got := Normalize(s); &got[0] != &s[0] {
		t.Error("Normalize copied an already-normalized clock")
	}
}

func TestStampAndGet(t *testing.T) {
	c := Stamp(nil, "n1", 10)
	c = Stamp(c, "n2", 20)
	c = Stamp(c, "n1", 5) // lower counter must not regress
	if got := c.Get("n1"); got != 10 {
		t.Errorf("n1=%d want 10", got)
	}
	if got := c.Get("n2"); got != 20 {
		t.Errorf("n2=%d want 20", got)
	}
	if got := c.Get("n3"); got != 0 {
		t.Errorf("n3=%d want 0", got)
	}
	if MaxCounter(c) != 20 {
		t.Errorf("MaxCounter=%d want 20", MaxCounter(c))
	}
}

// TestMergeProperties drives random clocks through Merge/Compare and checks
// the lattice laws: merge is commutative, idempotent, and the merge result
// descends both inputs.
func TestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randClock := func() Clock {
		var c Clock
		for n := 0; n < 4; n++ {
			if rng.Intn(2) == 0 {
				c = append(c, wire.ClockEntry{Node: fmt.Sprintf("n%d", n), Counter: uint64(rng.Intn(5) + 1)})
			}
		}
		return Normalize(c)
	}
	eq := func(a, b Clock) bool { return Compare(a, b) == Equal }
	for i := 0; i < 2000; i++ {
		a, b := randClock(), randClock()
		m := Merge(a, b)
		if !eq(m, Merge(b, a)) {
			t.Fatalf("merge not commutative: %v %v", a, b)
		}
		if !eq(Merge(a, a), a) {
			t.Fatalf("merge not idempotent: %v", a)
		}
		if !Dominates(m, a) || !Dominates(m, b) {
			t.Fatalf("merge does not dominate inputs: %v %v -> %v", a, b, m)
		}
		// Compare antisymmetry.
		ra, rb := Compare(a, b), Compare(b, a)
		wantInv := map[Relation]Relation{Equal: Equal, Descends: DescendedBy, DescendedBy: Descends, Concurrent: Concurrent}
		if rb != wantInv[ra] {
			t.Fatalf("compare not antisymmetric: %v vs %v: %v / %v", a, b, ra, rb)
		}
	}
}

func val(data string, ts int64, clock Clock) wire.Value {
	return wire.Value{Data: []byte(data), Timestamp: ts, Clock: clock}
}

func TestDecideCausal(t *testing.T) {
	older := val("x", 5, ck("a", 5))
	newer := val("y", 9, ck("a", 5, "b", 9))
	take, conc := Decide(newer, older)
	if !take || conc {
		t.Errorf("descendant must replace ancestor: take=%v conc=%v", take, conc)
	}
	take, conc = Decide(older, newer)
	if take || conc {
		t.Errorf("ancestor must not replace descendant: take=%v conc=%v", take, conc)
	}
	take, conc = Decide(newer, newer)
	if take || conc {
		t.Errorf("equal clocks must be a no-op: take=%v conc=%v", take, conc)
	}
}

func TestDecideConcurrentDeterministic(t *testing.T) {
	s1 := val("x", 7, ck("a", 7))
	s2 := val("y", 7, ck("b", 7))
	t1, c1 := Decide(s1, s2)
	t2, c2 := Decide(s2, s1)
	if !c1 || !c2 {
		t.Fatal("siblings not flagged concurrent")
	}
	if t1 == t2 {
		t.Fatalf("resolution not antisymmetric: both sides returned take=%v", t1)
	}
	// Arrival order must not matter: whichever wins, both replicas converge
	// on it. "y" > "x" in byte order, so s2 wins.
	if t1 || !t2 {
		t.Errorf("deterministic tie-break violated: t1=%v t2=%v", t1, t2)
	}
}

func TestDecideLegacyLWW(t *testing.T) {
	// Clock-less values reproduce the historical Fresh() rule exactly:
	// strictly newer timestamp wins, ties keep current.
	cur := val("a", 10, nil)
	if take, _ := Decide(val("b", 11, nil), cur); !take {
		t.Error("newer legacy value must win")
	}
	if take, _ := Decide(val("b", 10, nil), cur); take {
		t.Error("legacy tie must keep current")
	}
	if take, _ := Decide(val("b", 9, nil), cur); take {
		t.Error("older legacy value must lose")
	}
	// Mixed: clock-bearing incoming vs legacy current still settles by ts.
	if take, _ := Decide(val("b", 11, ck("a", 11)), cur); !take {
		t.Error("clock-bearing newer value must win over legacy")
	}
}

func TestCovers(t *testing.T) {
	token := ck("n1", 100, "n2", 50)
	if !Covers(nil, 0, nil) {
		t.Error("empty token is always covered")
	}
	if !Covers(ck("n1", 100, "n2", 50), 50, token) {
		t.Error("descending clock covers token")
	}
	// A clock missing n2 cannot cover on the vector path, but its
	// timestamp reaching the watermark still does.
	if !Covers(ck("n1", 120), 120, token) {
		t.Error("ts above watermark covers even when vector path cannot prove it")
	}
	// Timestamp watermark: ts >= MaxCounter(token) covers.
	if !Covers(nil, 100, token) {
		t.Error("ts at watermark covers")
	}
	if Covers(nil, 99, token) {
		t.Error("ts below watermark must not cover")
	}
	if Covers(ck("n3", 10), 10, token) {
		t.Error("concurrent low clock must not cover")
	}
}

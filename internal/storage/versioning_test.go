package storage

import (
	"bytes"
	"testing"

	"harmony/internal/wire"
)

func clockv(data string, ts int64, entries ...wire.ClockEntry) wire.Value {
	return wire.Value{Data: []byte(data), Timestamp: ts, Clock: entries}
}

// TestSiblingConvergence applies the same pair of concurrent versions to two
// engines in opposite orders: both must keep the same winner byte-for-byte
// (the anti-entropy convergence requirement) and count one sibling each.
func TestSiblingConvergence(t *testing.T) {
	s1 := clockv("from-a", 7, wire.ClockEntry{Node: "a", Counter: 7})
	s2 := clockv("from-b", 7, wire.ClockEntry{Node: "b", Counter: 7})
	key := []byte("k")

	e1 := NewEngine(Options{Shards: 1})
	e2 := NewEngine(Options{Shards: 1})
	mustApply := func(e *Engine, v wire.Value) bool {
		ok, err := e.Apply(key, v)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	mustApply(e1, s1)
	mustApply(e1, s2)
	mustApply(e2, s2)
	mustApply(e2, s1)

	v1, ok1 := e1.Get(key)
	v2, ok2 := e2.Get(key)
	if !ok1 || !ok2 {
		t.Fatal("value missing after sibling resolution")
	}
	if !bytes.Equal(v1.Data, v2.Data) {
		t.Fatalf("replicas diverged: %q vs %q", v1.Data, v2.Data)
	}
	if e1.Stats().Siblings != 1 || e2.Stats().Siblings != 1 {
		t.Errorf("sibling counters: e1=%d e2=%d, want 1 and 1",
			e1.Stats().Siblings, e2.Stats().Siblings)
	}
}

// TestCausalDescendReplaces pins that vector-clock order overrides nothing
// the timestamp order wouldn't — a descendant always replaces its ancestor,
// an ancestor never replaces a descendant, and replays are no-ops.
func TestCausalDescendReplaces(t *testing.T) {
	e := NewEngine(Options{Shards: 1})
	key := []byte("k")
	base := clockv("v1", 5, wire.ClockEntry{Node: "a", Counter: 5})
	next := clockv("v2", 9,
		wire.ClockEntry{Node: "a", Counter: 5}, wire.ClockEntry{Node: "b", Counter: 9})
	if ok, _ := e.Apply(key, base); !ok {
		t.Fatal("first write rejected")
	}
	if ok, _ := e.Apply(key, next); !ok {
		t.Fatal("descendant rejected")
	}
	if ok, _ := e.Apply(key, base); ok {
		t.Fatal("ancestor replaced descendant")
	}
	if ok, _ := e.Apply(key, next); ok {
		t.Fatal("replay applied twice")
	}
	if v, _ := e.Get(key); string(v.Data) != "v2" {
		t.Fatalf("held %q, want v2", v.Data)
	}
	if e.Stats().Siblings != 0 {
		t.Errorf("causal ordering miscounted as siblings: %d", e.Stats().Siblings)
	}
}

package core

import (
	"testing"
	"time"

	"harmony/internal/wire"
)

// hotObs is an observation whose rates push the estimator well above any
// modest tolerance (heavy updates, high latency).
func hotObs(at int64) Observation {
	return Observation{
		At: time.Unix(at, 0), ReadRate: 1000, WriteInterval: 0.002,
		Latency: 20 * time.Millisecond, Window: time.Second,
	}
}

func TestControllerSessionGroupServedAtSession(t *testing.T) {
	byPrefix := func(key []byte) int {
		if len(key) > 0 && key[0] == 'a' {
			return 0
		}
		return 1
	}
	ctl := NewController(ControllerConfig{
		Policy:        Policy{ToleratedStaleRate: 0.05},
		N:             5,
		Groups:        2,
		GroupFn:       byPrefix,
		SessionGroups: []bool{true, false},
	})

	// Calm regime: a session flag never raises the level above ONE.
	ctl.Observe(Observation{At: time.Unix(1, 0), ReadRate: 100, WriteInterval: 10, Latency: 100 * time.Microsecond, Window: time.Second})
	if d := ctl.GroupLast(0); d.Level != wire.One {
		t.Fatalf("calm session group decision = %+v, want ONE", d)
	}

	// Hot regime: the unflagged group climbs the classic menu, the flagged
	// one is served at SESSION — single-replica blocking, write ONE.
	ctl.Observe(hotObs(2))
	d0, d1 := ctl.GroupLast(0), ctl.GroupLast(1)
	if d1.Level == wire.One || d1.Level == wire.Session {
		t.Fatalf("unflagged group decision = %+v, want classic level above ONE", d1)
	}
	if d0.Level != wire.Session || d0.Xn != 1 {
		t.Fatalf("session group decision = %+v, want SESSION with Xn=1", d0)
	}

	// LevelsFor (the client.ConsistencyPolicy surface) agrees with the
	// per-group streams, and the session group's writes ship at ONE.
	if r, w := ctl.LevelsFor([]byte("alpha")); r != wire.Session || w != wire.One {
		t.Fatalf("LevelsFor(session key) = %v/%v, want SESSION/ONE", r, w)
	}
	if r, _ := ctl.LevelsFor([]byte("bulk")); r != d1.Level {
		t.Fatalf("LevelsFor(classic key) read = %v, want %v", r, d1.Level)
	}
}

func TestControllerRegroupClearsSessionFlags(t *testing.T) {
	ctl := NewController(ControllerConfig{
		Policy:        Policy{ToleratedStaleRate: 0.05},
		N:             5,
		SessionGroups: []bool{true},
	})
	ctl.Observe(hotObs(1))
	if d := ctl.GroupLast(0); d.Level != wire.Session {
		t.Fatalf("pre-regroup decision = %+v, want SESSION", d)
	}

	// New epoch: group ids change meaning, so the flags must not carry over.
	ctl.Regroup(1, nil, []float64{0.05}, []int{0})
	ctl.Observe(Observation{At: time.Unix(2, 0), ReadRate: 1000, WriteInterval: 0.002,
		Latency: 20 * time.Millisecond, Window: time.Second, Epoch: 1})
	if d := ctl.GroupLast(0); d.Level == wire.Session || d.Level == wire.One {
		t.Fatalf("post-regroup decision = %+v, want classic level above ONE", d)
	}

	// Re-arming restores session-tier selection for the new epoch.
	ctl.SetSessionGroups([]bool{true})
	ctl.Observe(Observation{At: time.Unix(3, 0), ReadRate: 1000, WriteInterval: 0.002,
		Latency: 20 * time.Millisecond, Window: time.Second, Epoch: 1})
	if d := ctl.GroupLast(0); d.Level != wire.Session {
		t.Fatalf("re-armed decision = %+v, want SESSION", d)
	}
}

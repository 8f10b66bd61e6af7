// Package grouping closes the loop the paper's §VII leaves open: it turns
// core.Categorizer's offline clustering into an online, epoch-versioned
// regrouping subsystem. Storage nodes sample the keys they coordinate
// (cluster.Config.KeySampleLimit) and ship decayed per-key weights on every
// stats poll; the Regrouper — riding the monitor's collection loop on the
// monitor node — merges those samples, periodically re-clusters them into
// consistency categories, and broadcasts the resulting Assignment to every
// node as a wire.GroupUpdate. Nodes and the multi-model controller swap
// their group functions atomically and re-baseline per-group telemetry, so
// measurements from one epoch are never attributed to another epoch's
// groups.
package grouping

import (
	"fmt"
	"math"

	"harmony/internal/wire"
)

// Assignment is one epoch's immutable key-grouping: a key→group map over
// the sampled keys, a default group for everything else, and one tolerable
// stale-read rate per group. Groups are in canonical contention order
// (group 0 tightest, last group loosest — see core.Categorizer.Recluster),
// which keeps group identities stable across epochs of a steady workload.
//
// An Assignment never changes after construction, so GroupOf is safe for
// concurrent use without locking — callers swap whole assignments.
type Assignment struct {
	epoch      uint64
	tolerances []float64
	def        int
	assign     map[string]int
}

// newAssignment builds an assignment. tolerances must be non-empty and
// finite; group ids in assign and def are clamped into range.
func newAssignment(epoch uint64, tolerances []float64, def int, assign map[string]int) (*Assignment, error) {
	if len(tolerances) == 0 {
		return nil, fmt.Errorf("grouping: assignment needs at least one group")
	}
	tols := make([]float64, len(tolerances))
	for i, t := range tolerances {
		if math.IsNaN(t) {
			return nil, fmt.Errorf("grouping: tolerance %d is NaN", i)
		}
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		tols[i] = t
	}
	if def < 0 || def >= len(tols) {
		def = len(tols) - 1
	}
	m := make(map[string]int, len(assign))
	for k, g := range assign {
		if g >= 0 && g < len(tols) {
			m[k] = g
		}
	}
	return &Assignment{epoch: epoch, tolerances: tols, def: def, assign: m}, nil
}

// Uniform returns the epoch-0 assignment every cluster implicitly starts
// from: groups groups with the given tolerances and no keys assigned — all
// keys fall to the default group.
func Uniform(tolerances []float64, def int) (*Assignment, error) {
	return newAssignment(0, tolerances, def, nil)
}

// Epoch returns the assignment's epoch.
func (a *Assignment) Epoch() uint64 { return a.epoch }

// Groups returns the number of groups.
func (a *Assignment) Groups() int { return len(a.tolerances) }

// Default returns the group unassigned keys fall to.
func (a *Assignment) Default() int { return a.def }

// Len returns how many keys are explicitly assigned.
func (a *Assignment) Len() int { return len(a.assign) }

// Tolerances returns a copy of the per-group tolerance table.
func (a *Assignment) Tolerances() []float64 {
	return append([]float64(nil), a.tolerances...)
}

// GroupOf maps a key to its group; unassigned keys get the default group.
// Safe for concurrent use (the assignment is immutable), so it can serve
// directly as a cluster GroupFn or controller group function.
func (a *Assignment) GroupOf(key []byte) int {
	if g, ok := a.assign[string(key)]; ok {
		return g
	}
	return a.def
}

// toWire renders the assignment as the broadcast message.
func (a *Assignment) toWire() wire.GroupUpdate {
	u := wire.GroupUpdate{
		Epoch:      a.epoch,
		Tolerances: append([]float64(nil), a.tolerances...),
		Default:    uint32(a.def),
	}
	u.Entries = make([]wire.GroupAssign, 0, len(a.assign))
	for k, g := range a.assign {
		u.Entries = append(u.Entries, wire.GroupAssign{Key: []byte(k), Group: uint32(g)})
	}
	return u
}

// fromWire reconstructs an assignment from a broadcast message.
func fromWire(u wire.GroupUpdate) (*Assignment, error) {
	assign := make(map[string]int, len(u.Entries))
	for _, e := range u.Entries {
		assign[string(e.Key)] = int(e.Group)
	}
	return newAssignment(u.Epoch, u.Tolerances, int(u.Default), assign)
}

// equivalentTo reports whether b groups every key exactly like a (same
// group count, same tolerances, and the same group for every key either
// side mentions — keys absent from both maps compare via the defaults).
// The regrouper uses it to skip epoch bumps when a recluster reproduced the
// incumbent grouping: no broadcast, no counter re-baseline, no model churn.
func (a *Assignment) equivalentTo(b *Assignment) bool {
	if b == nil || len(a.tolerances) != len(b.tolerances) || a.def != b.def {
		return false
	}
	for i, t := range a.tolerances {
		if math.Abs(t-b.tolerances[i]) > 1e-9 {
			return false
		}
	}
	for k, g := range a.assign {
		if b.groupOfString(k) != g {
			return false
		}
	}
	for k, g := range b.assign {
		if a.groupOfString(k) != g {
			return false
		}
	}
	return true
}

func (a *Assignment) groupOfString(k string) int {
	if g, ok := a.assign[k]; ok {
		return g
	}
	return a.def
}

package faults

import "time"

// Step is one timed action of a plan: After the plan starts, apply the
// Update.
type Step struct {
	After  time.Duration `json:"after"`
	Update Update        `json:"update"`
}

// Plan is a fault schedule. It runs on the plane's runtime, so in the
// simulator it executes in virtual time and on a live node in wall time —
// the same schedule either way.
type Plan []Step

// Run schedules plan's steps on the plane's runtime; stop cancels the steps
// that have not fired yet. Steps already underway when the plane is cleared
// still fire — a plan is a script, not a transaction.
func (p *Plane) Run(plan Plan) (stop func()) {
	cancels := make([]func(), len(plan))
	for i, step := range plan {
		u := step.Update
		cancels[i] = p.rt.After(step.After, func() { p.Apply(u) })
	}
	return func() {
		for _, cancel := range cancels {
			cancel()
		}
	}
}

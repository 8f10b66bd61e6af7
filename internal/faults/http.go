package faults

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// maxRuleDelay bounds a posted rule's Delay and Jitter: far beyond any
// useful impairment, and small enough that the reorder draw's arithmetic (a
// few multiples of Delay+Jitter) cannot overflow.
const maxRuleDelay = time.Hour

// ServeHTTP serves the plane over the admin endpoint: GET returns its
// State, POST applies an Update document. A document that fails validate
// is refused with 400 and leaves the plane unchanged.
func (p *Plane) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.Snapshot())
	case http.MethodPost:
		var u Update
		if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
			http.Error(w, "faults: bad update: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := u.validate(); err != nil {
			http.Error(w, "faults: bad update: "+err.Error(), http.StatusBadRequest)
			return
		}
		p.Apply(u)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p.Snapshot())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// validate rejects an update the plane cannot run: a probability outside
// [0,1], a negative or over-large Delay or Jitter, or a plan step with a
// negative After, at any depth of nested plans.
func (u Update) validate() error {
	for _, s := range u.Set {
		if !unit(s.Drop) || !unit(s.Duplicate) || !unit(s.Reorder) {
			return fmt.Errorf("rule %s->%s: drop, duplicate and reorder must be in [0,1]", s.From, s.To)
		}
		if s.Delay < 0 || s.Delay > maxRuleDelay || s.Jitter < 0 || s.Jitter > maxRuleDelay {
			return fmt.Errorf("rule %s->%s: delay and jitter must be in [0,%v]", s.From, s.To, maxRuleDelay)
		}
	}
	for i, step := range u.Plan {
		if step.After < 0 {
			return fmt.Errorf("plan step %d: negative after %v", i, step.After)
		}
		if err := step.Update.validate(); err != nil {
			return fmt.Errorf("plan step %d: %w", i, err)
		}
	}
	return nil
}

// unit reports whether q is a probability (NaN is not).
func unit(q float64) bool { return q >= 0 && q <= 1 }

package faults

import (
	"encoding/json"
	"net/http"
)

// ServeHTTP serves the plane over the admin endpoint: GET returns its
// State, POST applies an Update document.
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
		p.Apply(u)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p.Snapshot())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

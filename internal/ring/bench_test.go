package ring_test

import (
	"testing"

	"harmony/internal/bench/micro"
)

// The body lives in the tracked micro suite (cmd/bench-micro records it as
// ring/replicas-for-key); an external test package can import it without a
// cycle.
func BenchmarkReplicasForKey(b *testing.B) { micro.RingReplicasForKey(b) }

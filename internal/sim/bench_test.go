package sim_test

import (
	"testing"

	"harmony/internal/bench/micro"
)

// The body lives in the tracked micro suite (cmd/bench-micro records it as
// sim/timer-churn); an external test package can import it without a cycle.
func BenchmarkSimTimerChurn(b *testing.B) { micro.SimTimerChurn(b) }

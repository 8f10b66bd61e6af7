// Package ycsb reimplements the workload model of the Yahoo! Cloud Serving
// Benchmark, which the paper drives Cassandra with: a mix of reads and
// updates chosen by proportion over a fixed keyspace, keys drawn from a
// popularity distribution, and a closed loop of client threads that each
// issue their next operation as soon as the previous one completes. Only
// the two mixes the paper evaluates are provided: Workload-A (update heavy,
// 50/50) and Workload-B (read mostly, 95/5).
package ycsb

import (
	"fmt"
	"math"
	"strconv"

	"harmony/internal/dist"
)

// opType enumerates the operation kinds a workload mixes.
type opType int

// Operation kinds.
const (
	opRead opType = iota
	opUpdate
)

// String names the operation.
func (o opType) String() string {
	switch o {
	case opRead:
		return "read"
	case opUpdate:
		return "update"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Distribution selects the request-key popularity model.
type Distribution string

// Supported request distributions.
const (
	DistUniform Distribution = "uniform"
	DistZipfian Distribution = "zipfian"
)

// Workload describes an operation mix over a record keyspace.
type Workload struct {
	Name string
	// Proportions must sum to ~1.
	ReadProportion   float64
	UpdateProportion float64
	// RecordCount is the keyspace size.
	RecordCount int64
	// ValueBytes is the payload size per record (the paper's rows are
	// ~1 KiB after the YCSB default of 10 fields x 100 bytes).
	ValueBytes int
	// RequestDistribution picks keys for reads/updates.
	RequestDistribution Distribution
}

// Validate checks the mix.
func (w Workload) Validate() error {
	sum := w.ReadProportion + w.UpdateProportion
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("ycsb: %s proportions sum to %v, want 1.0", w.Name, sum)
	}
	if w.RecordCount <= 0 {
		return fmt.Errorf("ycsb: %s has no records", w.Name)
	}
	if w.ValueBytes <= 0 {
		return fmt.Errorf("ycsb: %s has non-positive value size", w.Name)
	}
	return nil
}

// The paper's two mixes, mirroring the YCSB core workload definitions.
// Record counts default to 100k and are overridden by experiment configs.

// WorkloadA is update heavy: 50% reads, 50% updates (the paper's primary
// workload, "heavy read-update").
func WorkloadA() Workload {
	return Workload{
		Name: "workload-a", ReadProportion: 0.5, UpdateProportion: 0.5,
		RecordCount: 100_000, ValueBytes: 1024, RequestDistribution: DistZipfian,
	}
}

// WorkloadB is read mostly: 95% reads, 5% updates (the paper's second
// workload).
func WorkloadB() Workload {
	return Workload{
		Name: "workload-b", ReadProportion: 0.95, UpdateProportion: 0.05,
		RecordCount: 100_000, ValueBytes: 1024, RequestDistribution: DistZipfian,
	}
}

// NewChooser builds the request-key chooser for the workload; exported for
// harnesses that drive the cluster outside the closed-loop Runner (e.g. the
// open-loop load generator behind Fig. 4(b)).
func (w Workload) NewChooser() (dist.KeyChooser, error) {
	switch w.RequestDistribution {
	case DistUniform:
		return dist.NewUniformChooser(w.RecordCount), nil
	case DistZipfian, "":
		return dist.NewZipfianChooser(w.RecordCount), nil
	}
	return nil, fmt.Errorf("ycsb: unknown distribution %q", w.RequestDistribution)
}

// Key renders the canonical YCSB key name for an index: the bytes of
// fmt.Sprintf("user%010d", i), built without the formatter.
func Key(i int64) []byte {
	u, width := uint64(i), 10
	if i < 0 {
		u, width = -u, 9 // the sign counts toward the width
	}
	var num [20]byte
	digits := strconv.AppendUint(num[:0], u, 10)
	pad := max(width-len(digits), 0)
	key := make([]byte, 0, len("user-")+pad+len(digits))
	key = append(key, "user"...)
	if i < 0 {
		key = append(key, '-')
	}
	for ; pad > 0; pad-- {
		key = append(key, '0')
	}
	return append(key, digits...)
}

// KeyIndex parses the record index back out of a canonical YCSB key; ok is
// false for keys not produced by Key, including digit strings past
// math.MaxInt64. Group functions use it to tag operations by key range
// without allocating.
func KeyIndex(key []byte) (int64, bool) {
	if len(key) < 5 || string(key[:4]) != "user" {
		return 0, false
	}
	var n int64
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

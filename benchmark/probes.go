package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harmony/internal/client"
	"harmony/internal/dist"
	"harmony/internal/storage"
	"harmony/internal/wire"
)

// probeCalls is how many times each probe calls the function it times;
// durableApplyCalls is the count for Apply on a group-commit engine, where
// every serial call is an fsync.
const (
	probeCalls        = 10_000
	durableApplyCalls = 500
)

// runProbes times single layers' public functions in this process, on one
// goroutine, with this workload's own key, value and frame shapes, before
// any load starts. They say what a layer costs in isolation; the spans and
// counters say what it costs in place.
func runProbes(res *result, c *liveCluster, spec *liveSpec, policy client.ConsistencyPolicy, seed int64) error {
	st := newKeyState(spec.keys)
	gen := &generator{rng: dist.NewRand(seed), classes: spec.classes(), valueBytes: spec.valueBytes, st: st, reuse: true}
	nClasses := len(gen.classes)

	// ycsb / generator: choosing the operation and building its value.
	type op struct {
		key  int64
		read bool
	}
	ops := make([]op, probeCalls)
	t := time.Now()
	for i := range ops {
		ops[i].key, ops[i].read = gen.next(i % nClasses)
		if !ops[i].read {
			gen.release(gen.value(ops[i].key, uint64(i)))
		}
	}
	res.layer("ycsb.gen_ns_per_op", scalar(float64(time.Since(t).Nanoseconds())/probeCalls))

	// wire: this workload's mix of requests encoded and responses decoded.
	value := gen.value(0, 0)
	var resps [][]byte
	var reqBytes, respBytes int
	for i, o := range ops {
		var req, resp wire.Message
		if o.read {
			req = wire.ReadRequest{ID: uint64(i), Key: st.keys[o.key], Level: wire.Quorum, DeadlineMs: 2000}
			resp = wire.ReadResponse{ID: uint64(i), Found: true, Achieved: wire.Quorum,
				Value: wire.Value{Data: value, Timestamp: time.Now().UnixNano()}}
		} else {
			req = wire.WriteRequest{ID: uint64(i), Key: st.keys[o.key], Value: value, Level: wire.Quorum, DeadlineMs: 2000}
			resp = wire.WriteResponse{ID: uint64(i), OK: true, Timestamp: time.Now().UnixNano()}
		}
		reqBytes += wire.Size(req)
		respBytes += wire.Size(resp)
		frame, err := wire.Encode(nil, resp)
		if err != nil {
			return err
		}
		resps = append(resps, frame)
	}
	res.layer("wire.req_bytes", scalar(float64(reqBytes)/probeCalls))
	res.layer("wire.resp_bytes", scalar(float64(respBytes)/probeCalls))
	scratch := make([]byte, 0, 8<<10)
	t = time.Now()
	for i, o := range ops {
		var req wire.Message
		if o.read {
			req = wire.ReadRequest{ID: uint64(i), Key: st.keys[o.key], Level: wire.Quorum, DeadlineMs: 2000}
		} else {
			req = wire.WriteRequest{ID: uint64(i), Key: st.keys[o.key], Value: value, Level: wire.Quorum, DeadlineMs: 2000}
		}
		if _, err := wire.Encode(scratch[:0], req); err != nil {
			return err
		}
	}
	res.layer("wire.encode_ns", scalar(float64(time.Since(t).Nanoseconds())/probeCalls))
	t = time.Now()
	for _, frame := range resps {
		if _, _, err := wire.DecodeShared(frame); err != nil {
			return err
		}
	}
	res.layer("wire.decode_shared_ns", scalar(float64(time.Since(t).Nanoseconds())/probeCalls))

	// core: the policy lookup every operation pays.
	t = time.Now()
	for _, o := range ops {
		policy.LevelsFor(st.keys[o.key])
	}
	res.layer("core.levelsfor_ns", scalar(float64(time.Since(t).Nanoseconds())/probeCalls))

	// storage: an engine of the workload's own mode.
	if err := probeStorage(res, c, spec, st, gen); err != nil {
		return err
	}

	// transport: serial pings on the idle cluster, one round trip at a time.
	pings := make([]int64, 0, probeCalls)
	for i := 0; i < probeCalls; i++ {
		d, err := c.ctl.ping(c.ids[i%len(c.ids)])
		if err != nil {
			return fmt.Errorf("ping probe: %w", err)
		}
		pings = append(pings, int64(d))
	}
	sortInt64(pings)
	res.layer("transport.ping_us_p50", scalar(float64(percentile(pings, 0.5))/1e3))
	return nil
}

func probeStorage(res *result, c *liveCluster, spec *liveSpec, st *keyState, gen *generator) error {
	var opts storage.Options
	if spec.durable {
		dir := filepath.Join(c.dir, "probe-engine")
		defer os.RemoveAll(dir)
		opts.Persist = &storage.PersistOptions{Path: dir} // group commit, as the members run
	}
	eng, err := storage.Open(opts)
	if err != nil {
		return err
	}
	defer eng.Close()
	n := min(probeCalls, len(st.keys))
	applies := probeCalls
	if spec.durable {
		applies = durableApplyCalls
	}
	apply := make([]int64, 0, applies)
	for i := 0; i < applies; i++ {
		key := int64(i % n)
		v := wire.Value{Data: gen.value(key, uint64(i)), Timestamp: int64(i + 1)}
		t := time.Now()
		if _, err := eng.Apply(st.keys[key], v); err != nil {
			return err
		}
		apply = append(apply, int64(time.Since(t)))
	}
	get := make([]int64, 0, probeCalls)
	for i := 0; i < probeCalls; i++ {
		t := time.Now()
		eng.Get(st.keys[i%min(n, applies)])
		get = append(get, int64(time.Since(t)))
	}
	sortInt64(apply)
	sortInt64(get)
	res.layer("storage.apply_us_p50", scalar(float64(percentile(apply, 0.5))/1e3))
	res.layer("storage.get_us_p50", scalar(float64(percentile(get, 0.5))/1e3))
	return nil
}

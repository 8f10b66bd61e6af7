package main

import (
	"fmt"
	"time"

	"harmony/internal/client"
	"harmony/internal/dist"
	"harmony/internal/ring"
	"harmony/internal/wire"
)

// crashCheck closes the durable workload: SIGKILL every member, restart them
// on the same data dirs, and require each to serve at least the last version
// acknowledged for a sample of keys. SIGKILL leaves the OS page cache
// intact, so this is process-crash durability, not power loss.
func crashCheck(rc *runConfig, res *result, c *liveCluster, st *keyState) error {
	// A QUORUM write is acknowledged by two replicas; the third applies it
	// moments later. Wait until the engines stop moving so the check asks
	// every member for what every member was sent.
	var last uint64
	for settled := 0; settled < 2; {
		s, err := c.snap(true)
		if err != nil {
			return err
		}
		if s.st.Writes == last {
			settled++
		} else {
			settled, last = 0, s.st.Writes
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, id := range c.ids {
		if err := c.lc.Kill(id); err != nil {
			return err
		}
	}
	t0 := time.Now()
	errs := make(chan error, len(c.ids))
	for _, id := range c.ids {
		go func() { errs <- c.lc.Restart(id) }()
	}
	for range c.ids {
		if err := <-errs; err != nil {
			return fmt.Errorf("restart after crash: %w", err)
		}
	}
	res.layer("storage.recover_s", scalar(time.Since(t0).Seconds()))
	if err := c.attach(rc.root); err != nil {
		return err
	}
	s, err := c.snap(true)
	if err != nil {
		return err
	}
	res.layer("storage.recovered_rows", scalar(float64(s.st.RecoveredRows)))

	const sample = 2000
	rng := dist.NewRand(rc.seed)
	keys := make([]int64, sample)
	for i := range keys {
		keys[i] = rng.Int63n(int64(len(st.keys)))
	}
	var lost int64
	for _, id := range c.ids {
		n, err := readBack(c, st, id, keys)
		if err != nil {
			return err
		}
		lost += n
	}
	res.require(lost == 0, "%d sampled reads after the crash returned less than the last acknowledged version", lost)
	return nil
}

// readBack reads keys at ONE with member as the only coordinator and counts
// reads that fail or return less than the key's acknowledged version.
func readBack(c *liveCluster, st *keyState, member ring.NodeID, keys []int64) (lost int64, err error) {
	rt, drv, release, err := openDriver(c, client.Options{
		ID: "bench-readback", Coordinators: []ring.NodeID{member},
		Policy: client.Fixed{Read: wire.One}, Timeout: 5 * time.Second,
	}, nil)
	if err != nil {
		return 0, err
	}
	defer release()
	err = pipelined(rt, len(keys), func(i int, done func(error)) {
		key := keys[i]
		drv.Read(st.keys[key], func(r client.ReadResult) {
			mismatch, regression := readVerdict(key, st.floor(key), r.Found, r.Value, r.Ts)
			if r.Err != nil || mismatch || regression {
				lost++
			}
			done(nil)
		})
	})
	return lost, err
}

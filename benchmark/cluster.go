package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"harmony/internal/bench"
	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

const (
	members       = 3
	convergeLimit = 15 * time.Second
	// A first full view is not enough to start on: the phi-accrual detector
	// fits its mean to the burst of heartbeats at boot, convicts a peer during
	// the first ordinary gossip interval (250 ms), and only then learns what
	// an interval is. Measured: one flap 230–480 ms after the first full
	// view in most boots, none in some, none later. So load starts
	// convergeSettle after the first full view, provided the view has been
	// full for the last convergeHold — the same wait whether or not the flap
	// came, or setup_s would have two modes.
	convergeSettle = 1100 * time.Millisecond
	convergeHold   = 300 * time.Millisecond
	preloadDepth   = 64
)

// liveCluster is three real harmony-server processes plus what the harness
// needs to watch them from outside: their pids and a control endpoint.
type liveCluster struct {
	lc   *bench.LiveCluster
	dir  string
	ids  []ring.NodeID
	pids map[ring.NodeID]int
	ctl  *control
	once sync.Once
}

func discardLog(string, ...any) {}

// pidFile names the members of the run in flight. A leaked server silently
// taxes every later number, so a new run refuses to start while one lives.
func pidFile(root string) string { return filepath.Join(root, "members.pid") }

func refuseIfLeaked(root string) error {
	if b, err := os.ReadFile(pidFile(root)); err == nil {
		for _, f := range strings.Fields(string(b)) {
			pid, _ := strconv.Atoi(f)
			cmd, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
			if err == nil && strings.Contains(string(cmd), "-cluster") {
				return fmt.Errorf("member pid %d of a previous run is still alive; kill it and remove %s", pid, pidFile(root))
			}
		}
	}
	// Nothing of a previous run lives: whatever it left behind (a harness
	// killed outright cleans up nothing) can go.
	stale, _ := filepath.Glob(filepath.Join(root, "cluster-*"))
	for _, dir := range append(stale, pidFile(root)) {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// bootCluster spawns the members (re-executions of this binary behind
// bench.LiveChildEnv, as cmd/harmony-bench does) and returns once every
// member's failure detector sees all three: load sent before that collects
// "not enough live replicas" errors that are the harness's fault.
//
// bench.StartLiveCluster reserves the members' ports by binding and releasing
// them; now and then another socket takes one in between, that member cannot
// bind, and the boot fails after a 15 s wait (seen twice in ~300 boots). That
// is the harness's accident, not the store's: setUp tries again.
func bootCluster(root string, spec *liveSpec) (*liveCluster, error) {
	dir, err := os.MkdirTemp(root, "cluster-")
	if err != nil {
		return nil, err
	}
	cfg := bench.LiveClusterConfig{
		Procs: members, RF: members, Streams: 1,
		HotKeys: spec.hotKeys,
		LogDir:  filepath.Join(dir, "log"),
	}
	if spec.durable {
		cfg.DataDir = filepath.Join(dir, "data") // FsyncInterval 0: group commit
	}
	lc, err := bench.StartLiveCluster(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c := &liveCluster{lc: lc, dir: dir, ids: lc.IDs()}
	if err := c.attach(root); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// attach (re)discovers the member pids, records them, opens the control
// endpoint and waits for membership to converge.
func (c *liveCluster) attach(root string) error {
	byName, err := childMembers()
	if err != nil {
		return err
	}
	c.pids = make(map[ring.NodeID]int)
	var line []string
	for _, id := range c.ids {
		pid, ok := byName[string(id)]
		if !ok {
			return fmt.Errorf("member %s not found under /proc", id)
		}
		c.pids[id] = pid
		line = append(line, strconv.Itoa(pid))
	}
	if err := os.WriteFile(pidFile(root), []byte(strings.Join(line, " ")), 0o644); err != nil {
		return err
	}
	if c.ctl != nil {
		c.ctl.close()
	}
	if c.ctl, err = newControl(c.lc.Peers()); err != nil {
		return err
	}
	return c.converge()
}

func (c *liveCluster) converge() error {
	deadline := time.Now().Add(convergeLimit)
	var first, since time.Time // first full view; start of the current unbroken one
	for {
		seen := 0
		for _, id := range c.ids {
			if s, err := c.ctl.stats(id); err == nil && s.AliveMembers == members {
				seen++
			}
		}
		now := time.Now()
		switch {
		case seen < members:
			since = time.Time{}
		case since.IsZero():
			since = now
			if first.IsZero() {
				first = now
			}
		case now.Sub(first) >= convergeSettle && now.Sub(since) >= convergeHold:
			return nil
		}
		if now.After(deadline) {
			return fmt.Errorf("membership did not converge: %d of %d members see all %d", seen, members, members)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// close kills every member and removes the run's data and log dirs. It is
// safe to call twice and from a signal handler's goroutine.
func (c *liveCluster) close() {
	c.once.Do(func() {
		if c.ctl != nil {
			c.ctl.close()
		}
		c.lc.Close()
		os.RemoveAll(c.dir)
		os.Remove(pidFile(filepath.Dir(c.dir)))
	})
}

// control is the harness's own endpoint for request/response probes
// (StatsRequest, Ping): a runtime, a TCP node and a demultiplexer by id.
type control struct {
	rt  *sim.RealRuntime
	tcp *transport.TCPNode

	mu     sync.Mutex
	nextID uint64
	wait   map[uint64]chan wire.Message
}

func newControl(peers map[ring.NodeID]string) (*control, error) {
	c := &control{rt: sim.NewRealRuntime(), wait: make(map[uint64]chan wire.Message)}
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID: "bench-control", Peers: peers, Logf: discardLog,
	}, c.rt, transport.HandlerFunc(c.deliver))
	if err != nil {
		c.rt.Stop()
		return nil, err
	}
	c.tcp = tcp
	return c, nil
}

func (c *control) deliver(_ ring.NodeID, m wire.Message) {
	var id uint64
	switch r := m.(type) {
	case wire.StatsResponse:
		id = r.ID
	case wire.Pong:
		id = r.ID
	default:
		return
	}
	c.mu.Lock()
	ch := c.wait[id]
	delete(c.wait, id)
	c.mu.Unlock()
	if ch != nil {
		ch <- m
	}
}

func (c *control) call(to ring.NodeID, mk func(id uint64) wire.Message) (wire.Message, error) {
	ch := make(chan wire.Message, 1)
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.wait[id] = ch
	c.mu.Unlock()
	c.tcp.Send("bench-control", to, mk(id))
	select {
	case m := <-ch:
		return m, nil
	case <-time.After(time.Second):
		c.mu.Lock()
		delete(c.wait, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("no reply from %s", to)
	}
}

func (c *control) stats(to ring.NodeID) (wire.StatsResponse, error) {
	m, err := c.call(to, func(id uint64) wire.Message { return wire.StatsRequest{ID: id} })
	if err != nil {
		return wire.StatsResponse{}, err
	}
	return m.(wire.StatsResponse), nil
}

// ping is one serial Ping round trip on the (idle) cluster.
func (c *control) ping(to ring.NodeID) (time.Duration, error) {
	start := time.Now()
	_, err := c.call(to, func(id uint64) wire.Message { return wire.Ping{ID: id, Sent: start.UnixNano()} })
	return time.Since(start), err
}

func (c *control) close() {
	c.tcp.Close()
	c.rt.Stop()
}

// clusterSnap is the members' published state at one instant, summed over
// members (queue depth: the maximum).
type clusterSnap struct {
	at       time.Time // when proc was read
	m        cluster.Metrics
	st       storage.Stats
	tr       transport.TCPStats
	queueMax int
	opLat    [2]opLatency
	proc     procUsage
}

// snap reads the members' counters (HTTP, a few milliseconds) and their
// /proc usage. procFirst says which comes first, so that the CPU reading can
// sit right at the edge of the interval it brackets: last before the interval
// opens, first after it closes.
func (c *liveCluster) snap(procFirst bool) (clusterSnap, error) {
	var s clusterSnap
	if procFirst {
		if err := c.usage(&s); err != nil {
			return s, err
		}
	}
	if err := c.counters(&s); err != nil {
		return s, err
	}
	if !procFirst {
		return s, c.usage(&s)
	}
	return s, nil
}

func (c *liveCluster) usage(s *clusterSnap) error {
	s.at = time.Now()
	for _, id := range c.ids {
		u, err := readProcUsage(c.pids[id])
		if err != nil {
			return err
		}
		s.proc.user += u.user
		s.proc.sys += u.sys
		s.proc.volCtx += u.volCtx
		s.proc.hwmKB += u.hwmKB
	}
	return nil
}

func (c *liveCluster) counters(s *clusterSnap) error {
	admins := c.lc.AdminAddrs()
	for _, id := range c.ids {
		st, err := fetchStatus(admins[id])
		if err != nil {
			return fmt.Errorf("scrape %s: %w", id, err)
		}
		m := st.Metrics
		s.m.Reads += m.Reads
		s.m.Writes += m.Writes
		s.m.ReplicaOps += m.ReplicaOps
		s.m.BytesWritten += m.BytesWritten
		s.m.RepairsSent += m.RepairsSent
		s.m.HintsQueued += m.HintsQueued
		s.m.ReadTimeouts += m.ReadTimeouts
		s.m.WriteTimeouts += m.WriteTimeouts
		s.m.Unavailable += m.Unavailable
		s.m.Overloaded += m.Overloaded
		for l := range m.LevelUse {
			s.m.LevelUse[l] += m.LevelUse[l]
		}
		s.st.Writes += st.Storage.Writes
		s.st.Reads += st.Storage.Reads
		s.st.Compactions += st.Storage.Compactions
		s.st.LiveKeys += st.Storage.LiveKeys
		s.st.DiskBytes += st.Storage.DiskBytes
		s.st.DiskDeadBytes += st.Storage.DiskDeadBytes
		s.st.KeydirBytes += st.Storage.KeydirBytes
		s.st.Fsyncs += st.Storage.Fsyncs
		s.st.FsyncBatchedOps += st.Storage.FsyncBatchedOps
		s.st.RecoveredRows += st.Storage.RecoveredRows
		s.tr.FramesSent += st.Transport.FramesSent
		s.tr.FramesDropped += st.Transport.FramesDropped
		s.tr.BytesSent += st.Transport.BytesSent
		s.tr.Batches += st.Transport.Batches
		for _, p := range st.Peers {
			s.queueMax = max(s.queueMax, p.PendingBytes)
		}
		lat, err := fetchOpLatency(admins[id])
		if err != nil {
			return fmt.Errorf("scrape %s: %w", id, err)
		}
		for k := range lat {
			s.opLat[k].sum += lat[k].sum
			s.opLat[k].count += lat[k].count
		}
	}
	return nil
}

// openDriver dials the cluster with a client.Driver on its own runtime; the
// returned func releases both. With a tracer, the harness's interposers sit
// between the driver and the transport in both directions.
func openDriver(c *liveCluster, opts client.Options, tr *tracer) (*sim.RealRuntime, *client.Driver, func(), error) {
	rt := sim.NewRealRuntime()
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID: opts.ID, Peers: c.lc.Peers(), Streams: 1, Logf: discardLog,
	}, rt, nil)
	if err != nil {
		rt.Stop()
		return nil, nil, nil, err
	}
	release := func() { tcp.Close(); rt.Stop() }
	var send transport.Sender = tcp
	if tr != nil {
		send = tracingSender{tcp, tr}
	}
	drv, err := client.New(opts, rt, send)
	if err != nil {
		release()
		return nil, nil, nil, err
	}
	var h transport.Handler = drv
	if tr != nil {
		h = tracingHandler{drv, tr}
	}
	tcp.SetHandler(h)
	return rt, drv, release, nil
}

// pipelined runs op(0..total-1) on rt keeping up to preloadDepth in flight;
// op calls done when its operation has completed. The first error ends it.
func pipelined(rt sim.Runtime, total int, op func(i int, done func(error))) error {
	finished := make(chan error, 1)
	next, completed, failed := 0, 0, false // touched only on rt
	var issue func()
	issue = func() {
		if next == total || failed {
			return
		}
		i := next
		next++
		op(i, func(err error) {
			switch {
			case failed:
			case err != nil:
				failed = true
				finished <- err
			default:
				if completed++; completed == total {
					finished <- nil
					return
				}
				issue()
			}
		})
	}
	rt.Post(func() {
		for i := 0; i < preloadDepth; i++ {
			issue()
		}
	})
	select {
	case err := <-finished:
		return err
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("%d pipelined operations timed out", total)
	}
}

// preload writes every key once through a pipelined loader at ALL, so the
// measured phases start from a fully replicated store and every key has an
// acknowledged version to check reads against. A write at ALL is refused
// while any member's failure detector doubts a peer, which a starved
// heartbeat can cause with the loader saturating both cores; the driver
// retries a refused write (keys are loaded one write each, so the replay is
// a no-op if the first attempt landed).
func preload(c *liveCluster, st *keyState, valueBytes int) error {
	rt, drv, release, err := openDriver(c, client.Options{
		ID: "bench-loader", Coordinators: c.ids,
		Policy: client.Fixed{Write: wire.All}, Timeout: 20 * time.Second, MaxAttempts: 4,
	}, nil)
	if err != nil {
		return err
	}
	defer release()
	gen := &generator{valueBytes: valueBytes, st: st, reuse: true}
	return pipelined(rt, len(st.keys), func(i int, done func(error)) {
		key := int64(i)
		buf := gen.value(key, st.writeIssued(key))
		drv.Write(st.keys[key], buf, func(res client.WriteResult) {
			gen.release(buf)
			st.writeDone(key, res.Ts) // Ts is zero on error
			if res.Err != nil {
				res.Err = fmt.Errorf("preload %q: %w", st.keys[key], res.Err)
			}
			done(res.Err)
		})
	})
}

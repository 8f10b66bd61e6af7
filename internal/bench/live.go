package bench

// The live backend runs the full adaptive stack over real TCP: a cluster of
// genuine server processes (re-executions of the bench binary dispatching
// into internal/server.Main — byte-identical to cmd/harmony-server), driven
// by real client.Driver endpoints over the pipelined transport, observed by
// a real core.Monitor polling over the wire. Where the simulated benches
// measure the algorithms under modeled WAN latency, the live benches measure
// the deployed system: kernel sockets, scheduler jitter, kill -9 as the
// failure injection. Staleness is measured the way the paper's §V-F does it
// literally — dual reads (adaptive level, then ALL) via Driver.VerifyRead —
// because the wire protocol deliberately carries no server-side shadow
// counters.

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/client"
	"harmony/internal/core"
	"harmony/internal/dist"
	"harmony/internal/ring"
	"harmony/internal/server"
	"harmony/internal/sim"
	"harmony/internal/stats"
	"harmony/internal/transport"
	"harmony/internal/wire"
	"harmony/internal/ycsb"
)

// LiveChildEnv marks a process as a re-exec'd cluster member: when set, the
// bench binary's main dispatches straight into server.Main instead of
// running experiments. Spawning our own executable (os.Args[0]) keeps the
// live cluster a single self-contained binary.
const LiveChildEnv = "HARMONY_SERVER_CHILD"

// LiveClusterConfig parameterizes a spawned local cluster.
type LiveClusterConfig struct {
	// Procs is the number of server processes; RF the replication factor.
	Procs int
	RF    int
	// Vnodes per member (small keeps ring construction cheap).
	Vnodes int
	// GossipInterval tunes failure detection speed (churn wants it fast).
	GossipInterval time.Duration
	// Repair / RepairInterval enable anti-entropy on every member.
	Repair         bool
	RepairInterval time.Duration
	// HotKeys installs the two-group telemetry split on every member.
	HotKeys int64
	// HintQueueLimit caps coordinator hint queues (0 = unlimited).
	HintQueueLimit int
	// Streams configures each member's transport.
	Streams int
	// DataDir, when set, gives every member a persistent bitcask engine
	// rooted at DataDir/<id>; a member Restart()ed after a kill recovers
	// its pre-crash rows from disk instead of returning empty.
	DataDir string
	// FsyncInterval batches member fsyncs (0 = group commit per apply).
	FsyncInterval time.Duration
	// LogDir receives one log file per member; empty uses a temp dir that
	// Close removes.
	LogDir string
	// Exe overrides the child executable (defaults to os.Args[0]).
	Exe string
}

// liveProc is one spawned cluster member.
type liveProc struct {
	id    ring.NodeID
	addr  string
	admin string // admin HTTP endpoint (scraper target)
	args  []string
	log   string
	cmd   *exec.Cmd
}

// LiveCluster is a running cluster of real server processes.
type LiveCluster struct {
	cfg     LiveClusterConfig
	procs   []*liveProc
	logDir  string
	ownsLog bool
	mu      sync.Mutex
}

// StartLiveCluster spawns cfg.Procs server processes on reserved loopback
// ports and blocks until every one accepts TCP connections.
func StartLiveCluster(cfg LiveClusterConfig) (*LiveCluster, error) {
	if cfg.Procs <= 0 {
		cfg.Procs = 3
	}
	if cfg.RF <= 0 || cfg.RF > cfg.Procs {
		cfg.RF = min(3, cfg.Procs)
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = 8
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 250 * time.Millisecond
	}
	if cfg.RepairInterval <= 0 {
		cfg.RepairInterval = 500 * time.Millisecond
	}
	if cfg.Exe == "" {
		cfg.Exe = os.Args[0]
	}
	lc := &LiveCluster{cfg: cfg, logDir: cfg.LogDir}
	if lc.logDir == "" {
		dir, err := os.MkdirTemp("", "harmony-live-*")
		if err != nil {
			return nil, fmt.Errorf("bench: live log dir: %w", err)
		}
		lc.logDir, lc.ownsLog = dir, true
	} else if err := os.MkdirAll(lc.logDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: live log dir: %w", err)
	}

	// Reserve loopback ports per member by binding and releasing (one for
	// the transport, one for the admin endpoint); the window between release
	// and the child's bind is benign locally.
	reserve := func() (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("bench: reserve port: %w", err)
		}
		addr := l.Addr().String()
		l.Close()
		return addr, nil
	}
	members := make([]server.Member, cfg.Procs)
	admins := make([]string, cfg.Procs)
	for i := range members {
		addr, err := reserve()
		if err != nil {
			lc.Close()
			return nil, err
		}
		members[i] = server.Member{ID: ring.NodeID(fmt.Sprintf("n%d", i+1)), Addr: addr}
		if admins[i], err = reserve(); err != nil {
			lc.Close()
			return nil, err
		}
	}
	spec := server.FormatCluster(members)
	for i, m := range members {
		args := []string{
			"-id", string(m.ID),
			"-listen", m.Addr,
			"-cluster", spec,
			"-admin-addr", admins[i],
			"-rf", fmt.Sprint(cfg.RF),
			"-vnodes", fmt.Sprint(cfg.Vnodes),
			"-gossip-interval", cfg.GossipInterval.String(),
			"-streams", fmt.Sprint(max(cfg.Streams, 1)),
		}
		if cfg.Repair {
			args = append(args, "-repair", "-repair-interval", cfg.RepairInterval.String())
		}
		if cfg.HotKeys > 0 {
			args = append(args, "-hot-keys", fmt.Sprint(cfg.HotKeys))
		}
		if cfg.HintQueueLimit > 0 {
			args = append(args, "-hint-queue-limit", fmt.Sprint(cfg.HintQueueLimit))
		}
		if cfg.DataDir != "" {
			args = append(args, "-data-dir", filepath.Join(cfg.DataDir, string(m.ID)))
			if cfg.FsyncInterval > 0 {
				args = append(args, "-fsync-interval", cfg.FsyncInterval.String())
			}
		}
		lc.procs = append(lc.procs, &liveProc{
			id: m.ID, addr: m.Addr, admin: admins[i], args: args,
			log: filepath.Join(lc.logDir, string(m.ID)+".log"),
		})
	}
	for _, p := range lc.procs {
		if err := lc.spawn(p); err != nil {
			lc.Close()
			return nil, err
		}
	}
	for _, p := range lc.procs {
		if err := waitListening(p.addr, 15*time.Second); err != nil {
			lc.Close()
			return nil, fmt.Errorf("bench: member %s never came up (log %s): %w", p.id, p.log, err)
		}
	}
	return lc, nil
}

func (lc *LiveCluster) spawn(p *liveProc) error {
	f, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bench: member log: %w", err)
	}
	cmd := exec.Command(lc.cfg.Exe, p.args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.Env = append(os.Environ(), LiveChildEnv+"=1")
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("bench: spawn %s: %w", p.id, err)
	}
	// The file descriptor is inherited by the child; our handle can close.
	f.Close()
	p.cmd = cmd
	return nil
}

// waitListening polls until a TCP connect to addr succeeds.
func waitListening(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// IDs returns the member ids in spawn order.
func (lc *LiveCluster) IDs() []ring.NodeID {
	out := make([]ring.NodeID, len(lc.procs))
	for i, p := range lc.procs {
		out[i] = p.id
	}
	return out
}

// Peers returns the id -> address map client endpoints dial.
func (lc *LiveCluster) Peers() map[ring.NodeID]string {
	out := make(map[ring.NodeID]string, len(lc.procs))
	for _, p := range lc.procs {
		out[p.id] = p.addr
	}
	return out
}

// AdminAddrs returns the id -> admin HTTP address map (the scrape targets).
// A restarted member rebinds the same admin port.
func (lc *LiveCluster) AdminAddrs() map[ring.NodeID]string {
	out := make(map[ring.NodeID]string, len(lc.procs))
	for _, p := range lc.procs {
		out[p.id] = p.admin
	}
	return out
}

// RF reports the configured replication factor.
func (lc *LiveCluster) RF() int { return lc.cfg.RF }

func (lc *LiveCluster) find(id ring.NodeID) *liveProc {
	for _, p := range lc.procs {
		if p.id == id {
			return p
		}
	}
	return nil
}

// Kill delivers SIGKILL to a member — a genuine crash, not a clean
// shutdown: no flush, no goodbye, the kernel just reaps the sockets.
func (lc *LiveCluster) Kill(id ring.NodeID) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	p := lc.find(id)
	if p == nil || p.cmd == nil {
		return fmt.Errorf("bench: no running member %s", id)
	}
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
	p.cmd = nil
	return nil
}

// Restart respawns a killed member with its original arguments. Without a
// data dir the process returns EMPTY — it lost every row it ever held, the
// worst-case divergence anti-entropy exists to repair. With DataDir set the
// member reopens its bitcask directory and recovers its pre-crash rows
// before accepting connections.
func (lc *LiveCluster) Restart(id ring.NodeID) error {
	lc.mu.Lock()
	p := lc.find(id)
	if p == nil {
		lc.mu.Unlock()
		return fmt.Errorf("bench: unknown member %s", id)
	}
	if p.cmd != nil {
		lc.mu.Unlock()
		return fmt.Errorf("bench: member %s still running", id)
	}
	err := lc.spawn(p)
	lc.mu.Unlock()
	if err != nil {
		return err
	}
	return waitListening(p.addr, 15*time.Second)
}

// Close kills every member and removes the temp log dir (if owned).
func (lc *LiveCluster) Close() {
	lc.mu.Lock()
	for _, p := range lc.procs {
		if p.cmd != nil {
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
			p.cmd = nil
		}
	}
	lc.mu.Unlock()
	if lc.ownsLog && lc.logDir != "" {
		_ = os.RemoveAll(lc.logDir)
	}
}

// liveTally accumulates client-side measurements across all workers. The
// per-group split always uses the hotcold partition so both controller arms
// report comparable group rows.
type liveTally struct {
	mu      sync.Mutex
	ops     int64
	errors  int64
	reads   [2]uint64
	writes  [2]uint64
	samples [2]uint64 // VerifyRead probes per group
	stale   [2]uint64
	readLat stats.Histogram
}

func clampGroup(g int) int {
	if g < 0 || g > 1 {
		return 1
	}
	return g
}

func (t *liveTally) read(g int, d time.Duration, err error, probe, stale bool) {
	g = clampGroup(g)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.reads[g]++
	if err != nil {
		t.errors++
		return
	}
	if probe {
		t.samples[g]++
		if stale {
			t.stale[g]++
		}
	} else {
		t.readLat.Record(d)
	}
}

func (t *liveTally) write(g int, err error) {
	g = clampGroup(g)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.writes[g]++
	if err != nil {
		t.errors++
	}
}

func (t *liveTally) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops, t.errors = 0, 0
	t.reads, t.writes = [2]uint64{}, [2]uint64{}
	t.samples, t.stale = [2]uint64{}, [2]uint64{}
	t.readLat.Reset()
}

type liveTallySnap struct {
	ops     int64
	errors  int64
	reads   [2]uint64
	writes  [2]uint64
	samples [2]uint64
	stale   [2]uint64
	readP99 time.Duration
}

func (t *liveTally) snapshot() liveTallySnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	return liveTallySnap{
		ops: t.ops, errors: t.errors,
		reads: t.reads, writes: t.writes,
		samples: t.samples, stale: t.stale,
		readP99: t.readLat.P99(),
	}
}

// probes returns the cumulative per-group probe counters (window ticker).
func (t *liveTally) probes() (samples, stale [2]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.samples, t.stale
}

// liveWorkerConfig shapes one closed-loop client worker.
type liveWorkerConfig struct {
	id      string
	peers   map[ring.NodeID]string
	coords  []ring.NodeID
	policy  client.ConsistencyPolicy
	streams int
	timeout time.Duration

	readProp    float64
	chooser     dist.KeyChooser
	valueBytes  int
	verifyEvery int
	groupFn     func([]byte) int
	seed        int64

	// maxAttempts / hedge arm the hardened request path: attempt-scoped
	// retries with coordinator failover, and hedged reads. Zero keeps the
	// single-attempt client.
	maxAttempts int
	hedge       time.Duration
}

// liveWorker is one closed-loop client: its own runtime (drivers are
// single-threaded by contract), its own pooled TCP endpoint, one in-flight
// operation at a time. Callbacks run on the runtime, so each completion
// issues the next operation without leaving it.
type liveWorker struct {
	cfg   liveWorkerConfig
	rt    *sim.RealRuntime
	tcp   *transport.TCPNode
	drv   *client.Driver
	rng   *rand.Rand
	tally *liveTally
	value []byte
	reads uint64
	stop  atomic.Bool
	idle  chan struct{}
}

func newLiveWorker(cfg liveWorkerConfig, tally *liveTally) (*liveWorker, error) {
	w := &liveWorker{
		cfg:   cfg,
		rt:    sim.NewRealRuntime(),
		rng:   rand.New(rand.NewSource(cfg.seed)),
		tally: tally,
		value: make([]byte, max(cfg.valueBytes, 1)),
		idle:  make(chan struct{}),
	}
	for i := range w.value {
		w.value[i] = byte('a' + i%26)
	}
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID:    ring.NodeID(cfg.id),
		Peers: cfg.peers, Streams: cfg.streams,
		Logf: func(string, ...any) {}, // peer churn during outages is expected
	}, w.rt, nil)
	if err != nil {
		w.rt.Stop()
		return nil, err
	}
	w.tcp = tcp
	drv, err := client.New(client.Options{
		ID:           ring.NodeID(cfg.id),
		Coordinators: cfg.coords,
		Policy:       cfg.policy,
		Timeout:      cfg.timeout,
		MaxAttempts:  cfg.maxAttempts,
		Hedge:        cfg.hedge,
	}, w.rt, tcp)
	if err != nil {
		tcp.Close()
		w.rt.Stop()
		return nil, err
	}
	w.drv = drv
	tcp.SetHandler(drv)
	return w, nil
}

func (w *liveWorker) start() { w.rt.Post(w.step) }

func (w *liveWorker) step() {
	if w.stop.Load() {
		close(w.idle)
		return
	}
	key := ycsb.Key(w.cfg.chooser.Next(w.rng))
	g := 0
	if w.cfg.groupFn != nil {
		g = w.cfg.groupFn(key)
	}
	if w.rng.Float64() < w.cfg.readProp {
		w.reads++
		start := time.Now()
		if w.cfg.verifyEvery > 0 && w.reads%uint64(w.cfg.verifyEvery) == 0 {
			// The dual-read staleness probe (§V-F literal), bounded by the
			// real-time condition: the primary read was stale only if the
			// strong read surfaces a version that is newer than what we got
			// AND was stamped before the primary read was ISSUED — a write
			// the reader was entitled to observe. Versions stamped while
			// the probe is in flight are concurrent updates, not staleness
			// (the naive dual read counts the hot keys' update rate).
			// Timestamps are coordinator wall clocks; every process shares
			// this host's clock, so they are comparable.
			issuedAt := start.UnixNano()
			w.drv.Read(key, func(primary client.ReadResult) {
				if primary.Err != nil {
					w.tally.read(g, 0, primary.Err, true, false)
					w.step()
					return
				}
				w.drv.ReadAtOnce(key, wire.All, func(strong client.ReadResult) {
					stale := strong.Err == nil && strong.Found &&
						strong.Ts > primary.Ts && strong.Ts <= issuedAt
					w.tally.read(g, time.Since(start), nil, true, stale)
					w.step()
				})
			})
			return
		}
		w.drv.Read(key, func(res client.ReadResult) {
			w.tally.read(g, time.Since(start), res.Err, false, false)
			w.step()
		})
		return
	}
	w.drv.Write(key, w.value, func(res client.WriteResult) {
		w.tally.write(g, res.Err)
		w.step()
	})
}

// halt stops issuing, waits for the in-flight operation to complete (driver
// timeouts guarantee it does), then tears the endpoint down.
func (w *liveWorker) halt() {
	w.stop.Store(true)
	select {
	case <-w.idle:
	case <-time.After(w.cfg.timeout + 3*time.Second):
	}
	w.tcp.Close()
	w.rt.Stop()
}

// livePreload writes keys [0, total) through one pipelined loader endpoint,
// keeping a window of operations in flight. Transient startup errors are
// retried: the cluster has just booted.
func livePreload(peers map[ring.NodeID]string, coords []ring.NodeID, total int64, valueBytes int) error {
	rt := sim.NewRealRuntime()
	defer rt.Stop()
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID: "live-loader", Peers: peers, Streams: 4,
	}, rt, nil)
	if err != nil {
		return err
	}
	defer tcp.Close()
	drv, err := client.New(client.Options{
		ID:           "live-loader",
		Coordinators: coords,
		Policy:       client.Fixed{},
		Timeout:      2 * time.Second,
	}, rt, tcp)
	if err != nil {
		return err
	}
	tcp.SetHandler(drv)

	value := make([]byte, max(valueBytes, 1))
	for i := range value {
		value[i] = byte('0' + i%10)
	}
	done := make(chan error, 1)
	const window = 64
	var issued, completed int64 // touched only on the runtime
	var issue func()
	issue = func() {
		if issued >= total {
			return
		}
		key := ycsb.Key(issued)
		issued++
		var attempt func(tries int)
		attempt = func(tries int) {
			drv.Write(key, value, func(res client.WriteResult) {
				if res.Err != nil && tries < 8 {
					rt.After(125*time.Millisecond, func() { attempt(tries + 1) })
					return
				}
				if res.Err != nil {
					select {
					case done <- fmt.Errorf("bench: preload %q: %w", key, res.Err):
					default:
					}
					return
				}
				completed++
				if completed == total {
					select {
					case done <- nil:
					default:
					}
					return
				}
				issue()
			})
		}
		attempt(0)
	}
	rt.Post(func() {
		for i := 0; i < window; i++ {
			issue()
		}
	})
	select {
	case err := <-done:
		return err
	case <-time.After(2*time.Minute + time.Duration(total)*time.Millisecond):
		return fmt.Errorf("bench: preload of %d keys timed out", total)
	}
}

// liveMonitor runs a real core.Monitor over its own TCP endpoint, feeding a
// controller and recording each member's latest raw stats.
type liveMonitor struct {
	rt  *sim.RealRuntime
	tcp *transport.TCPNode
	mon *core.Monitor

	mu    sync.Mutex
	stats map[ring.NodeID]wire.StatsResponse
}

func startLiveMonitor(lc *LiveCluster, ctl *core.Controller, interval time.Duration) (*liveMonitor, error) {
	m := &liveMonitor{
		rt:    sim.NewRealRuntime(),
		stats: make(map[ring.NodeID]wire.StatsResponse),
	}
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID: "harmony-monitor", Peers: lc.Peers(),
		Logf: func(string, ...any) {},
	}, m.rt, nil)
	if err != nil {
		m.rt.Stop()
		return nil, err
	}
	m.tcp = tcp
	m.mon = core.NewMonitor(core.MonitorConfig{
		ID:             "harmony-monitor",
		Nodes:          lc.IDs(),
		Interval:       interval,
		ReplicaSetSize: lc.RF(),
		OnObservation:  ctl.Observe,
		OnNodeStats: func(node ring.NodeID, s wire.StatsResponse) {
			m.mu.Lock()
			m.stats[node] = s
			m.mu.Unlock()
		},
	}, m.rt, tcp)
	tcp.SetHandler(m.mon)
	m.mon.Start()
	return m, nil
}

// maxAliveOf returns the largest failure-detector alive count any of the
// given members reported in its latest stats, or 0 before any report. The
// max is the view of the best-connected member, so waiting for it to drop
// means every listed member has convicted at least one peer.
func (m *liveMonitor) maxAliveOf(ids []ring.NodeID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	best := 0
	for _, id := range ids {
		if s, ok := m.stats[id]; ok && int(s.AliveMembers) > best {
			best = int(s.AliveMembers)
		}
	}
	return best
}

// nodeStats sums a counter over every member's latest report.
func (m *liveMonitor) nodeStats(f func(wire.StatsResponse) uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum uint64
	for _, s := range m.stats {
		sum += f(s)
	}
	return sum
}

func (m *liveMonitor) close() {
	m.mon.Stop()
	m.tcp.Close()
	m.rt.Stop()
}

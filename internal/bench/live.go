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
	"harmony/internal/dist"
	"harmony/internal/ring"
	"harmony/internal/server"
	"harmony/internal/sim"
	"harmony/internal/stats"
	"harmony/internal/transport"
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
	// its pre-crash rows from disk instead of returning empty. Members
	// run group commit (every apply is durable before its ack).
	DataDir string
	// LogDir receives one log file per member; empty uses a temp dir that
	// Close removes.
	LogDir string
}

// liveVnodes is the virtual nodes per member (small keeps ring construction
// cheap).
const liveVnodes = 8

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
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 250 * time.Millisecond
	}
	if cfg.RepairInterval <= 0 {
		cfg.RepairInterval = 500 * time.Millisecond
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
			"-vnodes", fmt.Sprint(liveVnodes),
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
	cmd := exec.Command(os.Args[0], p.args...)
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

// opCounts are client-side operation counters, split by the hot/cold
// groups.
type opCounts struct {
	ops, errors    int64
	reads, writes  [2]uint64
	samples, stale [2]uint64 // dual-read probes, and the stale ones among them
}

func (c opCounts) minus(o opCounts) opCounts {
	c.ops -= o.ops
	c.errors -= o.errors
	for g := range c.reads {
		c.reads[g] -= o.reads[g]
		c.writes[g] -= o.writes[g]
		c.samples[g] -= o.samples[g]
		c.stale[g] -= o.stale[g]
	}
	return c
}

// liveTally accumulates client-side measurements across all workers. The
// per-group split always uses the hotcold partition so both controller arms
// report comparable group rows. The counters only grow; reset marks where
// a measured interval starts, so staleness windows and the scraper, which
// take deltas of the running totals, never see them go backwards.
type liveTally struct {
	mu      sync.Mutex
	total   opCounts
	base    opCounts        // total at the last reset
	readLat stats.Histogram // since the last reset
}

func (t *liveTally) read(g int, d time.Duration, err error, probe, stale bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total.ops++
	t.total.reads[g]++
	if err != nil {
		t.total.errors++
		return
	}
	if probe {
		t.total.samples[g]++
		if stale {
			t.total.stale[g]++
		}
	} else {
		t.readLat.Record(d)
	}
}

func (t *liveTally) write(g int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total.ops++
	t.total.writes[g]++
	if err != nil {
		t.total.errors++
	}
}

func (t *liveTally) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = t.total
	t.readLat.Reset()
}

// liveTallySnap is the tally over the interval since the last reset.
type liveTallySnap struct {
	opCounts
	readP99 time.Duration
}

func (t *liveTally) snapshot() liveTallySnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	return liveTallySnap{opCounts: t.total.minus(t.base), readP99: t.readLat.P99()}
}

// totals returns the running totals, which reset does not touch.
func (t *liveTally) totals() opCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// probes returns the cumulative per-group probe counters.
func (t *liveTally) probes() (samples, stale [2]uint64) {
	c := t.totals()
	return c.samples, c.stale
}

// liveWorker is one closed-loop client of a live pool: its own runtime
// (drivers are single-threaded by contract), its own pooled TCP endpoint,
// one in-flight operation at a time. Callbacks run on the runtime, so each
// completion issues the next operation without leaving it.
type liveWorker struct {
	p        loadPools
	rt       *sim.RealRuntime
	tcp      *transport.TCPNode
	drv      *client.Driver
	rng      *rand.Rand
	tally    *liveTally
	readProp float64
	chooser  dist.KeyChooser
	group    func([]byte) int
	value    []byte
	reads    uint64
	stop     atomic.Bool
	idle     chan struct{}
	running  bool // set by start; halt waits for an in-flight op only then
}

// addWorker opens one worker of the backend's pools: readProp of its
// operations are reads, over keys drawn from chooser. It issues nothing
// until start.
func (b *liveBackend) addWorker(id string, p loadPools, coords []ring.NodeID, readProp float64, chooser dist.KeyChooser, seed int64) error {
	w := &liveWorker{
		p: p, rt: sim.NewRealRuntime(), rng: rand.New(rand.NewSource(seed)), tally: &b.tally,
		readProp: readProp, chooser: chooser, group: hotColdGroupFn(p.hotKeys),
		value: make([]byte, max(p.valueBytes, 1)), idle: make(chan struct{}),
	}
	for i := range w.value {
		w.value[i] = byte('a' + i%26)
	}
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID: ring.NodeID(id), Peers: b.lc.Peers(), Streams: liveStreams,
		Logf: func(string, ...any) {}, // peer churn during outages is expected
	}, w.rt, nil)
	if err != nil {
		w.rt.Stop()
		return err
	}
	// The hardened request path: a replica that died (or got cut off)
	// mid-conviction stalls one attempt, not the whole op — the retry fails
	// over with fresh replica choices once the detector convicts the peer.
	drv, err := client.New(client.Options{
		ID: ring.NodeID(id), Coordinators: coords, Policy: b.ctl,
		Timeout: p.timeout, MaxAttempts: 2,
	}, w.rt, tcp)
	if err != nil {
		tcp.Close()
		w.rt.Stop()
		return err
	}
	tcp.SetHandler(drv)
	w.tcp, w.drv = tcp, drv
	b.workers = append(b.workers, w)
	return nil
}

func (w *liveWorker) start() {
	w.running = true
	w.rt.Post(w.step)
}

func (w *liveWorker) step() {
	if w.stop.Load() {
		close(w.idle)
		return
	}
	key := ycsb.Key(w.chooser.Next(w.rng))
	g := w.group(key)
	if w.rng.Float64() >= w.readProp {
		w.drv.Write(key, w.value, func(res client.WriteResult) {
			w.tally.write(g, res.Err)
			w.step()
		})
		return
	}
	w.reads++
	start := time.Now()
	if w.p.verifyEvery <= 0 || w.reads%uint64(w.p.verifyEvery) != 0 {
		w.drv.Read(key, func(res client.ReadResult) {
			w.tally.read(g, time.Since(start), res.Err, false, false)
			w.step()
		})
		return
	}
	// The dual-read staleness probe (§V-F literal); VerifyRead counts only
	// versions stamped before the primary read was issued.
	w.drv.VerifyRead(key, func(primary client.ReadResult, stale bool) {
		if primary.Err != nil {
			w.tally.read(g, 0, primary.Err, true, false)
		} else {
			w.tally.read(g, time.Since(start), nil, true, stale)
		}
		w.step()
	})
}

// halt stops issuing, waits for the in-flight operation to complete (driver
// timeouts guarantee it does), then tears the endpoint down.
func (w *liveWorker) halt() {
	w.stop.Store(true)
	if w.running {
		select {
		case <-w.idle:
		case <-time.After(w.p.timeout + 3*time.Second):
		}
	}
	w.tcp.Close()
	w.rt.Stop()
}

func haltAll(workers []*liveWorker) {
	for _, w := range workers {
		w.halt()
	}
}

// preload writes keys [0, total) through a pipelined loader endpoint,
// keeping a window of operations in flight. Transient startup errors are
// retried: the cluster has just booted.
func (b *liveBackend) preload(total int64, valueBytes int) error {
	tcp, err := b.endpoint("live-loader")
	if err != nil {
		return err
	}
	drv, err := client.New(client.Options{
		ID: "live-loader", Coordinators: b.lc.IDs(),
		Policy: client.Fixed{}, Timeout: 2 * time.Second,
	}, b.rt, tcp)
	if err != nil {
		return err
	}
	tcp.SetHandler(drv)

	value := make([]byte, max(valueBytes, 1))
	for i := range value {
		value[i] = byte('0' + i%10)
	}
	done := make(chan error, 1)
	finish := func(err error) {
		select {
		case done <- err:
		default:
		}
	}
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
				switch {
				case res.Err != nil && tries < 8:
					b.rt.After(125*time.Millisecond, func() { attempt(tries + 1) })
				case res.Err != nil:
					finish(fmt.Errorf("bench: preload %q: %w", key, res.Err))
				default:
					if completed++; completed == total {
						finish(nil)
					} else {
						issue()
					}
				}
			})
		}
		attempt(0)
	}
	b.rt.Post(func() {
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

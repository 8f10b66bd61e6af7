// Package server assembles one storage node of the replicated key-value
// store over the TCP transport: ring, gossip, cluster node, optional
// anti-entropy repair and data-dir durability, all on a real runtime. It
// is the embeddable core of cmd/harmony-server — and of harmony-bench's
// live backend, whose child processes run exactly this code path, so the
// live experiments measure the same binary logic a production node runs.
package server

import (
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/faults"
	"harmony/internal/gossip"
	"harmony/internal/obs"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/ycsb"
)

// Member is one parsed -cluster entry.
type Member struct {
	ID   ring.NodeID
	Addr string
	DC   string
	Rack string
}

// ParseCluster parses a comma-separated "id=addr/dc/rack" cluster
// description (the -cluster flag format).
func ParseCluster(spec string) ([]Member, error) {
	var out []Member
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		eq := strings.SplitN(entry, "=", 2)
		if len(eq) != 2 {
			return nil, fmt.Errorf("entry %q: want id=addr/dc/rack", entry)
		}
		parts := strings.Split(eq[1], "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("entry %q: want id=addr/dc/rack", entry)
		}
		out = append(out, Member{
			ID:   ring.NodeID(eq[0]),
			Addr: parts[0],
			DC:   parts[1],
			Rack: parts[2],
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty cluster description")
	}
	return out, nil
}

// FormatCluster renders members back into the -cluster flag format.
func FormatCluster(members []Member) string {
	parts := make([]string, 0, len(members))
	for _, m := range members {
		dc, rack := m.DC, m.Rack
		if dc == "" {
			dc = "dc1"
		}
		if rack == "" {
			rack = "r1"
		}
		parts = append(parts, fmt.Sprintf("%s=%s/%s/%s", m.ID, m.Addr, dc, rack))
	}
	return strings.Join(parts, ",")
}

// Config assembles one storage node.
type Config struct {
	// ID must appear in Members; Listen is the local bind address.
	ID     ring.NodeID
	Listen string
	// Members is the full static cluster membership.
	Members []Member
	// RF is the replication factor; Vnodes the virtual nodes per member.
	RF     int
	Vnodes int
	// ReadRepairChance / HintedHandoff / HintQueueLimit mirror
	// cluster.Config.
	ReadRepairChance float64
	HintedHandoff    bool
	HintQueueLimit   int
	// DataDir, when non-empty, backs the storage engine with the
	// bitcask-style persistent backend under this directory: writes are
	// durable, and a restarted node recovers its pre-crash rows from hint
	// files + log tail replay before serving. The server refuses to start
	// if the directory is locked by another process or stamped with a
	// different on-disk format version.
	DataDir string
	// FsyncInterval selects the persistent engine's durability mode:
	// <= 0 means group commit (writes ack on an fsync batch boundary),
	// > 0 fsyncs in the background every interval. Only used with DataDir.
	FsyncInterval time.Duration
	// GossipInterval is the heartbeat round interval; zero means 1s.
	GossipInterval time.Duration
	// Streams is the TCP transport's per-peer connection pool size.
	Streams int
	// Repair enables anti-entropy Merkle repair; RepairInterval tunes its
	// scheduler cadence. Gossip's down->up transitions trigger priority
	// sessions with recovered peers.
	Repair         bool
	RepairInterval time.Duration
	// HotKeys, when positive, installs the standard two-group telemetry
	// partition used by the hotcold/churn experiments: YCSB keys with
	// index < HotKeys form group 0 (hot), everything else group 1. Zero
	// keeps the classic single implicit group. Online regrouping
	// supersedes the static assignment either way.
	HotKeys int64
	// KeySampleLimit enables per-key access sampling (regrouping input).
	KeySampleLimit int
	// MaxInFlight bounds concurrently coordinated operations on this node;
	// excess requests are shed fail-fast with wire.ErrOverloaded. Zero
	// means unlimited.
	MaxInFlight int
	// AdminAddr, when non-empty, serves the admin HTTP endpoint on this
	// address: /metrics (Prometheus text), /status (JSON snapshot),
	// /trace (control-loop + node event JSONL), /faults (fault-injection
	// control), /debug/pprof/* and /debug/vars. Use ":0" for an ephemeral
	// port (see Server.AdminAddr).
	AdminAddr string
	// LogLevel filters node diagnostics: "debug", "info" (default),
	// "warn", "error". An unknown value is a construction error.
	LogLevel string
	// Logf overrides the diagnostic sink (tests); nil emits through the
	// node's leveled logger at info level.
	Logf func(string, ...any)
}

// Server is a running storage node.
type Server struct {
	cfg       Config
	rt        *sim.RealRuntime
	tcp       *transport.TCPNode
	faults    *faults.Plane
	memberIDs []ring.NodeID
	gossiper  *gossip.Gossiper
	node      *cluster.Node
	dataDir   *storage.DataDir // owned by the engine once the node exists
	logger    *obs.Logger
	opHist    *obs.OpLevelHist
	trace     *obs.Trace
	admin     *obs.Admin
}

// New builds and starts a node: listening, gossiping, serving.
func New(cfg Config) (*Server, error) {
	lvl, err := obs.ParseLogLevel(cfg.LogLevel)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	logger := obs.NewLogger(nil, string(cfg.ID), lvl)
	logf := cfg.Logf
	if logf == nil {
		logf = logger.Logf()
	}
	var infos []ring.NodeInfo
	peers := map[ring.NodeID]string{}
	var peerIDs []ring.NodeID
	found := false
	for _, m := range cfg.Members {
		dc, rack := m.DC, m.Rack
		if dc == "" {
			dc = "dc1"
		}
		if rack == "" {
			rack = "r1"
		}
		infos = append(infos, ring.NodeInfo{ID: m.ID, DC: dc, Rack: rack})
		peers[m.ID] = m.Addr
		peerIDs = append(peerIDs, m.ID)
		if m.ID == cfg.ID {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("server: id %q not present in members", cfg.ID)
	}
	if cfg.RF <= 0 {
		cfg.RF = 3
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = 16
	}
	topo, err := ring.NewTopology(infos)
	if err != nil {
		return nil, fmt.Errorf("server: topology: %w", err)
	}
	rng, err := ring.Build(topo, cfg.Vnodes)
	if err != nil {
		return nil, fmt.Errorf("server: ring: %w", err)
	}

	s := &Server{
		cfg:    cfg,
		rt:     sim.NewRealRuntime(),
		logger: logger,
		opHist: obs.NewOpLevelHist(),
		trace:  obs.NewTrace(1024),
	}

	var engineOpts storage.Options
	if cfg.DataDir != "" {
		// Pre-flight the fallible checks so a locked or version-mismatched
		// data dir is a startup refusal, not an engine panic. The engine
		// takes ownership of the acquired dir; node.Stop releases it.
		dd, err := storage.AcquireDataDir(cfg.DataDir)
		if err != nil {
			s.rt.Stop()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.dataDir = dd
		engineOpts.Persist = &storage.PersistOptions{
			Dir:           dd,
			FsyncInterval: cfg.FsyncInterval,
		}
	}

	// The transport starts with no handler (inbound frames drop like lost
	// packets) and is bound once the node exists — it is the node's Sender,
	// so one of the two must come first.
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID:      cfg.ID,
		Listen:  cfg.Listen,
		Peers:   peers,
		Streams: cfg.Streams,
		Logf:    logf,
	}, s.rt, nil)
	if err != nil {
		s.closePartial()
		return nil, err
	}
	s.tcp = tcp

	// Every outbound frame — gossip and cluster alike — leaves through the
	// member's fault plane, so a POST /faults partition severs this node's
	// side of each link the way the cluster's plane severs a sim node
	// (gossip included: peers across the cut go DOWN, hints queue,
	// fail-fast kicks in). Unarmed it costs one atomic load per send.
	h := fnv.New64a()
	h.Write([]byte(cfg.ID))
	s.memberIDs = peerIDs
	s.faults = faults.New(s.rt, int64(h.Sum64()), peerIDs)
	out := s.faults.Wrap(tcp)

	s.gossiper = gossip.New(gossip.Config{
		ID:       cfg.ID,
		Peers:    peerIDs,
		Interval: cfg.GossipInterval,
		// A recovered peer immediately gets a priority repair session: the
		// down->up transition is the live-cluster analogue of the simulated
		// plane's OnRecover.
		OnRecover: func(peer ring.NodeID) {
			if s.node == nil {
				return
			}
			if m := s.node.RepairManager(); m != nil {
				m.PeerRecovered(peer)
			}
		},
	}, s.rt, out)

	ccfg := cluster.Config{
		ID:               cfg.ID,
		Ring:             rng,
		Strategy:         ring.NetworkTopologyStrategy{RF: cfg.RF},
		ReadRepairChance: cfg.ReadRepairChance,
		HintedHandoff:    cfg.HintedHandoff,
		HintQueueLimit:   cfg.HintQueueLimit,
		Engine:           engineOpts,
		KeySampleLimit:   cfg.KeySampleLimit,
		MaxInFlight:      cfg.MaxInFlight,
		Alive:            s.gossiper.Alive,
		AliveCount:       s.aliveMembers,
		OpHist:           s.opHist,
		Trace:            s.trace,
	}
	if cfg.Repair {
		ccfg.Repair.Enabled = true
		ccfg.Repair.Interval = cfg.RepairInterval
	}
	if cfg.HotKeys > 0 {
		ccfg.Groups = 2
		ccfg.GroupFn = HotColdGroupFn(cfg.HotKeys)
	}
	s.node = cluster.New(ccfg, s.rt, out)

	if cfg.DataDir != "" {
		// Recovery already ran inside cluster.New → storage.Open: the keydir
		// was rebuilt from hint files + tail replay before this line.
		logf("recovered %d rows from %s", s.node.Engine().Recovered(), cfg.DataDir)
	}

	tcp.SetHandler(gossip.Mux{Gossip: s.gossiper, Rest: s.node})
	s.node.Start()
	s.gossiper.Start()

	if cfg.AdminAddr != "" {
		admin, err := obs.StartAdmin(cfg.AdminAddr, obs.AdminConfig{
			Registry: s.buildRegistry(),
			Trace:    s.trace,
			Status:   func() any { return s.status() },
			Faults:   s.faults,
		})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.admin = admin
		logger.Infof("admin endpoint on http://%s (/metrics /status /trace /debug/pprof)", admin.Addr())
	}
	return s, nil
}

// HotColdGroupFn is the standard two-group partition: YCSB key indexes
// below hotKeys are group 0 (hot), everything else group 1. Exported so the
// bench's client-side controllers install the byte-identical function the
// server nodes tally with.
func HotColdGroupFn(hotKeys int64) func(key []byte) int {
	return func(key []byte) int {
		if idx, ok := ycsb.KeyIndex(key); ok && idx < hotKeys {
			return 0
		}
		return 1
	}
}

// Addr is the transport's bound listen address.
func (s *Server) Addr() net.Addr { return s.tcp.Addr() }

// aliveMembers counts cluster members (self included — the detector always
// believes in itself) the gossip detector currently holds UP. It feeds
// StatsResponse.AliveMembers so the monitor, and through it the
// controller's availability clamp, sees each side of a partition shrink to
// the members it can actually reach.
func (s *Server) aliveMembers() int {
	n := 0
	for _, id := range s.memberIDs {
		if s.gossiper.Alive(id) {
			n++
		}
	}
	return n
}

// Node exposes the cluster node (tests, embedders).
func (s *Server) Node() *cluster.Node { return s.node }

// Transport exposes the TCP endpoint (stats).
func (s *Server) Transport() *transport.TCPNode { return s.tcp }

// Faults exposes the node's fault plane (tests, embedders); the admin
// endpoint drives the same plane via POST /faults.
func (s *Server) Faults() *faults.Plane { return s.faults }

// AdminAddr is the admin endpoint's bound address ("" when disabled) —
// useful with Config.AdminAddr ":0".
func (s *Server) AdminAddr() string {
	if s.admin == nil {
		return ""
	}
	return s.admin.Addr()
}

// Trace exposes the node's event ring (tests, embedders).
func (s *Server) Trace() *obs.Trace { return s.trace }

// Logger exposes the node's leveled logger.
func (s *Server) Logger() *obs.Logger { return s.logger }

// Close stops serving: admin, gossip, node, transport, runtime, data dir.
func (s *Server) Close() {
	if s.admin != nil {
		_ = s.admin.Close()
		s.admin = nil
	}
	if s.gossiper != nil {
		s.gossiper.Stop()
	}
	if s.node != nil {
		s.node.Stop()
	}
	s.closePartial()
}

func (s *Server) closePartial() {
	if s.tcp != nil {
		_ = s.tcp.Close()
	}
	s.rt.Stop()
	// The persistent engine owns the data dir once the node exists (Close
	// is idempotent); before that, release the pre-flight lock directly.
	if s.node != nil {
		_ = s.node.Engine().Close()
	} else if s.dataDir != nil {
		_ = s.dataDir.Release()
	}
}

// Main runs a server from command-line arguments and blocks until
// SIGINT/SIGTERM. It is the whole of cmd/harmony-server, and the entry
// point harmony-bench's re-exec'd live-cluster children call — both run
// this exact function, so flags mean the same thing everywhere.
func Main(args []string) int {
	fs := flag.NewFlagSet("harmony-server", flag.ExitOnError)
	var (
		id          = fs.String("id", "", "this node's id (must appear in -cluster)")
		listen      = fs.String("listen", ":7000", "listen address")
		clusterSpec = fs.String("cluster", "", "comma list of id=addr/dc/rack")
		rf          = fs.Int("rf", 3, "replication factor")
		vnodes      = fs.Int("vnodes", 16, "virtual nodes per member")
		readRepair  = fs.Float64("read-repair-chance", 0.1, "probability a read fans out for repair")
		hints       = fs.Bool("hinted-handoff", true, "queue hints for down replicas")
		hintLimit   = fs.Int("hint-queue-limit", 0, "cap queued hints (0 = unlimited; overflow drops mutations)")
		dataDir     = fs.String("data-dir", "", "persistent storage directory (bitcask engine; recovers on restart); empty keeps storage in memory")
		fsyncEvery  = fs.Duration("fsync-interval", 0, "background fsync cadence for -data-dir; 0 = group commit (writes ack on fsync batch boundaries)")
		gossipEvery = fs.Duration("gossip-interval", time.Second, "gossip round interval")
		streams     = fs.Int("streams", 1, "TCP connections pooled per peer")
		repairOn    = fs.Bool("repair", false, "enable anti-entropy Merkle repair")
		repairEvery = fs.Duration("repair-interval", time.Second, "anti-entropy scheduler cadence")
		hotKeys     = fs.Int64("hot-keys", 0, "two-group telemetry split: YCSB key index < hot-keys is group 0")
		sampleLimit = fs.Int("key-sample-limit", 0, "per-key access samples on stats responses (0 disables)")
		maxInFlight = fs.Int("max-inflight", 0, "bound on concurrently coordinated ops; excess shed with 'overloaded' (0 = unlimited)")
		adminAddr   = fs.String("admin-addr", "", "admin HTTP endpoint (/metrics /status /trace /debug/pprof); empty disables")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	)
	_ = fs.Parse(args)
	if *id == "" || *clusterSpec == "" {
		fmt.Fprintln(os.Stderr, "harmony-server: -id and -cluster are required")
		fs.Usage()
		return 2
	}
	lvl, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harmony-server: -log-level: %v\n", err)
		return 2
	}
	logger := obs.NewLogger(nil, *id, lvl)
	members, err := ParseCluster(*clusterSpec)
	if err != nil {
		logger.Errorf("-cluster: %v", err)
		return 1
	}
	s, err := New(Config{
		ID:               ring.NodeID(*id),
		Listen:           *listen,
		Members:          members,
		RF:               *rf,
		Vnodes:           *vnodes,
		ReadRepairChance: *readRepair,
		HintedHandoff:    *hints,
		HintQueueLimit:   *hintLimit,
		DataDir:          *dataDir,
		FsyncInterval:    *fsyncEvery,
		GossipInterval:   *gossipEvery,
		Streams:          *streams,
		Repair:           *repairOn,
		RepairInterval:   *repairEvery,
		HotKeys:          *hotKeys,
		KeySampleLimit:   *sampleLimit,
		MaxInFlight:      *maxInFlight,
		AdminAddr:        *adminAddr,
		LogLevel:         *logLevel,
	})
	if err != nil {
		logger.Errorf("%v", err)
		return 1
	}
	logger.Infof("serving on %s (rf=%d, %d members)", s.Addr(), *rf, len(members))
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	<-sigs
	logger.Infof("shutting down")
	s.Close()
	return 0
}

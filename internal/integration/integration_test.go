// Package integration exercises the full production assembly — storage
// nodes with gossip, hinted handoff and data dirs, connected over real
// TCP, driven by the client library and monitored by Harmony — the same
// wiring cmd/harmony-server uses, in process.
package integration

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gossip"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// lateHandler mirrors cmd/harmony-server's late binding.
type lateHandler struct {
	mu sync.RWMutex
	h  transport.Handler
}

func (l *lateHandler) bind(h transport.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) Deliver(from ring.NodeID, m wire.Message) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h != nil {
		h.Deliver(from, m)
	}
}

// tcpNode is one fully-assembled server.
type tcpNode struct {
	id   ring.NodeID
	rt   *sim.RealRuntime
	tcp  *transport.TCPNode
	node *cluster.Node
	g    *gossip.Gossiper
}

func (n *tcpNode) stop() {
	n.g.Stop()
	n.node.Stop() // closes the engine, releasing its data dir
	_ = n.tcp.Close()
	n.rt.Stop()
}

// tcpCluster assembles size nodes over loopback TCP with RF=3. A non-empty
// dataRoot gives each member a persistent engine in dataRoot/<id>.
func tcpCluster(t *testing.T, size int, dataRoot string) ([]*tcpNode, []ring.NodeID, map[ring.NodeID]string) {
	t.Helper()
	var infos []ring.NodeInfo
	var ids []ring.NodeID
	for i := 0; i < size; i++ {
		id := ring.NodeID(fmt.Sprintf("n%d", i+1))
		ids = append(ids, id)
		infos = append(infos, ring.NodeInfo{ID: id, DC: "dc1", Rack: fmt.Sprintf("r%d", i%2+1)})
	}
	topo, err := ring.NewTopology(infos)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := ring.Build(topo, 8)
	if err != nil {
		t.Fatal(err)
	}

	// First pass: bind listeners on ephemeral ports.
	var nodes []*tcpNode
	addrs := map[ring.NodeID]string{}
	for _, id := range ids {
		rt := sim.NewRealRuntime()
		late := &lateHandler{}
		tcp, err := transport.NewTCPNode(transport.TCPConfig{
			ID:     id,
			Listen: "127.0.0.1:0",
			Logf:   func(string, ...any) {}, // quiet expected drops
		}, rt, late)
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = tcp.Addr().String()
		nodes = append(nodes, &tcpNode{id: id, rt: rt, tcp: tcp})
	}
	// Second pass: address books (including self — a coordinator is also a
	// replica of its own keys and sends itself mutations), gossip, storage.
	for _, n := range nodes {
		for id, addr := range addrs {
			n.tcp.AddPeer(id, addr)
		}
		var engine storage.Options
		if dataRoot != "" {
			engine.Persist = &storage.PersistOptions{Path: filepath.Join(dataRoot, string(n.id))}
		}
		n.g = gossip.New(gossip.Config{
			ID:       n.id,
			Peers:    ids,
			Interval: 200 * time.Millisecond,
			Seed:     int64(len(n.id)),
		}, n.rt, n.tcp)
		n.node = cluster.New(cluster.Config{
			ID:               n.id,
			Ring:             rng,
			Strategy:         ring.NetworkTopologyStrategy{RF: 3},
			ReadRepairChance: 1.0,
			HintedHandoff:    true,
			Engine:           engine,
			Alive:            n.g.Alive,
		}, n.rt, n.tcp)
		late := &lateHandler{}
		late.bind(gossip.Mux{Gossip: n.g, Rest: n.node})
		n.tcp.SetHandler(late)
		n.node.Start()
		n.g.Start()
	}
	return nodes, ids, addrs
}

// tcpClient builds a driver speaking to the cluster over TCP.
func tcpClient(t *testing.T, name string, coords []ring.NodeID, addrs map[ring.NodeID]string, opts client.Options) (*client.Driver, *sim.RealRuntime, func()) {
	t.Helper()
	rt := sim.NewRealRuntime()
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID:    ring.NodeID(name),
		Peers: addrs,
		Logf:  func(string, ...any) {},
	}, rt, transport.HandlerFunc(func(ring.NodeID, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	opts.ID = ring.NodeID(name)
	opts.Coordinators = coords
	drv, err := client.New(opts, rt, tcp)
	if err != nil {
		t.Fatal(err)
	}
	tcp.SetHandler(drv)
	return drv, rt, func() { tcp.Close(); rt.Stop() }
}

func runOn(t *testing.T, rt *sim.RealRuntime, timeout time.Duration, fn func(done func())) {
	t.Helper()
	done := make(chan struct{})
	rt.Post(func() { fn(func() { close(done) }) })
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("operation timed out")
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	nodes, ids, addrs := tcpCluster(t, 4, "")
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	drv, rt, closeClient := tcpClient(t, "it-client", ids, addrs, client.Options{Policy: client.Fixed{Write: wire.Quorum}, Timeout: 5 * time.Second})
	defer closeClient()

	// Write then read back at QUORUM across distinct coordinators.
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("it-key-%d", i)
		val := fmt.Sprintf("it-val-%d", i)
		runOn(t, rt, 5*time.Second, func(done func()) {
			drv.Write([]byte(key), []byte(val), func(r client.WriteResult) {
				if r.Err != nil {
					t.Errorf("write %s: %v", key, r.Err)
				}
				done()
			})
		})
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("it-key-%d", i)
		want := fmt.Sprintf("it-val-%d", i)
		runOn(t, rt, 5*time.Second, func(done func()) {
			drv.ReadAt([]byte(key), wire.Quorum, func(r client.ReadResult) {
				if r.Err != nil || string(r.Value) != want {
					t.Errorf("read %s = %q err=%v, want %q", key, r.Value, r.Err, want)
				}
				done()
			})
		})
	}
}

// TestTCPClusterCommitLogRecovery writes at ALL to members on data dirs,
// stops them, then reopens each member's engine from its dir: replaying the
// append log (the node's commit log) must recover the value on 3/3.
func TestTCPClusterCommitLogRecovery(t *testing.T) {
	dir := t.TempDir()
	nodes, ids, addrs := tcpCluster(t, 3, dir)
	drv, rt, closeClient := tcpClient(t, "rec-client", ids, addrs, client.Options{Policy: client.Fixed{Write: wire.All}, Timeout: 5 * time.Second})

	runOn(t, rt, 5*time.Second, func(done func()) {
		drv.Write([]byte("durable"), []byte("survives-restart"), func(r client.WriteResult) {
			if r.Err != nil {
				t.Errorf("write: %v", r.Err)
			}
			done()
		})
	})
	closeClient()
	for _, n := range nodes {
		n.stop()
	}

	// Reopen each member's engine from its data dir and verify the value.
	recovered := 0
	for _, id := range ids {
		e, err := storage.Open(storage.Options{Persist: &storage.PersistOptions{Path: filepath.Join(dir, string(id))}})
		if err != nil {
			t.Fatalf("reopen %s: %v", id, err)
		}
		if v, ok := e.Get([]byte("durable")); ok && string(v.Data) == "survives-restart" {
			recovered++
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if recovered != 3 {
		t.Fatalf("value recovered on %d/3 nodes", recovered)
	}
}

func TestTCPClusterMonitorObservesLoad(t *testing.T) {
	nodes, ids, addrs := tcpCluster(t, 3, "")
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	drv, rt, closeClient := tcpClient(t, "load-client", ids, addrs, client.Options{Policy: client.Fixed{Write: wire.One}, Timeout: 5 * time.Second})
	defer closeClient()

	// A separate monitoring endpoint, as harmony-client's monitor mode.
	var mu sync.Mutex
	var obs []core.Observation
	monRT := sim.NewRealRuntime()
	defer monRT.Stop()
	monTCP, err := transport.NewTCPNode(transport.TCPConfig{
		ID:    "it-monitor",
		Peers: addrs,
		Logf:  func(string, ...any) {},
	}, monRT, transport.HandlerFunc(func(ring.NodeID, wire.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer monTCP.Close()
	mon := core.NewMonitor(core.MonitorConfig{
		ID:             "it-monitor",
		Nodes:          ids,
		Interval:       300 * time.Millisecond,
		ReplicaSetSize: 3,
		OnObservation: func(o core.Observation) {
			mu.Lock()
			obs = append(obs, o)
			mu.Unlock()
		},
	}, monRT, monTCP)
	monTCP.SetHandler(mon)
	mon.Start()
	defer mon.Stop()

	// Offer steady load for ~1.5s wall time.
	deadline := time.Now().Add(1500 * time.Millisecond)
	i := 0
	for time.Now().Before(deadline) {
		i++
		key := fmt.Sprintf("mk-%d", i%10)
		runOn(t, rt, 5*time.Second, func(done func()) {
			drv.Write([]byte(key), []byte("v"), func(client.WriteResult) {
				drv.Read([]byte(key), func(client.ReadResult) { done() })
			})
		})
	}
	time.Sleep(700 * time.Millisecond) // allow a final monitor round
	mu.Lock()
	defer mu.Unlock()
	if len(obs) == 0 {
		t.Fatal("monitor produced no observations over TCP")
	}
	sawRates := false
	for _, o := range obs {
		if o.ReadRate > 0 && o.WriteInterval > 0 && o.Latency > 0 {
			sawRates = true
		}
	}
	if !sawRates {
		t.Fatalf("no observation carried rates and latency: %+v", obs)
	}
}

func TestTCPGossipConvictsKilledNode(t *testing.T) {
	nodes, ids, _ := tcpCluster(t, 4, "")
	defer func() {
		for _, n := range nodes {
			if n.tcp != nil {
				n.stop()
			}
		}
	}()
	// Warm up gossip.
	time.Sleep(1200 * time.Millisecond)
	for _, id := range ids {
		if !nodes[0].g.Alive(id) {
			t.Fatalf("healthy peer %s convicted prematurely", id)
		}
	}
	// Kill n4 outright.
	victim := nodes[3]
	victim.stop()
	victim.tcp = nil

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if !nodes[0].g.Alive("n4") {
			return // convicted
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatalf("n4 never convicted (phi=%v)", nodes[0].g.Phi("n4"))
}

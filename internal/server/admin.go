package server

import (
	"strconv"

	"harmony/internal/cluster"
	"harmony/internal/obs"
	"harmony/internal/storage"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// GroupStatus is one key group's slice of the /status document: its traffic
// split, the consistency levels that traffic actually ran at, and the
// shadow-sampled staleness estimate for the current grouping epoch.
type GroupStatus struct {
	Group  int    `json:"group"`
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	// Level is the consistency level the plurality of the group's
	// coordinated traffic was served at this epoch ("" before any traffic).
	Level string `json:"level,omitempty"`
	// LevelUse tallies coordinated operations per consistency level.
	LevelUse map[string]uint64 `json:"level_use,omitempty"`
	// StaleRate is the shadow-sampled stale-read fraction (the §V-F dual
	// read probe): ShadowStale/ShadowSamples, 0 with no samples.
	StaleRate     float64 `json:"stale_rate"`
	ShadowSamples uint64  `json:"shadow_samples"`
}

// Status is the /status document: one JSON snapshot of the node's live
// state across every subsystem. It is assembled per request.
type Status struct {
	Node           string               `json:"node"`
	Addr           string               `json:"addr"`
	GroupEpoch     uint64               `json:"group_epoch"`
	HintQueueDepth int                  `json:"hint_queue_depth"`
	RepairSessions int                  `json:"repair_active_sessions"`
	Groups         []GroupStatus        `json:"groups"`
	Metrics        cluster.Metrics      `json:"metrics"`
	Storage        storage.Stats        `json:"storage"`
	Transport      transport.TCPStats   `json:"transport"`
	Peers          []transport.PeerStat `json:"peers"`
}

// status assembles the /status document from live subsystem snapshots.
func (s *server) status() Status {
	m := s.node.Snapshot()
	st := Status{
		Node:           string(s.cfg.ID),
		GroupEpoch:     m.GroupEpoch,
		HintQueueDepth: s.node.HintDepth(),
		Groups:         groupStatuses(m),
		Metrics:        m,
		Storage:        s.node.Engine().Stats(),
		Transport:      s.tcp.Stats(),
		Peers:          s.tcp.PeerStats(),
	}
	if a := s.tcp.Addr(); a != nil {
		st.Addr = a.String()
	}
	if rm := s.node.RepairManager(); rm != nil {
		st.RepairSessions = rm.ActiveSessions()
	}
	return st
}

// groupStatuses derives the per-group view from one metrics snapshot.
func groupStatuses(m cluster.Metrics) []GroupStatus {
	out := make([]GroupStatus, 0, len(m.GroupReads))
	for g := range m.GroupReads {
		gs := GroupStatus{Group: g, Reads: m.GroupReads[g]}
		if g < len(m.GroupWrites) {
			gs.Writes = m.GroupWrites[g]
		}
		if g < len(m.GroupShadowSamples) {
			gs.ShadowSamples = m.GroupShadowSamples[g]
			if gs.ShadowSamples > 0 && g < len(m.GroupShadowStale) {
				gs.StaleRate = float64(m.GroupShadowStale[g]) / float64(gs.ShadowSamples)
			}
		}
		if g < len(m.GroupLevelUse) {
			var best uint64
			for l, n := range m.GroupLevelUse[g] {
				if n == 0 {
					continue
				}
				if gs.LevelUse == nil {
					gs.LevelUse = make(map[string]uint64)
				}
				name := wire.ConsistencyLevel(l).String()
				gs.LevelUse[name] = n
				if n > best {
					best, gs.Level = n, name
				}
			}
		}
		out = append(out, gs)
	}
	return out
}

// buildRegistry assembles the node's metric collectors: cluster counters,
// per-group tallies, storage gauges, transport counters with per-peer queue
// depth, repair gauges, and the op×level latency summaries. Every series
// carries a node label so multi-node scrapes merge cleanly.
func (s *server) buildRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	base := []obs.Label{{Name: "node", Value: string(s.cfg.ID)}}
	reg.Register(s.clusterCollector(base))
	reg.Register(s.storageCollector(base))
	reg.Register(s.transportCollector(base))
	reg.Register(obs.OpLatencyCollector(s.opHist, base...))
	return reg
}

func sample(emit func(obs.Metric), t obs.MetricType, name, help string, labels []obs.Label, v float64) {
	emit(obs.Metric{Name: name, Help: help, Type: t, Labels: labels, Value: v})
}

// withLabel copies base and appends extra labels (collectors must not share
// a mutated backing array between emitted series).
func withLabel(base []obs.Label, extra ...obs.Label) []obs.Label {
	out := make([]obs.Label, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

func (s *server) clusterCollector(base []obs.Label) obs.Collector {
	return func(emit func(obs.Metric)) {
		m := s.node.Snapshot()
		c := func(name, help string, v uint64) { sample(emit, obs.Counter, name, help, base, float64(v)) }
		c("harmony_reads_total", "Client reads coordinated.", m.Reads)
		c("harmony_writes_total", "Client writes coordinated.", m.Writes)
		c("harmony_replica_ops_total", "Replica-level reads and mutations served.", m.ReplicaOps)
		c("harmony_bytes_read_total", "Payload bytes returned to clients.", m.BytesRead)
		c("harmony_bytes_written_total", "Payload bytes written by clients.", m.BytesWritten)
		c("harmony_repairs_sent_total", "Read-repair mutations sent.", m.RepairsSent)
		c("harmony_hints_queued_total", "Hints queued for down replicas.", m.HintsQueued)
		c("harmony_hints_replayed_total", "Hints replayed to recovered replicas.", m.HintsReplayed)
		c("harmony_hints_dropped_total", "Hints lost to overflow or coordinator crash.", m.HintsDropped)
		c("harmony_read_timeouts_total", "Coordinated reads that timed out.", m.ReadTimeouts)
		c("harmony_write_timeouts_total", "Coordinated writes that timed out.", m.WriteTimeouts)
		c("harmony_unavailable_total", "Operations failed fast for lack of live replicas.", m.Unavailable)
		c("harmony_overloaded_total", "Operations shed at the coordinator's in-flight bound.", m.Overloaded)
		c("harmony_repair_rows_total", "Rows anti-entropy healed on this node.", m.RepairRows)
		c("harmony_shadow_samples_total", "Reads carrying the dual-read staleness probe.", m.ShadowSamples)
		c("harmony_shadow_stale_total", "Shadow probes that observed a stale value.", m.ShadowStale)
		c("harmony_session_upgrades_total", "SESSION reads that fanned out for token coverage.", m.SessionUpgrades)
		sample(emit, obs.Gauge, "harmony_hint_queue_depth",
			"Hints currently queued for down replicas.", base, float64(s.node.HintDepth()))
		sample(emit, obs.Gauge, "harmony_group_epoch",
			"Grouping epoch the node's counters belong to.", base, float64(m.GroupEpoch))
		if rm := s.node.RepairManager(); rm != nil {
			sample(emit, obs.Gauge, "harmony_repair_active_sessions",
				"Anti-entropy repair sessions in flight.", base, float64(rm.ActiveSessions()))
		}
		for g := range m.GroupReads {
			gl := withLabel(base, obs.Label{Name: "group", Value: strconv.Itoa(g)})
			sample(emit, obs.Counter, "harmony_group_reads_total",
				"Coordinated reads per key group (since the current epoch).", gl, float64(m.GroupReads[g]))
			if g < len(m.GroupWrites) {
				sample(emit, obs.Counter, "harmony_group_writes_total",
					"Coordinated writes per key group (since the current epoch).", gl, float64(m.GroupWrites[g]))
			}
			if g >= len(m.GroupLevelUse) {
				continue
			}
			for l, n := range m.GroupLevelUse[g] {
				if n == 0 {
					continue
				}
				sample(emit, obs.Counter, "harmony_group_level_use_total",
					"Coordinated operations per key group and consistency level.",
					withLabel(gl, obs.Label{Name: "level", Value: wire.ConsistencyLevel(l).String()}),
					float64(n))
			}
		}
	}
}

func (s *server) storageCollector(base []obs.Label) obs.Collector {
	return func(emit func(obs.Metric)) {
		st := s.node.Engine().Stats()
		g := func(name, help string, v float64) { sample(emit, obs.Gauge, name, help, base, v) }
		c := func(name, help string, v uint64) { sample(emit, obs.Counter, name, help, base, float64(v)) }
		g("harmony_storage_live_keys", "Distinct keys resident across shards.", float64(st.LiveKeys))
		g("harmony_storage_keydir_bytes", "Estimated resident bytes of the persistent keydirs.", float64(st.KeydirBytes))
		g("harmony_storage_disk_segments", "Data files on disk across shards.", float64(st.DiskSegments))
		g("harmony_storage_disk_bytes", "Total log bytes on disk.", float64(st.DiskBytes))
		g("harmony_storage_disk_dead_bytes", "Disk bytes owned by overwritten records.", float64(st.DiskDeadBytes))
		c("harmony_storage_writes_total", "Engine apply operations.", st.Writes)
		c("harmony_storage_reads_total", "Engine read operations.", st.Reads)
		c("harmony_storage_compactions_total", "Segment compactions completed.", st.Compactions)
		c("harmony_storage_siblings_total", "Applies whose incoming and held versions shared a timestamp but differed in content.", st.Siblings)
		c("harmony_storage_fsyncs_total", "Fsync calls issued by group-commit rounds.", st.Fsyncs)
		c("harmony_storage_fsync_batched_ops_total", "Appends covered by those fsync rounds.", st.FsyncBatchedOps)
	}
}

func (s *server) transportCollector(base []obs.Label) obs.Collector {
	return func(emit func(obs.Metric)) {
		st := s.tcp.Stats()
		c := func(name, help string, v uint64) { sample(emit, obs.Counter, name, help, base, float64(v)) }
		c("harmony_transport_frames_sent_total", "Frames handed to the kernel.", st.FramesSent)
		c("harmony_transport_frames_dropped_total", "Frames dropped (dead peer, backpressure).", st.FramesDropped)
		c("harmony_transport_frames_received_total", "Frames received.", st.FramesReceived)
		c("harmony_transport_bytes_sent_total", "Wire bytes sent.", st.BytesSent)
		c("harmony_transport_batches_total", "Coalesced write batches flushed.", st.Batches)
		c("harmony_transport_dials_total", "Successful peer dials.", st.Dials)
		c("harmony_transport_dial_failures_total", "Failed peer dial attempts.", st.DialFailures)
		for _, p := range s.tcp.PeerStats() {
			pl := withLabel(base, obs.Label{Name: "peer", Value: string(p.Peer)})
			sample(emit, obs.Gauge, "harmony_transport_peer_queue_bytes",
				"Send-queue bytes pending toward the peer.", pl, float64(p.PendingBytes))
			sample(emit, obs.Gauge, "harmony_transport_peer_streams",
				"Live pooled connections to the peer.", pl, float64(p.Streams))
			sample(emit, obs.Counter, "harmony_transport_peer_dials_total",
				"Successful dials to the peer.", pl, float64(p.Dials))
		}
	}
}

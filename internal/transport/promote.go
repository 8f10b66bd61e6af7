package transport

import "harmony/internal/wire"

// promote copies, out of the receive frame, exactly the byte fields that are
// known to outlive their Deliver call — the copy-on-escape half of the
// DecodeShared aliasing contract. The TCP receive path decodes each frame
// zero-copy into a pooled buffer and releases the buffer as soon as the
// handler's post completes; any decoded bytes a handler retains past that
// point must therefore be owned copies. Promotion happens here, per message
// kind, so the handlers themselves — which the in-memory fabrics drive with
// unencoded structs — stay copy-free on the simulated hot path.
//
// The escape inventory (which fields handlers retain beyond Deliver):
//
//	ReadRequest.Key        coordinator read table (pendingReads) + ReplicaRead fan-out
//	WriteRequest.Key/Value coordinator builds Mutation{Key, Value{Data}}; hints retain it
//	ReadResponse.Value     client callback may keep the result bytes
//	ReplicaReadResp.Value  coordinator keeps replica versions in op.got
//	Mutation.Value.Data    storage engine stores the Value as-is
//	Repair.Value.Data      storage engine, same path
//	RangeSync entries      storage engine, via repair.Manager.applyEntries
//	StatsResponse samples  regrouping subsystem retains KeySamples
//
// Keys applied to the storage engine (Mutation.Key, Repair.Key, SyncEntry
// .Key) are safe un-promoted: the engine interns them via string conversion.
// Every other kind decodes byte-free or into freshly allocated slices
// (gossip digests, Merkle leaves), so it passes through untouched.
// When adding a message kind or a new retention site, extend this table.
func promote(m wire.Message) wire.Message {
	switch v := m.(type) {
	case wire.ReadRequest:
		v.Key = cloneBytes(v.Key)
		return v
	case wire.WriteRequest:
		v.Key = cloneBytes(v.Key)
		v.Value = cloneBytes(v.Value)
		return v
	case wire.ReadResponse:
		v.Value.Data = cloneBytes(v.Value.Data)
		return v
	case wire.ReplicaReadResp:
		v.Value.Data = cloneBytes(v.Value.Data)
		return v
	case wire.Mutation:
		v.Value.Data = cloneBytes(v.Value.Data)
		return v
	case wire.Repair:
		v.Value.Data = cloneBytes(v.Value.Data)
		return v
	case wire.RangeSync:
		// Entries is itself a fresh slice; only the row payloads alias.
		for i := range v.Entries {
			v.Entries[i].Value.Data = cloneBytes(v.Entries[i].Value.Data)
		}
		return v
	case wire.StatsResponse:
		for i := range v.KeySamples {
			v.KeySamples[i].Key = cloneBytes(v.KeySamples[i].Key)
		}
		return v
	}
	return m
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

package micro

import (
	"testing"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

// transportPair builds a client/server TCP endpoint pair over loopback.
// Only the server listens; the client dials and replies come back over the
// accepted connections, the same path harmony-client and the live bench
// use. Handlers are installed after construction (SetHandler) because the
// server's echo handler needs the server node to reply through.
func transportPair(b *testing.B, streams int) (cli, srv *transport.TCPNode) {
	b.Helper()
	rtC, rtS := sim.NewRealRuntime(), sim.NewRealRuntime()
	noop := transport.HandlerFunc(func(ring.NodeID, wire.Message) {})
	silent := func(string, ...any) {}
	srv, err := transport.NewTCPNode(transport.TCPConfig{
		ID: "micro-srv", Listen: "127.0.0.1:0", Streams: streams, Logf: silent,
	}, rtS, noop)
	if err != nil {
		b.Fatal(err)
	}
	cli, err = transport.NewTCPNode(transport.TCPConfig{
		ID: "micro-cli", Streams: streams, Logf: silent,
	}, rtC, noop)
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	cli.AddPeer("micro-srv", srv.Addr().String())
	b.Cleanup(func() {
		cli.Close()
		srv.Close()
		rtC.Stop()
		rtS.Stop()
	})
	return cli, srv
}

func echoPings(srv *transport.TCPNode) {
	srv.SetHandler(transport.HandlerFunc(func(from ring.NodeID, m wire.Message) {
		srv.Send("micro-srv", from, wire.Pong{ID: m.(wire.Ping).ID, Sent: m.(wire.Ping).Sent})
	}))
}

// TransportSerialRPC measures one strictly serial ping/pong round trip per
// iteration over a single TCP stream — the request/response latency floor
// every coordinator hop pays when nothing is pipelined.
func TransportSerialRPC(b *testing.B) {
	cli, srv := transportPair(b, 1)
	echoPings(srv)
	done := make(chan uint64, 1)
	cli.SetHandler(transport.HandlerFunc(func(_ ring.NodeID, m wire.Message) {
		done <- m.(wire.Pong).ID
	}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.Send("micro-cli", "micro-srv", wire.Ping{ID: uint64(i)})
		if got := <-done; got != uint64(i) {
			b.Fatalf("pong %d, want %d", got, i)
		}
	}
}

// TransportPipelinedRPC measures the same ping/pong exchange with 64
// requests in flight across a 4-stream pool — what connection pooling plus
// pipelining buys over TransportSerialRPC.
func TransportPipelinedRPC(b *testing.B) {
	const window = 64
	cli, srv := transportPair(b, 4)
	echoPings(srv)
	recv := make(chan struct{}, window)
	cli.SetHandler(transport.HandlerFunc(func(ring.NodeID, wire.Message) {
		recv <- struct{}{}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	inflight := 0
	for i := 0; i < b.N; i++ {
		if inflight == window {
			<-recv
			inflight--
		}
		cli.Send("micro-cli", "micro-srv", wire.Ping{ID: uint64(i)})
		inflight++
	}
	for ; inflight > 0; inflight-- {
		<-recv
	}
}

// TransportBatchedThroughput drives acked ~128-byte mutations through a
// bounded in-flight window — the replica write fan-out shape — over one
// coalescing stream. The window (well under the pending-bytes cap) keeps the backlog
// cap out of play.
func TransportBatchedThroughput(b *testing.B) {
	const window = 512
	cli, srv := transportPair(b, 1)
	srv.SetHandler(transport.HandlerFunc(func(from ring.NodeID, m wire.Message) {
		srv.Send("micro-srv", from, wire.MutationAck{ID: m.(wire.Mutation).ID})
	}))
	recv := make(chan struct{}, window)
	cli.SetHandler(transport.HandlerFunc(func(ring.NodeID, wire.Message) {
		recv <- struct{}{}
	}))
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	key := []byte("user00001234")
	b.ReportAllocs()
	b.ResetTimer()
	inflight := 0
	for i := 0; i < b.N; i++ {
		if inflight == window {
			<-recv
			inflight--
		}
		cli.Send("micro-cli", "micro-srv", wire.Mutation{
			ID: uint64(i), Key: key, Value: wire.Value{Data: payload, Timestamp: int64(i + 1)},
		})
		inflight++
	}
	for ; inflight > 0; inflight-- {
		<-recv
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
)

// reservePort grabs an ephemeral loopback port and frees it for the server
// to bind — the same trick the live bench uses to pre-agree addresses.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServerAdminEndpoint drives traffic through a real single-node server
// and checks the admin surfaces reflect it: /metrics exposes the cluster,
// storage, transport and latency families; /status round-trips as JSON with
// live counters; /trace answers well-formed.
func TestServerAdminEndpoint(t *testing.T) {
	addr := reservePort(t)
	s, err := newServer(config{
		ID:        "n1",
		Listen:    addr,
		Members:   []Member{{ID: "n1", Addr: addr}},
		RF:        1,
		AdminAddr: "127.0.0.1:0",
		LogLevel:  "error",
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	if s.adminAddr() == "" {
		t.Fatal("admin endpoint not started")
	}

	rt := sim.NewRealRuntime()
	defer rt.Stop()
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID:    "cli",
		Peers: map[ring.NodeID]string{"n1": addr},
		Logf:  func(string, ...any) {},
	}, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	drv, err := client.New(client.Options{
		ID:           "cli",
		Coordinators: []ring.NodeID{"n1"},
		Timeout:      2 * time.Second,
	}, rt, tcp)
	if err != nil {
		t.Fatal(err)
	}
	tcp.SetHandler(drv)

	const ops = 16
	for i := 0; i < ops; i++ {
		key := []byte(fmt.Sprintf("user%d", i))
		done := make(chan error, 1)
		rt.Post(func() {
			drv.Write(key, []byte("v"), func(w client.WriteResult) { done <- w.Err })
		})
		if err := <-done; err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		rt.Post(func() {
			drv.Read(key, func(r client.ReadResult) { done <- r.Err })
		})
		if err := <-done; err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}

	base := "http://" + s.adminAddr()
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`harmony_writes_total{node="n1"} `,
		`harmony_reads_total{node="n1"} `,
		"# TYPE harmony_storage_live_keys gauge",
		"# TYPE harmony_transport_frames_received_total counter",
		`harmony_op_latency_seconds_count{node="n1",op="read",level="ONE"} `,
		`harmony_op_latency_seconds_count{node="n1",op="write",level="ONE"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = httpGet(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status status %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status decode: %v\n%s", err, body)
	}
	if st.Node != "n1" {
		t.Errorf("status node = %q", st.Node)
	}
	if st.Metrics.Writes < ops || st.Metrics.Reads < ops {
		t.Errorf("status counters reads=%d writes=%d, want >= %d each", st.Metrics.Reads, st.Metrics.Writes, ops)
	}
	if st.Storage.LiveKeys < ops {
		t.Errorf("status live keys = %d, want >= %d", st.Storage.LiveKeys, ops)
	}
	if len(st.Groups) == 0 || st.Groups[0].Level != "ONE" {
		t.Errorf("status groups = %+v, want group 0 served at ONE", st.Groups)
	}

	if code, _ := httpGet(t, base+"/trace"); code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	if code, _ := httpGet(t, base+"/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}

	// Counters must be monotone across scrapes: drive more traffic and
	// re-parse the same series.
	_, body = httpGet(t, base+"/metrics")
	before := promValue(t, body, `harmony_writes_total{node="n1"}`)
	done := make(chan error, 1)
	rt.Post(func() {
		drv.Write([]byte("monotone"), []byte("v"), func(w client.WriteResult) { done <- w.Err })
	})
	if err := <-done; err != nil {
		t.Fatalf("monotone write: %v", err)
	}
	_, body2 := httpGet(t, base+"/metrics")
	after := promValue(t, body2, `harmony_writes_total{node="n1"}`)
	if after <= before {
		t.Errorf("harmony_writes_total not monotone: %v then %v", before, after)
	}
}

// promValue parses one series' value out of a /metrics exposition body.
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[len(series):]), 64)
		if err != nil {
			t.Fatalf("series %q: bad value in %q: %v", series, line, err)
		}
		return v
	}
	t.Fatalf("series %q not found in /metrics body", series)
	return 0
}

// TestServerRejectsBadLogLevel pins the -log-level validation path.
func TestServerRejectsBadLogLevel(t *testing.T) {
	addr := reservePort(t)
	_, err := newServer(config{
		ID:       "n1",
		Listen:   addr,
		Members:  []Member{{ID: "n1", Addr: addr}},
		RF:       1,
		LogLevel: "loud",
	})
	if err == nil || !strings.Contains(err.Error(), "log level") {
		t.Fatalf("err = %v, want log level error", err)
	}
}

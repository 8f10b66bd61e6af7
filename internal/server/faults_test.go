package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/faults"
	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/transport"
	"harmony/internal/wire"
)

func httpPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

// TestLiveFaultEndpointPartitions drives the whole live fault plane: two
// real server processes-worth of stacks in one test binary, a partition
// installed at runtime via POST /faults, strict writes failing across the
// cut while the endpoint reports the rules, then a heal restoring service.
func TestLiveFaultEndpointPartitions(t *testing.T) {
	addr1, addr2 := reservePort(t), reservePort(t)
	members := []Member{{ID: "n1", Addr: addr1}, {ID: "n2", Addr: addr2}}
	mk := func(id ring.NodeID, listen string) *server {
		s, err := newServer(config{
			ID: id, Listen: listen, Members: members, RF: 2,
			AdminAddr: "127.0.0.1:0", LogLevel: "error", Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.stop)
		return s
	}
	s1 := mk("n1", addr1)
	mk("n2", addr2)

	rt := sim.NewRealRuntime()
	defer rt.Stop()
	tcp, err := transport.NewTCPNode(transport.TCPConfig{
		ID:    "cli",
		Peers: map[ring.NodeID]string{"n1": addr1},
		Logf:  func(string, ...any) {},
	}, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	drv, err := client.New(client.Options{
		ID: "cli", Coordinators: []ring.NodeID{"n1"}, Timeout: 400 * time.Millisecond,
		Policy: client.Fixed{Write: wire.All},
	}, rt, tcp)
	if err != nil {
		t.Fatal(err)
	}
	tcp.SetHandler(drv)

	write := func(key string) error {
		done := make(chan error, 1)
		rt.Post(func() {
			drv.Write([]byte(key), []byte("v"), func(w client.WriteResult) { done <- w.Err })
		})
		return <-done
	}

	if err := write("before"); err != nil {
		t.Fatalf("pre-cut ALL write: %v", err)
	}

	base := "http://" + s1.adminAddr()
	code, body := httpPost(t, base+"/faults", `{"partition":{"a":["n1"],"b":["*"]}}`)
	if code != http.StatusOK {
		t.Fatalf("POST /faults: %d %s", code, body)
	}
	var st faults.State
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("snapshot decode: %v\n%s", err, body)
	}
	if len(st.Partitions) != 1 {
		t.Fatalf("snapshot partitions = %+v, want 1", st.Partitions)
	}

	err = write("during")
	if err == nil {
		t.Fatal("ALL write across the cut succeeded")
	}
	if !errors.Is(err, client.ErrTimeout) && !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("cut write err = %v, want timeout/unavailable", err)
	}

	if code, body = httpPost(t, base+"/faults", `{"heal":true}`); code != http.StatusOK {
		t.Fatalf("heal: %d %s", code, body)
	}
	// Gossip may need a round or two to see the peer as UP again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = write("after"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-heal ALL write still failing: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	if code, _ = httpGet(t, base+"/faults"); code != http.StatusOK {
		t.Fatalf("GET /faults: %d", code)
	}
}

package main

import (
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"time"
)

// The box index: what this machine, right now, charges for the kind of work
// the workloads do, measured with no code of the store in it. The reference
// box is a small VM on a shared host and its speed wanders by tens of percent
// over an hour; these three numbers are recorded with every run so a reader
// can tell a slow store from a slow afternoon. They are diagnostics: nothing
// is divided by them.

// loopbackRTT is the median of n one-byte round trips between two goroutines
// over loopback TCP: two system calls, the netpoller and a wake-up each way —
// the members' hot path with the protocol taken out.
func loopbackRTT(n int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b := make([]byte, 1)
		for {
			if _, err := c.Read(b); err != nil {
				return
			}
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	b := make([]byte, 1)
	rtts := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := c.Write(b); err != nil {
			return 0, err
		}
		if _, err := c.Read(b); err != nil {
			return 0, err
		}
		rtts = append(rtts, int64(time.Since(t)))
	}
	sortInt64(rtts)
	return time.Duration(percentile(rtts, 0.5)), nil
}

var boxSink uint64

// aluTime is a fixed pure-register loop, the fastest of three tries.
func aluTime() time.Duration {
	best := time.Duration(1 << 62)
	for try := 0; try < 3; try++ {
		t := time.Now()
		x := uint64(1)
		for i := 0; i < 10_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			boxSink += x >> 33
		}
		best = min(best, time.Since(t))
	}
	return best
}

// chase is one random cycle through 16 MiB of indices, built once: every
// load depends on the one before and misses the caches, so a walk over it
// times memory latency, which neighbours on the host's cache and memory bus
// change and a register loop or a streaming copy does not feel.
var chase = func() []uint32 {
	const n = 4 << 20
	next := make([]uint32, n)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for i := range perm {
		next[perm[i]] = uint32(perm[(i+1)%n])
	}
	return next
}

// chaseTime is nanoseconds per dependent load, the fastest of three walks.
func chaseTime(next []uint32) float64 {
	const steps = 1 << 20
	best := time.Duration(1 << 62)
	at := uint32(0)
	for try := 0; try < 3; try++ {
		t := time.Now()
		for i := 0; i < steps; i++ {
			at = next[at]
		}
		best = min(best, time.Since(t))
	}
	boxSink += uint64(at)
	return float64(best.Nanoseconds()) / steps
}

// boxReading is one reading of the index; a run takes a few and boxReport
// reduces them to their median.
type boxReading struct {
	rtt, alu time.Duration
	chaseNs  float64
}

// boxProber holds the chase table between readings.
type boxProber struct{ next []uint32 }

func (b *boxProber) probe() (boxReading, error) {
	if b.next == nil {
		b.next = chase()
	}
	rtt, err := loopbackRTT(2000)
	return boxReading{rtt, aluTime(), chaseTime(b.next)}, err
}

func boxReport(res *result, rs []boxReading) {
	var rtt, alu, ch []float64
	for _, r := range rs {
		rtt = append(rtt, float64(r.rtt)/1e3)
		alu = append(alu, float64(r.alu)/1e6)
		ch = append(ch, r.chaseNs)
	}
	res.layer("box.loopback_rtt_us", scalar(median(rtt)))
	res.layer("box.alu_ms", scalar(median(alu)))
	res.layer("box.chase_ns", scalar(median(ch)))
}

// cpuTicks is one reading of /proc/stat's per-CPU lines: ticks spent busy and
// ticks in all (busy, idle and stolen by the host).
type cpuTicks struct{ busy, total []float64 }

func readCPUTicks() (t cpuTicks) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] == "cpu" || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		var v [8]float64 // user nice system idle iowait irq softirq steal
		for i := range v {
			v[i], _ = strconv.ParseFloat(f[i+1], 64)
		}
		busy := v[0] + v[1] + v[2] + v[5] + v[6]
		t.busy = append(t.busy, busy)
		t.total = append(t.total, busy+v[3]+v[4]+v[7])
	}
	return t
}

// idlestCPU is the busy share of the least busy CPU between two readings.
// The closed phase keeps every CPU above 0.9; a reading near 0 means the run
// was served by fewer CPUs than the box has — the guest scheduler packed the
// members onto one, or the host took one away — and explains a run that
// closes a third slower with CPU per operation at its lowest.
func idlestCPU(a, b cpuTicks) float64 {
	least := 1.0
	if len(a.busy) == 0 || len(a.busy) != len(b.busy) {
		return 0
	}
	for i := range a.busy {
		least = min(least, ratio(b.busy[i]-a.busy[i], b.total[i]-a.total[i]))
	}
	return least
}

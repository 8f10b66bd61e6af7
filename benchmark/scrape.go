package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"harmony/internal/server"
)

// Counters and resource use are read from what the members already publish:
// the admin endpoint's /status document and /metrics exposition, and /proc.
// Nothing is added to the program to be measured.

var httpClient = &http.Client{Timeout: 3 * time.Second}

func fetchStatus(addr string) (server.Status, error) {
	var st server.Status
	resp, err := httpClient.Get("http://" + addr + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: %s", addr, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// opLatency is the coordinator's own latency summary for one operation kind:
// harmony_op_latency_seconds _sum and _count added over levels.
type opLatency struct{ sum, count float64 }

// fetchOpLatency reads the one family /status does not carry.
func fetchOpLatency(addr string) (lat [2]opLatency, err error) {
	resp, err := httpClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return lat, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "harmony_op_latency_seconds_") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, perr := strconv.ParseFloat(line[sp+1:], 64)
		if sp < 0 || perr != nil {
			continue
		}
		kind := kindRead
		if strings.Contains(line, `op="write"`) {
			kind = kindWrite
		} else if !strings.Contains(line, `op="read"`) {
			continue
		}
		switch {
		case strings.HasPrefix(line, "harmony_op_latency_seconds_sum"):
			lat[kind].sum += v
		case strings.HasPrefix(line, "harmony_op_latency_seconds_count"):
			lat[kind].count += v
		}
	}
	return lat, sc.Err()
}

// procUsage is one process's resource use from /proc/<pid>.
type procUsage struct {
	user, sys float64 // CPU seconds
	volCtx    float64 // voluntary context switches
	hwmKB     float64 // peak resident set
}

const clockTick = 100.0 // USER_HZ; fixed at 100 on Linux

// readProcCPU reads user and system CPU time from /proc/<pid>/stat.
func readProcCPU(pid int) (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, _ := strconv.ParseFloat(f[11], 64) // utime, field 14
	s, _ := strconv.ParseFloat(f[12], 64) // stime, field 15
	return u / clockTick, s / clockTick, nil
}

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	var err error
	if u.user, u.sys, err = readProcCPU(pid); err != nil {
		return u, err
	}
	// Context switches are counted per thread; the peak resident set is the
	// process's and every thread reports the same one.
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return u, fmt.Errorf("no threads under /proc/%d/task", pid)
	}
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			v, _ := strconv.ParseFloat(f[1], 64)
			switch f[0] {
			case "voluntary_ctxt_switches:":
				u.volCtx += v
			case "VmHWM:":
				u.hwmKB = v
			}
		}
	}
	return u, nil
}

// selfCPU is this process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// childMembers finds the member processes this process spawned: children
// whose command line carries "-id <node>". bench.StartLiveCluster keeps the
// pids to itself, and /proc is the outside view anyway.
func childMembers() (map[string]int, error) {
	self := os.Getpid()
	dirs, err := filepath.Glob("/proc/[0-9]*")
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, d := range dirs {
		pid, _ := strconv.Atoi(filepath.Base(d))
		b, err := os.ReadFile(d + "/stat")
		if err != nil {
			continue // raced with an exit
		}
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid != self {
			continue
		}
		cmdline, err := os.ReadFile(d + "/cmdline")
		if err != nil {
			continue
		}
		args := strings.Split(string(cmdline), "\x00")
		for i, a := range args {
			if a == "-id" && i+1 < len(args) {
				out[args[i+1]] = pid
			}
		}
	}
	return out, nil
}

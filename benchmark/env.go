package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded in every result file: numbers from two boxes, or
// from tmpfs and a disk, are not comparable and the file should say so.
type environment struct {
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Kernel     string             `json:"kernel"`
	DataFS     string             `json:"data_fs"`
	PacedRates map[string]float64 `json:"paced_rates_ops_per_s"`
}

var fsNames = map[int64]string{
	0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
}

func readEnvironment(dataRoot string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DataFS: "unknown",
		PacedRates: map[string]float64{
			"live-read-quorum":      readQuorumSpec.pacedRate,
			"live-write-durable":    writeDurableSpec.pacedRate,
			"live-adaptive-hotcold": hotColdSpec.pacedRate,
		},
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataRoot, &st); err == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			env.DataFS = name
		}
	}
	if env.DataFS == "tmpfs" {
		logf("WARNING: the data root %s is on tmpfs, where fsync is free: live-write-durable measures nothing about storage here", dataRoot)
	}
	return env
}

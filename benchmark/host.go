package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"gomp/internal/bench"
	"gomp/internal/npb"
)

// hostInfo is the header every run records, so that a noisy verdict can be
// traced to the machine rather than the code.
type hostInfo struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Threads      int     `json:"threads"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	LoadStart    float64 `json:"loadavg_start"`
	LoadEnd      float64 `json:"loadavg_end"`
	Scaling      float64 `json:"scaling"` // EP canary: t1 / (T·tT)
	HostDegraded bool    `json:"host_degraded"`
}

// benchThreads is T: every core up to four.
func benchThreads() int { return min(runtime.NumCPU(), 4) }

func readHost() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Threads:    benchThreads(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		LoadStart:  loadavg(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadavg is the one-minute load average, 0 where /proc does not give it.
func loadavg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	first, _, _ := strings.Cut(string(data), " ")
	v, _ := strconv.ParseFloat(first, 64)
	return v
}

// canary runs NPB EP class S — one region, no synchronisation, perfectly
// parallel — at one thread and at T. On a host that really has T idle
// cores t1/(T·tT) is close to 1; below 0.85 the cores are shared or
// throttled and the run is marked degraded (recorded, not failed).
func canary(h *hostInfo) error {
	one, err := bench.Run("ep", "omp", npb.ClassS, 1)
	if err != nil {
		return err
	}
	all, err := bench.Run("ep", "omp", npb.ClassS, h.Threads)
	if err != nil {
		return err
	}
	h.Scaling = one.Seconds / (float64(h.Threads) * all.Seconds)
	h.HostDegraded = h.Scaling < 0.85
	return nil
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

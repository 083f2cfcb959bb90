package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// stamp is the environment a result was taken in: no recorded number
// without its environment. It rides in every result document (-out) and
// is printed ahead of the metrics on every run.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	// PinnedCPU is the one CPU the run (and its simd child) was confined
	// to, -1 if pinning was not possible.
	PinnedCPU int     `json:"pinned_cpu"`
	CPUModel  string  `json:"cpu_model"`
	Kernel    string  `json:"kernel"`
	Commit    string  `json:"commit"`
	Seed      int64   `json:"seed"`
	LoadAvg1  float64 `json:"loadavg_1m"`
	// Noisy is set when the 1-minute load average at start exceeds ¾ of
	// nproc: something else was already using the box, so host-time
	// figures of this run deserve less trust.
	Noisy bool `json:"noisy"`
}

// firstLineField returns the text after the colon of the first line of
// path that starts with key, or "".
func firstLineField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// commit identifies the source the benchmark was built from: the VCS
// revision the toolchain stamped into the binary, else git's HEAD, else
// "unknown" (a driver checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				return kv.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// parseLoadAvg returns the 1-minute figure of /proc/loadavg text.
func parseLoadAvg(s string) float64 {
	f := strings.Fields(s)
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // a malformed figure reads as 0: "unknown", never noisy
	return v
}

func newStamp(seed int64, pinnedCPU int) stamp {
	load, _ := os.ReadFile("/proc/loadavg")             // absent off Linux: load reads as 0
	rel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: kernel reads as ""
	s := stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		PinnedCPU:  pinnedCPU,
		CPUModel:   firstLineField("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(string(rel)),
		Commit:     commit(),
		Seed:       seed,
		LoadAvg1:   parseLoadAvg(string(load)),
	}
	s.Noisy = s.LoadAvg1 > 0.75*float64(s.NProc)
	return s
}

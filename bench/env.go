package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
)

// stamp records where and how a result was taken, so results from
// different hosts can be normalised (the two calibration numbers) and
// results from different configurations refused by -compare.
type stamp struct {
	Commit      string  `json:"commit"`
	Seed        uint64  `json:"seed"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	Kernel      string  `json:"kernel"`
	Windows     int     `json:"windows"`
	WindowS     float64 `json:"window_s"`
	Clients     int     `json:"clients"`
	CalibSpinNs float64 `json:"calib_spin_ns"`
	HTTPFloorUs float64 `json:"http.floor_us"`
}

func newStamp(seed uint64, windows int, windowLen time.Duration, clients int) stamp {
	st := stamp{
		Commit: "unknown", Seed: seed, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Kernel: firstLine("/proc/sys/kernel/osrelease"),
		Windows: windows, WindowS: windowLen.Seconds(), Clients: clients,
		CalibSpinNs: calibSpin(),
	}
	// The revision is there when the binary was built inside a git
	// work tree; an exported checkout has none.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				st.Commit = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					st.Commit += "+dirty"
				}
			}
		}
	}
	return st
}

func firstLine(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

var spinSink atomic.Uint64 // keeps the calibration loops from being optimised away

// calibSpin times a fixed, allocation-free CPU loop (the best of five
// runs, in nanoseconds): a host-speed yardstick to normalise results
// taken on different machines.
func calibSpin() float64 {
	best := time.Duration(1<<63 - 1)
	for range 5 {
		r := rng{s: 1}
		t0 := time.Now()
		var acc uint64
		for range 1 << 22 {
			acc ^= r.next()
		}
		best = min(best, time.Since(t0))
		spinSink.Add(acc)
	}
	return float64(best)
}

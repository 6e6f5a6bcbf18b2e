package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
)

// hostRecord identifies the machine and its state for one run. Numbers are
// comparable only between runs whose records agree on everything but the
// load averages.
type hostRecord struct {
	CPU        string     `json:"cpu"`
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	GOAMD64    string     `json:"goamd64"`
	StoreFS    string     `json:"store_fs"`
	LoadStart  [3]float64 `json:"load_start"`
	LoadEnd    [3]float64 `json:"load_end"`
	// StealFrac is the share of CPU time the hypervisor gave to other
	// guests while the run measured (from /proc/stat; 0 where unavailable).
	StealFrac float64 `json:"steal_frac"`
}

func newHostRecord(storeDir string) hostRecord {
	return hostRecord{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    goamd64(),
		StoreFS:    fsType(storeDir),
		LoadStart:  loadAvg(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// goamd64 reports the GOAMD64 level the binary was built for.
func goamd64() string {
	if runtime.GOARCH != "amd64" {
		return "n/a"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return "v1"
}

// cpuTicks reads the machine-wide steal and total CPU ticks.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		var x float64
		fmt.Sscan(v, &x)
		total += x
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = x
		}
	}
	return steal, total
}

func loadAvg() [3]float64 {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return [3]float64{}
	}
	const scale = 1 << 16 // SI_LOAD_SHIFT
	return [3]float64{float64(si.Loads[0]) / scale, float64(si.Loads[1]) / scale, float64(si.Loads[2]) / scale}
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// rssMB is the process's current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	fmt.Sscan(string(b), &size, &resident)
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// goCounters reads the runtime's cumulative allocation and CPU-time counters.
type goCounters struct{ allocBytes, gcCPU, totalCPU float64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

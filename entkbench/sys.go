package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. NaN-free: 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler polls the process's resident set size and keeps the peak.
// Sampling (every rssPeriod) is used instead of the kernel's high-water
// mark because that mark cannot be reset between iterations without
// writing to procfs.
type rssSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	peak   uint64
}

const rssPeriod = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopCh: make(chan struct{}), peak: residentBytes()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				s.peak = max(s.peak, residentBytes())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak resident bytes seen. Safe to
// call more than once.
func (s *rssSampler) stop() uint64 {
	s.once.Do(func() {
		close(s.stopCh)
		s.wg.Wait()
		s.peak = max(s.peak, residentBytes())
	})
	return s.peak
}

// residentBytes reads the current resident set size from /proc/self/statm
// (0 where procfs is unavailable).
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// cpuStat holds the host-wide CPU time counters of /proc/stat, in ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			st.steal = n
		}
	}
	return st
}

// stealPct is the share of the host's CPU time, between a and b, that the
// hypervisor ran other guests instead of this one: a run measured under
// heavy steal is slow for reasons outside the program.
func stealPct(a, b cpuStat) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// host is the fingerprint recorded with every result: numbers from hosts
// with different fingerprints are not compared.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

// fingerprint identifies the host and the code under test. Commit is the
// VCS revision the binary was built from, when the build saw one; Source
// is a digest of the checkout's Go sources, which identifies the code even
// where there is no repository.
func fingerprint(root string) host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the path and content of every Go source and go.mod
// under root, skipping hidden directories (the build output among them).
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sum.Write([]byte(filepath.ToSlash(path)))
		sum.Write([]byte{0})
		sum.Write(b)
		sum.Write([]byte{0})
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

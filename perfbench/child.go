package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"freephish/internal/core"
)

// repResult is what one repetition — one study in a fresh process —
// reports to the parent, as one JSON line on the child's stdout.
type repResult struct {
	Workload string    `json:"workload"`
	Start    time.Time `json:"start"`
	Traced   bool      `json:"traced"`
	// Err is non-empty when the study failed: Run or Verify returned an
	// error. The digest check is the parent's.
	Err    string `json:"err,omitempty"`
	Digest string `json:"digest"`

	// SetupS and StudyS are wall-clock less the host's steal time per CPU
	// over the same interval (SetupStealS, StudyStealS): on a shared VM the
	// hypervisor runs other guests for whole minutes, which stretches every
	// wall-clock figure taken meanwhile by about that much and has nothing
	// to do with the program.
	SetupS      float64 `json:"setup_s"`
	StudyS      float64 `json:"study_s"`
	SetupStealS float64 `json:"setup_steal_s"`
	StudyStealS float64 `json:"study_steal_s"`
	StudyCPUS   float64 `json:"study_cpu_s"`
	AllocMB     float64 `json:"alloc_mb"`
	AllocsM     float64 `json:"allocs_m"`
	// PeakRSSMB is the process's peak resident memory (VmHWM) at the end
	// of Run, before Verify and the digest; SetupPeakRSSMB is the same
	// high-water mark at the end of set-up. Run set the peak when the
	// first exceeds the second.
	PeakRSSMB      float64 `json:"peak_rss_mb"`
	SetupPeakRSSMB float64 `json:"setup_peak_rss_mb"`
	// Median host time per poll cycle, from successive Progress events,
	// the number of cycles, and how many lie beyond p99 and p99.9. Zero on
	// a sharded run: its shards deliver no Progress events.
	CycleP50US      float64 `json:"cycle_p50_us"`
	CycleCount      int     `json:"cycle_count"`
	CycleBeyondP99  int     `json:"cycle_beyond_p99"`
	CycleBeyondP999 int     `json:"cycle_beyond_p999"`
	// Layers holds the per-layer metrics of a traced repetition. A metric
	// the run mode cannot see is left out (absent), never set to zero.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runRep runs one study of w at seed in this process: New + Train (set-up),
// then Run, then Verify and the output digest. Traced, it also profiles
// CPU over set-up and Run and reads the program's tracer and registry.
func runRep(w workload, seed int64, traced bool) repResult {
	r := repResult{Workload: w.name, Start: time.Now().UTC(), Traced: traced}
	fail := func(err error) repResult {
		r.Err = err.Error()
		return r
	}
	cfg := w.config(seed)
	progress := make([]progressPoint, 0, 1<<15) // 26,208 cycles per study
	cfg.Progress = func(ev core.ProgressEvent) {
		progress = append(progress, progressPoint{wall: ev.Wall, postsSeen: ev.PostsSeen})
	}

	// Set-up and Run are profiled separately, so training's work never
	// lands in a Run-time layer or the reverse.
	var setupProf, runProf, allocs0, allocs1 bytes.Buffer
	settle()
	if err := startProfile(traced, &setupProf); err != nil {
		return fail(err)
	}
	steal0 := stealSeconds()
	t0 := time.Now()
	fp := core.New(cfg)
	err := fp.Train()
	r.SetupStealS = stealSeconds() - steal0
	r.SetupS = time.Since(t0).Seconds() - r.SetupStealS
	stopProfile(traced)
	if err != nil {
		return fail(err)
	}
	if r.SetupPeakRSSMB, err = peakRSSMB(); err != nil {
		return fail(err)
	}

	settle()
	if err := writeAllocs(traced, &allocs0); err != nil {
		return fail(err)
	}
	if err := startProfile(traced, &runProf); err != nil {
		return fail(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := cpuSeconds()
	steal1 := stealSeconds()
	t1 := time.Now()
	_, err = fp.Run()
	r.StudyStealS = stealSeconds() - steal1
	r.StudyS = time.Since(t1).Seconds() - r.StudyStealS
	r.StudyCPUS = cpuSeconds() - cpu0
	gcCPU := gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	stopProfile(traced)
	r.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	r.AllocsM = float64(ms1.Mallocs-ms0.Mallocs) / 1e6
	if err != nil {
		return fail(err)
	}
	if r.PeakRSSMB, err = peakRSSMB(); err != nil {
		return fail(err)
	}
	if err := fp.Verify(); err != nil {
		return fail(fmt.Errorf("verify: %w", err))
	}
	if r.Digest, err = digest(fp); err != nil {
		return fail(err)
	}
	cs := splitCycles(progress)
	if r.CycleCount = len(cs.all); r.CycleCount > 0 {
		r.CycleP50US, _ = percentile(cs.all, 0.5)
		_, r.CycleBeyondP99 = percentile(cs.all, 0.99)
		_, r.CycleBeyondP999 = percentile(cs.all, 0.999)
	}
	if !traced {
		return r
	}
	if err := writeAllocs(traced, &allocs1); err != nil {
		return fail(err)
	}
	r.Layers, err = layerMetrics(layerInputs{
		shards:      w.shards,
		cycles:      cs,
		tracer:      fp.Metrics.Tracer.Snapshot(),
		registry:    fp.Metrics.Registry.Snapshot(),
		setupCPU:    setupProf.Bytes(),
		runCPU:      runProf.Bytes(),
		allocBefore: allocs0.Bytes(),
		allocAfter:  allocs1.Bytes(),
		gcCPUS:      gcCPU,
	})
	if err != nil {
		return fail(err)
	}
	return r
}

func startProfile(traced bool, w *bytes.Buffer) error {
	if !traced {
		return nil
	}
	return pprof.StartCPUProfile(w)
}

// writeAllocs snapshots the cumulative allocation profile; the difference
// of two snapshots is what was allocated between them.
func writeAllocs(traced bool, w *bytes.Buffer) error {
	if !traced {
		return nil
	}
	runtime.GC() // the allocation profile is as of the last completed GC
	return pprof.Lookup("allocs").WriteTo(w, 0)
}

func stopProfile(traced bool) {
	if traced {
		pprof.StopCPUProfile()
	}
}

// settle lets the previous phase's garbage be collected and returned
// before a timed phase starts, so no phase pays for its predecessor's GC.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// digest is the SHA-256 of the study's records as JSONL followed by its
// Stats as JSON: the output every run mode must reproduce byte for byte.
func digest(fp *core.FreePhish) (string, error) {
	h := sha256.New()
	if err := fp.Study().WriteJSONL(h); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	st, err := json.Marshal(fp.Stats())
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h.Write(st)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB is this process's peak resident memory so far, the VmHWM line
// of /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// stealSeconds is the host's steal time so far per CPU (see parseSteal);
// 0 where /proc/stat is not available.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(b))
}

// parseSteal reads from /proc/stat text the time this VM's CPUs were ready
// to run while the hypervisor ran other guests, per CPU: the steal column
// of the "cpu" line, in the 100 ticks per second Linux uses there, over the
// number of "cpuN" lines. 0 if the text has no such figure.
func parseSteal(stat string) float64 {
	var total float64
	ncpu := 0
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
		switch {
		case len(f) >= 9 && f[0] == "cpu":
			var err error
			if total, err = strconv.ParseFloat(f[8], 64); err != nil {
				return 0
			}
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			ncpu++
		}
	}
	if ncpu == 0 {
		return 0
	}
	return total / 100 / float64(ncpu)
}

// cpuSeconds is this process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

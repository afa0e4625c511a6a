// Command perfbench is FreePhish's benchmark. It runs the real study —
// core.New → Train → Run → Verify — on fixed, seeded workloads, checks every
// output against pinned digests and the backend/shard identities, and
// measures everything from outside the program: its own timers around the
// calls into each layer, the program's tracer, registry and Progress hook,
// and runtime/pprof profiles of a traced run.
//
// Every repetition is one study in a fresh child process, so peak RSS, the
// heap and the GC state of one study never leak into the next.
//
//	perfbench --workload sparse --seed 1 --seconds 20 --trace 0
//	perfbench --workload all [--trace 1]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runDeadline bounds one single-workload invocation at just under three
// minutes, whatever --seconds asks.
const runDeadline = 170 * time.Second

// minTimedReps is the fewest repetitions a timed run takes, so every
// reported figure is a median of at least three.
const minTimedReps = 3

func main() {
	var (
		wl   = flag.String("workload", "", `workload name, or "all" to interleave every workload`)
		seed = flag.Int64("seed", DefaultSeed, fmt.Sprintf(
			"workload seed; output digests are pinned at %d, and %d is held out for confirming claims", DefaultSeed, HeldOutSeed))
		seconds = flag.Int("seconds", 25, "how long to keep starting repetitions")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		child   = flag.Bool("child", false, "run one repetition in this process (used by the benchmark itself)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	traced := *trace == 1
	if *child {
		w, err := lookupWorkload(*wl)
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(runRep(w, *seed, traced)); err != nil {
			fail(err)
		}
		return
	}
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	r := runner{self: self, seed: *seed}
	var res result
	if *wl == "all" {
		res = r.all(traced)
	} else {
		w, err := lookupWorkload(*wl)
		if err != nil {
			fail(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		defer cancel()
		res = r.one(ctx, w, time.Duration(*seconds)*time.Second, traced)
	}
	res.print(os.Stdout)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runner starts repetitions as child processes of the benchmark binary.
type runner struct {
	self string
	seed int64
}

// rep runs one repetition of w in a fresh process and waits for it.
func (r runner) rep(ctx context.Context, w workload, traced bool) repResult {
	res := repResult{Workload: w.name, Start: time.Now().UTC(), Traced: traced}
	cmd := exec.CommandContext(ctx, r.self, "--child", "--workload", w.name,
		"--seed", strconv.FormatInt(r.seed, 10), "--trace", strconv.Itoa(b2i(traced)))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		res.Err = fmt.Sprintf("child: %v", err)
		return res
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		res.Err = fmt.Sprintf("child output: %v", err)
		return res
	}
	fmt.Fprintf(os.Stderr, "rep %s seed=%d traced=%v start=%s setup_s=%.3f study_s=%.3f setup_steal_s=%.3f study_steal_s=%.3f cpu_s=%.3f p50_us=%.1f setup_rss_mb=%.1f rss_mb=%.1f err=%q\n",
		res.Workload, r.seed, traced, res.Start.Format(time.RFC3339Nano), res.SetupS, res.StudyS, res.SetupStealS, res.StudyStealS,
		res.StudyCPUS, res.CycleP50US, res.SetupPeakRSSMB, res.PeakRSSMB, res.Err)
	return res
}

// one is a single-workload run: repetitions of w for at least the
// given duration, then the output checks. Untraced, it reports the
// end-to-end metrics; traced, it alternates untraced and traced
// repetitions, ends with one traced repetition of the twin workload, and
// reports the per-layer metrics and the tracing overhead.
func (r runner) one(ctx context.Context, w workload, d time.Duration, traced bool) result {
	start := time.Now()
	var reps []repResult
	for i := 0; ctx.Err() == nil; i++ {
		enough := len(reps) >= minTimedReps
		if traced {
			enough = len(reps) >= 2
		}
		if enough && time.Since(start) >= d {
			break
		}
		reps = append(reps, r.rep(ctx, w, traced && i%2 == 1))
	}
	res := result{Attempted: len(reps), Failed: checkOutputs(r.seed, reps), Metrics: map[string]metricValue{}}
	if !traced {
		res.addEndToEnd(reps)
		return res
	}
	// Only the traced run pays for the twin, which keeps timed runs to
	// their own workload. The twin must reproduce the output byte for
	// byte at every seed, and a sharded twin is where the state and shard
	// layers do their work.
	tw, err := lookupWorkload(w.twin)
	if err != nil {
		fail(err)
	}
	twin := r.rep(ctx, tw, true)
	res.Attempted++
	res.Failed += checkOutputs(r.seed, []repResult{twin}) + checkTwins(r.seed, reps, []repResult{twin})
	res.addLayers(reps)
	res.addShardedTwin(reps, twin, tw.shards > 1)
	return res
}

// checkOutputs counts the repetitions that failed or whose output is
// wrong: at DefaultSeed the digest must equal the workload's pinned one;
// at any other seed all repetitions must agree. A failed repetition's
// reason is already logged; a wrong digest is logged here.
func checkOutputs(seed int64, reps []repResult) int {
	failed := 0
	for i, rp := range reps {
		if rp.Err != "" {
			failed++
			continue
		}
		w, err := lookupWorkload(rp.Workload)
		if err != nil {
			fail(err)
		}
		want := w.digest
		if seed != DefaultSeed {
			want = firstDigest(reps)
		}
		if rp.Digest != want {
			fmt.Fprintf(os.Stderr, "rep %d of %s: output digest %s, want %s\n", i, rp.Workload, rp.Digest, want)
			failed++
		}
	}
	return failed
}

// checkTwins returns 1 when two workloads that must produce identical
// output did not (each side's own failures are counted by checkOutputs).
func checkTwins(seed int64, a, b []repResult) int {
	da, db := firstDigest(a), firstDigest(b)
	if da == "" || db == "" || da == db {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s and %s outputs differ at seed %d\n", a[0].Workload, b[0].Workload, seed)
	return 1
}

// firstDigest is the output digest of the first successful repetition.
func firstDigest(reps []repResult) string {
	for _, rp := range reps {
		if rp.Err == "" {
			return rp.Digest
		}
	}
	return ""
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

package main

import (
	"freephish/internal/obs"
)

// Fully qualified names of the public entry functions each profile-derived
// layer metric attributes samples to.
const (
	fnPoll       = "freephish/internal/crawler.(*Poller).Poll"
	fnPipeNew    = "freephish/internal/pipe.New"
	fnPipeSource = "freephish/internal/pipe.Source"
	fnPipeStage  = "freephish/internal/pipe.Stage"
	fnStackFit   = "freephish/internal/ml.(*StackModel).Fit"
	fnBoostFit   = "freephish/internal/ml.(*GradientBooster).Fit"
	fnForestFit  = "freephish/internal/ml.(*RandomForest).Fit"
	fnExactSplit = "freephish/internal/ml.(*buildCtx).exactSplit"
	fnEncodeCP   = "freephish/internal/state.EncodeCheckpoint"
	fnMerge      = "freephish/internal/state.Merge"
)

// layerInputs is everything a traced repetition observed from outside the
// program.
type layerInputs struct {
	shards   int
	cycles   cycleSplit
	tracer   []obs.StageStats
	registry []obs.Sample
	// CPU profiles of set-up (New + Train) and of Run, and allocation
	// profiles taken just before and just after Run.
	setupCPU, runCPU        []byte
	allocBefore, allocAfter []byte
	gcCPUS                  float64
}

// absent marks a per-layer metric the run mode cannot see. On a sharded
// study the coordinator's tracer, registry and Progress hook see none of
// the shards' work, so those metrics are reported as absent, not as zero.
const absent = -1

// layerMetrics derives the per-layer metrics. Metrics whose source cannot
// see the layer's work are left out of the map; report fills them in as
// absent.
func layerMetrics(in layerInputs) (map[string]float64, error) {
	m := map[string]float64{}
	var profs [4]*profile
	for i, b := range [][]byte{in.setupCPU, in.runCPU, in.allocBefore, in.allocAfter} {
		p, err := parseProfile(b)
		if err != nil {
			return nil, err
		}
		profs[i] = p
	}
	setup, run, before, after := profs[0], profs[1], profs[2], profs[3]
	var err error
	keep := func(v int64, e error) float64 {
		if e != nil {
			err = e
		}
		return float64(v)
	}
	cpuS := func(p *profile, under func([]string) bool) float64 {
		return keep(p.value("cpu", under)) / 1e9
	}
	allocMB := func(under func([]string) bool) float64 {
		return (keep(after.value("alloc_space", under)) - keep(before.value("alloc_space", under))) / 1e6
	}
	isSource, isStage := genericFunc(fnPipeSource), genericFunc(fnPipeStage)
	pipeBuild := func(stack []string) bool {
		for _, f := range stack {
			if f == fnPipeNew || isSource(f) || isStage(f) {
				return true
			}
		}
		return false
	}

	// Profile-derived: visible in every run mode, because a profile covers
	// every goroutine of the process, shards included. Set-up work (ml) is
	// read from the set-up profile, everything else from Run's.
	m["crawler.poll_cpu_s"] = cpuS(run, anyFunc(fnPoll))
	m["pipe.build_cpu_s"] = cpuS(run, pipeBuild)
	m["pipe.build_alloc_mb"] = allocMB(pipeBuild)
	m["world.http_cpu_s"] = cpuS(run, anyPrefix("net/http."))
	m["ml.fit_cpu_s"] = cpuS(setup, anyFunc(fnStackFit, fnBoostFit, fnForestFit))
	m["ml.split_sort_cpu_s"] = cpuS(setup, calleeOf(fnExactSplit, "sort."))
	m["state.checkpoint_cpu_s"] = cpuS(run, anyFunc(fnEncodeCP))
	m["state.checkpoint_alloc_mb"] = allocMB(anyFunc(fnEncodeCP))
	m["state.merge_cpu_s"] = cpuS(run, anyFunc(fnMerge))
	m["runtime.gc_cpu_s"] = in.gcCPUS
	if err != nil {
		return nil, err
	}

	// Coordinator-level counters: the shard dispatcher's own.
	reg := registryView(in.registry)
	m["shard.dispatched"] = reg.sum("freephish_shard_dispatched_total", nil)
	m["shard.retries"] = reg.sum("freephish_shard_retries_total", nil)
	if in.shards > 1 {
		return m, nil
	}

	// Progress-derived.
	m["crawler.poll_cycles"] = float64(len(in.cycles.all))
	m["core.empty_cycle_s"] = in.cycles.emptyTotal.Seconds()
	if len(in.cycles.empty) > 0 {
		m["core.empty_cycle_us"] = median(in.cycles.empty)
	}
	if n := len(in.cycles.all); n > 0 {
		m["crawler.nonempty_cycle_ratio"] = float64(in.cycles.nonEmpty) / float64(n)
		// The cycle tail swings with host load far more than the median
		// does, so it is reported here rather than gated.
		m["core.cycle_p99_us"], _ = percentile(in.cycles.all, 0.99)
		m["core.cycle_p999_us"], _ = percentile(in.cycles.all, 0.999)
	}

	// Tracer- and registry-derived.
	stages := map[string]obs.StageStats{}
	for _, st := range in.tracer {
		stages[st.Stage] = st
	}
	span := func(prefix, stage string) {
		st := stages[stage]
		m[prefix+"_count"] = float64(st.Count)
		m[prefix+"_busy_s"] = st.Wall.Seconds()
	}
	span("core.classify", "classify")
	span("world.assess", "assess")
	span("world.report", "report")
	m["core.monitor_ticks"] = float64(stages["monitor"].Count)
	m["core.monitor_busy_s"] = stages["monitor"].Wall.Seconds()
	// Every snapshot the fetcher takes — pipeline fetches and monitor
	// re-probes alike — with its latency including retries.
	m["crawler.fetch_count"] = reg.sum("freephish_fetch_total", nil)
	m["crawler.fetch_busy_s"] = reg.sum("freephish_fetch_seconds", nil)
	m["crawler.fetch_errors"] = reg.sum("freephish_fetch_errors_total", nil)
	hits := reg.sum("freephish_snapshot_cache_hits_total", nil)
	if probes := hits + reg.sum("freephish_snapshot_cache_misses_total", nil); probes > 0 {
		m["crawler.snapshot_cache_hit_ratio"] = hits / probes
	}
	for _, stage := range []string{"fetch", "classify"} {
		lbl := map[string]string{"pipe": "poll", "stage": stage}
		m["pipe.items."+stage] = reg.sum("freephish_pipe_items_total", lbl)
		m["pipe.stage_s."+stage] = reg.sum("freephish_pipe_stage_seconds", lbl)
	}
	m["core.monitor_probes"] = reg.sum("freephish_pipe_items_total", map[string]string{"pipe": "monitor"})
	m["features.extract_s"] = reg.sum("freephish_extract_seconds", nil)
	m["baselines.infer_s"] = reg.sum("freephish_infer_seconds", nil)
	m["retry.retries"] = reg.sum("freephish_retries_total", nil)
	m["retry.giveups"] = reg.sum("freephish_retry_giveups_total", nil)
	return m, nil
}

type registryView []obs.Sample

// sum adds up the values (histogram sums, for histograms) of every series
// of the named family whose labels include want.
func (r registryView) sum(name string, want map[string]string) float64 {
	var v float64
next:
	for _, s := range r {
		if s.Name != name {
			continue
		}
		for k, x := range want {
			if s.Labels[k] != x {
				continue next
			}
		}
		v += s.Value
	}
	return v
}

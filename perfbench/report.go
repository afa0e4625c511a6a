package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the study
// sees them. The run's error rate is failed/attempted in the result.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"study_s", "s"},
	{"study_cpu_s", "s"},
	{"cycle_p50_us", "us"},
	{"alloc_mb", "MB"},
	{"allocs_m", "M"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, named after the layer (the
// package) whose work they measure.
var perLayer = []metricDef{
	{"core.empty_cycle_s", "s"},
	{"core.empty_cycle_us", "us"},
	{"core.cycle_p99_us", "us"},
	{"core.cycle_p999_us", "us"},
	{"crawler.poll_cycles", "count"},
	{"crawler.nonempty_cycle_ratio", "ratio"},
	{"crawler.poll_cpu_s", "s"},
	{"pipe.build_cpu_s", "s"},
	{"pipe.build_alloc_mb", "MB"},
	{"world.http_cpu_s", "s"},
	{"ml.fit_cpu_s", "s"},
	{"ml.split_sort_cpu_s", "s"},
	{"crawler.fetch_count", "count"},
	{"crawler.fetch_busy_s", "s"},
	{"crawler.fetch_errors", "count"},
	{"crawler.snapshot_cache_hit_ratio", "ratio"},
	{"pipe.items.fetch", "count"},
	{"pipe.items.classify", "count"},
	{"pipe.stage_s.fetch", "s"},
	{"pipe.stage_s.classify", "s"},
	{"core.classify_count", "count"},
	{"core.classify_busy_s", "s"},
	{"features.extract_s", "s"},
	{"baselines.infer_s", "s"},
	{"world.assess_count", "count"},
	{"world.assess_busy_s", "s"},
	{"world.report_count", "count"},
	{"world.report_busy_s", "s"},
	{"core.monitor_ticks", "count"},
	{"core.monitor_busy_s", "s"},
	{"core.monitor_probes", "count"},
	{"state.checkpoint_cpu_s", "s"},
	{"state.checkpoint_alloc_mb", "MB"},
	{"state.merge_cpu_s", "s"},
	{"shard.dispatched", "count"},
	{"shard.retries", "count"},
	{"retry.retries", "count"},
	{"retry.giveups", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"core.setup_peak_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// shardedLayers are the per-layer metrics of a traced run's one traced
// repetition of its twin workload, when that twin is sharded: the state
// and shard layers work only in a sharded study. Each but the ratio is
// the twin's own metric of the name after "sharded."; the ratio is the
// twin's study_s over the median traced study_s of the workload. They
// are absent when the twin is not sharded.
var shardedLayers = []metricDef{
	{"sharded.study_s_ratio", "ratio"},
	{"sharded.state.checkpoint_cpu_s", "s"},
	{"sharded.state.checkpoint_alloc_mb", "MB"},
	{"sharded.state.merge_cpu_s", "s"},
	{"sharded.shard.dispatched", "count"},
	{"sharded.shard.retries", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// notes are printed with the metrics but are not part of the JSON.
	notes []string
}

// endToEndValues takes the median of each end-to-end metric over the
// successful repetitions. Cycle figures are medians of each repetition's
// own percentile; a workload without Progress events has none.
func endToEndValues(reps []repResult) map[string]float64 {
	cols := map[string][]float64{}
	for _, rp := range reps {
		if rp.Err != "" {
			continue
		}
		add := func(k string, v float64) { cols[k] = append(cols[k], v) }
		add("setup_s", rp.SetupS)
		add("study_s", rp.StudyS)
		add("study_cpu_s", rp.StudyCPUS)
		add("alloc_mb", rp.AllocMB)
		add("allocs_m", rp.AllocsM)
		add("peak_rss_mb", rp.PeakRSSMB)
		if rp.CycleCount > 0 {
			add("cycle_p50_us", rp.CycleP50US)
		}
	}
	out := map[string]float64{}
	for k, xs := range cols {
		out[k] = median(xs)
	}
	return out
}

// layerValues takes the median of each per-layer metric over the traced
// repetitions, and the tracing overhead as the difference between the
// traced and untraced median study times. A metric no traced repetition
// could see is absent.
func layerValues(reps []repResult) map[string]float64 {
	cols := map[string][]float64{}
	var tracedS, plainS []float64
	for _, rp := range reps {
		if rp.Err != "" {
			continue
		}
		if !rp.Traced {
			plainS = append(plainS, rp.StudyS)
			continue
		}
		tracedS = append(tracedS, rp.StudyS)
		for k, v := range rp.Layers {
			cols[k] = append(cols[k], v)
		}
		cols["core.setup_peak_rss_mb"] = append(cols["core.setup_peak_rss_mb"], rp.SetupPeakRSSMB)
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = absent
		if xs := cols[d.name]; len(xs) > 0 {
			out[d.name] = median(xs)
		}
	}
	if len(tracedS) > 0 && len(plainS) > 0 {
		out["trace.overhead_s"] = median(tracedS) - median(plainS)
	}
	return out
}

func (res *result) add(defs []metricDef, vals map[string]float64, prefix string) {
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			v = absent
		}
		res.Metrics[prefix+d.name] = metricValue{Value: v, Unit: d.unit}
	}
}

func (res *result) addEndToEnd(reps []repResult) {
	res.add(endToEnd, endToEndValues(reps), "")
	res.notes = append(res.notes, cycleNote(reps))
}

// cycleNote states the sample counts behind the cycle percentiles.
func cycleNote(reps []repResult) string {
	var last repResult
	n := 0
	for _, rp := range reps {
		if rp.Err == "" && rp.CycleCount > 0 {
			n, last = n+1, rp
		}
	}
	if n == 0 {
		return "cycles: no Progress events"
	}
	return fmt.Sprintf("cycles: %d repetitions of %d cycles each; %d cycles beyond p99, %d beyond p99.9",
		n, last.CycleCount, last.CycleBeyondP99, last.CycleBeyondP999)
}

func (res *result) addLayers(reps []repResult) {
	res.add(perLayer, layerValues(reps), "")
	res.notes = append(res.notes, cycleNote(reps))
}

// addShardedTwin adds the sharded-twin metrics from twin, one traced
// repetition of the workload twin of reps, or marks them absent.
func (res *result) addShardedTwin(reps []repResult, twin repResult, sharded bool) {
	vals := map[string]float64{}
	var tracedS []float64
	for _, rp := range reps {
		if rp.Err == "" && rp.Traced {
			tracedS = append(tracedS, rp.StudyS)
		}
	}
	if sharded && twin.Err == "" {
		for _, d := range shardedLayers {
			if v, ok := twin.Layers[strings.TrimPrefix(d.name, "sharded.")]; ok {
				vals[d.name] = v
			}
		}
		if len(tracedS) > 0 {
			vals["sharded.study_s_ratio"] = twin.StudyS / median(tracedS)
		}
	}
	res.add(shardedLayers, vals, "")
}

// print writes one human-readable line per metric, then the JSON line.
func (res result) print(w io.Writer) {
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		if m.Value == absent {
			fmt.Fprintf(w, "%-44s %14s\n", k, "absent")
			continue
		}
		fmt.Fprintf(w, "%-44s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "%-44s %14.6g (%d of %d runs failed)\n", "error_rate",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// all runs every workload, interleaved: repetition k runs each workload
// once, starting from a different one each time, so host drift over the
// run spreads across workloads instead of landing on one. It then checks
// the cross-workload identities directly and prints every metric of every
// workload, prefixed with its name.
func (r runner) all(traced bool) result {
	ctx := context.Background()
	byName := map[string][]repResult{}
	for k := 0; k < minTimedReps; k++ {
		for j := range workloads {
			w := workloads[(j+k)%len(workloads)]
			// Traced, each workload alternates traced and untraced
			// repetitions, as a single-workload run does.
			byName[w.name] = append(byName[w.name], r.rep(ctx, w, traced && k%2 == 1))
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		rs := byName[w.name]
		res.Attempted += len(rs)
		res.Failed += checkOutputs(r.seed, rs)
		if traced {
			res.add(perLayer, layerValues(rs), w.name+".")
		} else {
			res.add(endToEnd, endToEndValues(rs), w.name+".")
			res.notes = append(res.notes, w.name+" "+cycleNote(rs))
		}
		if w.name < w.twin {
			res.Failed += checkTwins(r.seed, rs, byName[w.twin])
		}
	}
	return res
}

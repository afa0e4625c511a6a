package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input
	}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0, 1, 999},
	} {
		v, beyond := percentile(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", c.q*100, v, beyond, c.v, c.beyond)
		}
	}
	// Ties: samples equal to the percentile are not beyond it.
	if v, beyond := percentile([]float64{1, 2, 2, 2, 3}, 0.5); v != 2 || beyond != 1 {
		t.Errorf("p50 of ties = %g with %d beyond, want 2 with 1", v, beyond)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestCycleSplitSeparatesEmptyCycles(t *testing.T) {
	ms := time.Millisecond
	ev := []progressPoint{
		{wall: 3 * ms, postsSeen: 0},  // empty, timed from Run's start
		{wall: 4 * ms, postsSeen: 2},  // 2 new posts
		{wall: 9 * ms, postsSeen: 2},  // empty
		{wall: 10 * ms, postsSeen: 5}, // 3 new posts
		{wall: 12 * ms, postsSeen: 5}, // empty
	}
	s := splitCycles(ev)
	if len(s.all) != 5 || s.nonEmpty != 2 {
		t.Fatalf("split: %d cycles, %d non-empty; want 5 and 2", len(s.all), s.nonEmpty)
	}
	if want := []float64{3000, 5000, 2000}; !equal(s.empty, want) {
		t.Errorf("empty cycle µs = %v, want %v", s.empty, want)
	}
	if s.emptyTotal != 10*ms {
		t.Errorf("empty total = %v, want 10ms", s.emptyTotal)
	}
	if want := []float64{3000, 1000, 5000, 1000, 2000}; !equal(s.all, want) {
		t.Errorf("all cycle µs = %v, want %v", s.all, want)
	}
}

// protoBuf is a minimal protobuf writer for canned profiles.
type protoBuf []byte

func (p *protoBuf) varint(num int, v uint64) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(num)<<3), v)
}

func (p *protoBuf) bytes(num int, b []byte) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(num)<<3|2), uint64(len(b)))
	*p = append(*p, b...)
}

func (p *protoBuf) packed(num int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.bytes(num, b)
}

// cannedProfile encodes a profile with one sample type whose samples have
// the given stacks (leaf first) and values. Each frame gets its own
// location, except that an entry "a|b" is one location in which a (the
// leaf) was inlined into b, as the Go runtime writes inlining.
func cannedProfile(t *testing.T, sampleType string, stacks [][]string, values []int64, compress bool) []byte {
	t.Helper()
	strs := []string{"", sampleType, "unit"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p protoBuf
	var vt protoBuf
	vt.varint(1, strIdx(sampleType))
	vt.varint(2, strIdx("unit"))
	p.bytes(1, vt)
	funcs := map[string]uint64{}
	var locs [][]uint64 // location i+1 → function ids
	for i, st := range stacks {
		var locIDs []uint64
		for _, frame := range st {
			var fns []uint64
			for _, name := range splitFrames(frame) {
				id, ok := funcs[name]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[name] = id
					var fn protoBuf
					fn.varint(1, id)
					fn.varint(2, strIdx(name))
					p.bytes(5, fn)
				}
				fns = append(fns, id)
			}
			locs = append(locs, fns)
			locIDs = append(locIDs, uint64(len(locs)))
		}
		var s protoBuf
		if i%2 == 0 {
			s.packed(1, locIDs...)
		} else {
			for _, id := range locIDs { // unpacked encoding
				s.varint(1, id)
			}
		}
		s.packed(2, uint64(values[i]))
		p.bytes(2, s)
	}
	for i, fns := range locs {
		var l protoBuf
		l.varint(1, uint64(i+1))
		for _, fn := range fns {
			var line protoBuf
			line.varint(1, fn)
			line.varint(2, 7)
			l.bytes(4, line)
		}
		p.bytes(4, l)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	if !compress {
		return p
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p)
	zw.Close()
	return z.Bytes()
}

func splitFrames(frame string) []string {
	var out []string
	for _, f := range bytes.Split([]byte(frame), []byte("|")) {
		out = append(out, string(f))
	}
	return out
}

func TestAttributionUnderEntryFunction(t *testing.T) {
	const split = "freephish/internal/ml.(*buildCtx).exactSplit"
	stacks := [][]string{
		{"sort.insertionSort", "sort.Slice", split, fnBoostFit},                 // 10: sort under exactSplit
		{"runtime.memmove", split, fnBoostFit},                                  // 20: exactSplit, no sort
		{"sort.Slice", "freephish/internal/ml.auc", fnStackFit},                 // 40: sort, not under exactSplit
		{fnEncodeCP, "encoding/json.Marshal", fnEncodeCP, "main.run"},           // 80: recursion counts once
		{"encoding/json.Marshal|" + fnEncodeCP, "main.run"},                     // 160: inlined into EncodeCheckpoint
		{"freephish/internal/pipe.Stage[go.shape.*uint8].func1"},                // 320: a stage's worker closure
		{"runtime.newobject", "freephish/internal/pipe.Stage[go.shape.*uint8]"}, // 640: building a stage
	}
	values := []int64{10, 20, 40, 80, 160, 320, 640}
	for _, compress := range []bool{false, true} {
		p, err := parseProfile(cannedProfile(t, "cpu", stacks, values, compress))
		if err != nil {
			t.Fatal(err)
		}
		isStage := genericFunc(fnPipeStage)
		for _, c := range []struct {
			name  string
			under func([]string) bool
			want  int64
		}{
			{"sort under exactSplit", calleeOf(split, "sort."), 10},
			{"exactSplit", anyFunc(split), 30},
			{"any fit", anyFunc(fnBoostFit, fnStackFit), 70},
			{"EncodeCheckpoint", anyFunc(fnEncodeCP), 240},
			{"json", anyPrefix("encoding/json."), 240},
			{"Stage itself", func(st []string) bool {
				for _, f := range st {
					if isStage(f) {
						return true
					}
				}
				return false
			}, 640},
		} {
			got, err := p.value("cpu", c.under)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("compress=%v %s: %d, want %d", compress, c.name, got, c.want)
			}
		}
		if _, err := p.value("alloc_space", anyFunc(split)); err == nil {
			t.Error("value of a missing sample type succeeded")
		}
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	b := cannedProfile(t, "cpu", [][]string{{"a", "b"}}, []int64{1}, false)
	if _, err := parseProfile(b[:len(b)-3]); err == nil {
		t.Error("truncated profile parsed")
	}
}

func TestParseRuntimeAllocationProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.value("alloc_space", func([]string) bool { return true }); err != nil {
		t.Fatal(err)
	}
}

func TestAbsentIsNotZero(t *testing.T) {
	cpu := cannedProfile(t, "cpu", [][]string{{fnEncodeCP}}, []int64{2e9}, true)
	before := cannedProfile(t, "alloc_space", [][]string{{fnEncodeCP}}, []int64{1e6}, true)
	after := cannedProfile(t, "alloc_space", [][]string{{fnEncodeCP}}, []int64{5e6}, true)
	in := layerInputs{setupCPU: cpu, runCPU: cpu, allocBefore: before, allocAfter: after}

	// Unsharded: the tracer and registry see the work; an idle layer is 0.
	m, err := layerMetrics(in)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m["world.assess_count"]; !ok || v != 0 {
		t.Errorf("unsharded idle assess count = %v (present %v), want present 0", v, ok)
	}
	if m["state.checkpoint_cpu_s"] != 2 || m["state.checkpoint_alloc_mb"] != 4 {
		t.Errorf("checkpoint = %g s, %g MB; want 2 s, 4 MB", m["state.checkpoint_cpu_s"], m["state.checkpoint_alloc_mb"])
	}

	// Sharded: only the profiles and the coordinator's own counters see
	// anything; the rest is absent.
	in.shards = 2
	if m, err = layerMetrics(in); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"world.assess_count", "core.empty_cycle_s", "crawler.poll_cycles", "retry.retries"} {
		if _, ok := m[k]; ok {
			t.Errorf("sharded %s present, want absent", k)
		}
	}
	for _, k := range []string{"state.checkpoint_cpu_s", "shard.dispatched", "runtime.gc_cpu_s"} {
		if _, ok := m[k]; !ok {
			t.Errorf("sharded %s absent, want present", k)
		}
	}

	rep := repResult{Traced: true, Layers: m}
	vals := layerValues([]repResult{rep, {StudyS: 1}})
	if vals["world.assess_count"] != absent {
		t.Errorf("reported assess count = %g, want absent", vals["world.assess_count"])
	}
	if vals["shard.retries"] != 0 {
		t.Errorf("reported shard retries = %g, want 0", vals["shard.retries"])
	}
	res := result{Metrics: map[string]metricValue{}}
	res.add(perLayer, vals, "")
	var out bytes.Buffer
	res.print(&out)
	if !bytes.Contains(out.Bytes(), []byte("world.assess_count")) || !bytes.Contains(out.Bytes(), []byte("absent")) {
		t.Errorf("printed result does not mark absent metrics:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric and
// workload lists in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, append(append([]metricDef(nil), perLayer...), shardedLayers...))
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShardedTwinMetrics(t *testing.T) {
	reps := []repResult{{StudyS: 1}, {Traced: true, StudyS: 4}, {Traced: true, StudyS: 6}}
	twin := repResult{Traced: true, StudyS: 8, Layers: map[string]float64{
		"state.checkpoint_cpu_s": 3, "state.checkpoint_alloc_mb": 7, "state.merge_cpu_s": 0.5,
		"shard.dispatched": 2, "shard.retries": 0, "world.assess_count": 9,
	}}

	res := result{Metrics: map[string]metricValue{}}
	res.addShardedTwin(reps, twin, true)
	want := map[string]float64{
		"sharded.study_s_ratio": 1.6, "sharded.state.checkpoint_cpu_s": 3, "sharded.state.checkpoint_alloc_mb": 7,
		"sharded.state.merge_cpu_s": 0.5, "sharded.shard.dispatched": 2, "sharded.shard.retries": 0,
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d sharded metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
	}
	for k, v := range want {
		if got := res.Metrics[k].Value; got != v {
			t.Errorf("%s = %g, want %g", k, got, v)
		}
	}

	// A twin that is not sharded, or that failed, reports them absent.
	for _, tc := range []struct {
		twin    repResult
		sharded bool
	}{{twin, false}, {repResult{Err: "boom"}, true}} {
		res = result{Metrics: map[string]metricValue{}}
		res.addShardedTwin(reps, tc.twin, tc.sharded)
		for _, d := range shardedLayers {
			if v := res.Metrics[d.name].Value; v != absent {
				t.Errorf("sharded=%v err=%q: %s = %g, want absent", tc.sharded, tc.twin.Err, d.name, v)
			}
		}
	}
}

func TestParseStealPerCPU(t *testing.T) {
	stat := "cpu  930884 0 67497 865143 343 0 17047 64972 0 0\n" +
		"cpu0 465000 0 33000 432000 100 0 8000 32000 0 0\n" +
		"cpu1 465884 0 34497 433143 243 0 9047 32972 0 0\n" +
		"intr 123 4 5\nctxt 99\n"
	if got, want := parseSteal(stat), 64972.0/100/2; got != want {
		t.Errorf("steal = %g s per CPU, want %g", got, want)
	}
	for _, bad := range []string{"", "intr 1\n", "cpu  1 2 3\ncpu0 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\ncpu0\n"} {
		if got := parseSteal(bad); got != 0 {
			t.Errorf("parseSteal(%q) = %g, want 0", bad, got)
		}
	}
}

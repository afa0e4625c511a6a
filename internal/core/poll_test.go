package core

import (
	"runtime"
	"testing"
	"time"

	"freephish/internal/crawler"
	"freephish/internal/world"
)

// emptyPollAllocBound caps the objects one empty poll cycle may allocate:
// two poll round trips (one per platform; most of it net/http's client)
// and the cycle's bookkeeping. An empty cycle measured 96 objects with
// Go 1.24 on linux/amd64; building the fetch → classify pipe graph per
// cycle again would add about 90 more.
const emptyPollAllocBound = 130

// TestEmptyPollCycleIsLean drives single poll cycles at an instant with no
// new post: the cycle must start no pipe goroutines and leave none behind,
// keep its allocations under emptyPollAllocBound, and still count the
// poll and report progress like any other cycle.
func TestEmptyPollCycleIsLean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Scale = 0.002
	cfg.TrainPerClass = 60
	progress := 0
	cfg.Progress = func(ProgressEvent) { progress++ }
	f := New(cfg)
	if err := f.Train(); err != nil {
		t.Fatal(err)
	}
	if err := f.startServers(); err != nil {
		t.Fatal(err)
	}
	defer f.stopServers()
	// No posting plan is scheduled, so every cycle is empty.
	now := cfg.Epoch.Add(cfg.PollInterval)
	poll := func() {
		if err := f.pollOnce(now); err != nil {
			t.Fatal(err)
		}
	}
	poll() // warm up the client and the registry's series

	before := runtime.NumGoroutine()
	poll()
	// The inproc client's Timeout parks a timer goroutine per request; it
	// exits once the poller closes the response body, so give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("an empty poll cycle left %d goroutines behind", after-before)
	}

	allocs := testing.AllocsPerRun(200, poll)
	t.Logf("empty poll cycle: %.0f allocs", allocs)
	if allocs > emptyPollAllocBound {
		t.Fatalf("an empty poll cycle allocates %.0f objects, want <= %d (a pipe graph per cycle is back?)", allocs, emptyPollAllocBound)
	}

	const cycles = 2 + 201 // AllocsPerRun adds one warm-up call
	var spans uint64
	for _, sp := range f.Metrics.Tracer.Snapshot() {
		if sp.Stage == "poll" {
			spans = sp.Count
		}
	}
	st := f.Stats()
	if st.Polls != cycles || progress != cycles || spans != cycles {
		t.Fatalf("Polls = %d, progress events = %d, poll spans = %d, want %d each", st.Polls, progress, spans, cycles)
	}
	if st.PostsSeen != 0 || st.URLsScanned != 0 {
		t.Fatalf("empty cycles saw posts: %+v", st)
	}
}

// emptyStream is a URL stream whose every poll yields nothing.
type emptyStream struct{}

func (emptyStream) Poll(time.Time) ([]crawler.StreamedURL, error) { return nil, nil }

// TestPollPipeSeriesWithoutFreshURLs: a run none of whose cycles yields a
// fresh URL builds no per-cycle graph, yet still exports every
// freephish_pipe_*{pipe="poll"} series a cycle would register.
func TestPollPipeSeriesWithoutFreshURLs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Scale = 0.002
	cfg.TrainPerClass = 60
	cfg.Duration = 24 * time.Hour
	f := New(cfg)
	f.streamWrap = func(world.URLStream) world.URLStream { return emptyStream{} }
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Polls == 0 || f.Stats().URLsScanned != 0 {
		t.Fatalf("want polls and no scanned URLs, got %+v", f.Stats())
	}
	want := map[string]bool{
		"freephish_pipe_queue_depth/source":     true,
		"freephish_pipe_queue_depth/fetch":      true,
		"freephish_pipe_queue_depth/classify":   true,
		"freephish_pipe_occupancy/fetch":        true,
		"freephish_pipe_occupancy/classify":     true,
		"freephish_pipe_stage_seconds/fetch":    true,
		"freephish_pipe_stage_seconds/classify": true,
		"freephish_pipe_items_total/fetch":      true,
		"freephish_pipe_items_total/classify":   true,
		"freephish_pipe_errors_total/fetch":     true,
		"freephish_pipe_errors_total/classify":  true,
	}
	for _, s := range f.Metrics.Registry.Snapshot() {
		if s.Labels["pipe"] == "poll" {
			delete(want, s.Name+"/"+s.Labels["stage"])
		}
	}
	if len(want) > 0 {
		t.Fatalf("poll pipeline series missing after an all-empty run: %v", want)
	}
}

package core

import (
	"runtime"
	"testing"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/threat"
)

// monitorTickAllocBound caps the objects one monitor tick may allocate
// when it runs its feed lookups. With Go 1.24 on linux/amd64 (and under
// -race alike) a tick of 4 lookups measured 32 objects when it built a
// two-worker pipe graph per tick and 17 with its one-worker stage fused
// into the clock goroutine.
const monitorTickAllocBound = 24

// TestMonitorTickIsLean drives single §4.4 monitor ticks for a URL no
// feed lists: a tick must leave no goroutine behind, keep its
// allocations under monitorTickAllocBound, and still count every check it
// ran in freephish_pipe_items_total{pipe="monitor",stage="check"}.
func TestMonitorTickIsLean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Scale = 0.002
	cfg.TrainPerClass = 60
	cfg.MonitorInterval = time.Minute
	// AllocsPerRun measures at GOMAXPROCS 1; fix the worker count so the
	// tick sees the setting a two-core study would give it.
	cfg.Workers = 2
	f := New(cfg)
	if err := f.Train(); err != nil {
		t.Fatal(err)
	}
	if err := f.startServers(); err != nil {
		t.Fatal(err)
	}
	defer f.stopServers()
	// The URL is hosted nowhere, so the first tick's live probe marks it
	// down and every later tick runs one lookup per feed.
	rec := &analysis.Record{Target: &threat.Target{
		URL: "https://lean-monitor.weebly.com/", SharedAt: cfg.Epoch}}
	f.monitorFrom(rec, cfg.Epoch.Add(cfg.MonitorInterval))
	ob := f.State.Observations()[rec.Target.URL]
	feeds := len(f.world.Feeds.FeedNames())

	checks := 0
	tick := func() {
		checks += feeds - len(ob.Listings)
		if ob.HostDownAt.IsZero() {
			checks++
		}
		if !f.Clock.Step() {
			t.Fatal("the monitor stopped ticking")
		}
	}
	tick() // warm up the client, the registry's series and the probe
	if ob.HostDownAt.IsZero() || len(ob.Listings) != 0 {
		t.Fatalf("after one tick: host down at %v, listings %v; want down, none", ob.HostDownAt, ob.Listings)
	}

	before := runtime.NumGoroutine()
	tick()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("a monitor tick left %d goroutines behind", after-before)
	}

	allocs := testing.AllocsPerRun(200, tick)
	t.Logf("monitor tick with %d checks: %.0f allocs", feeds, allocs)
	if allocs > monitorTickAllocBound {
		t.Fatalf("a monitor tick allocates %.0f objects, want <= %d (a pipe graph per tick is back?)", allocs, monitorTickAllocBound)
	}

	const ticks = 2 + 201 // AllocsPerRun adds one warm-up call
	if ob.Probes != ticks {
		t.Fatalf("observation probes = %d, want %d", ob.Probes, ticks)
	}
	var items float64
	for _, s := range f.Metrics.Registry.Snapshot() {
		if s.Name == "freephish_pipe_items_total" && s.Labels["pipe"] == "monitor" && s.Labels["stage"] == "check" {
			items = s.Value
		}
	}
	if items != float64(checks) {
		t.Fatalf("freephish_pipe_items_total{pipe=monitor,stage=check} = %v, want %d", items, checks)
	}
}

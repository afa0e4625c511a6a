package main

import (
	"fmt"
	"time"

	"freephish/internal/core"
)

// DefaultSeed is the seed the pinned output digests were taken at.
const DefaultSeed = 1

// HeldOutSeed is reserved for confirming a performance claim on a seed
// the change was not developed against. No digest is pinned for it, so
// only Verify and the cross-workload identities check its output.
const HeldOutSeed = 20231024

// workload is one fixed study configuration. All run in one process with
// one probe worker per CPU, cascade and fault injection off.
type workload struct {
	name    string
	scale   float64
	backend string
	monitor time.Duration // 0: the §4.4 monitor is off
	shards  int
	// twin is the workload whose output must be byte-identical to this
	// one's at every seed (the backend and shard invariants).
	twin string
	// digest is the pinned SHA-256 of the output at DefaultSeed.
	digest string
}

const (
	sparseDigest = "4e293e4525b50dd60b4498ce247c217a39e6d45961e962ab89f45986f4aceda7"
	denseDigest  = "1f3cf05fa37f69a3534d1371d832f1627e6d15743fc9b396c843c56030a2c0ca"
)

// workloads, in the order the interleaved "all" mode cycles them. Why each
// exists is in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "sparse", scale: 0.01, backend: core.BackendInproc, twin: "sparse-http", digest: sparseDigest},
	{name: "sparse-http", scale: 0.01, backend: core.BackendHTTP, twin: "sparse", digest: sparseDigest},
	{name: "dense", scale: 0.05, backend: core.BackendInproc, monitor: 6 * time.Hour, twin: "dense-sharded", digest: denseDigest},
	{name: "dense-sharded", scale: 0.05, backend: core.BackendInproc, monitor: 6 * time.Hour, shards: 2, twin: "dense", digest: denseDigest},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the study a workload runs at seed.
func (w workload) config(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = w.scale
	cfg.Backend = w.backend
	cfg.MonitorInterval = w.monitor
	cfg.Shards = w.shards
	cfg.Workers = 0
	return cfg
}

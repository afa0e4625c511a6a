package baselines

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"freephish/internal/features"
	"freephish/internal/ml"
	"freephish/internal/pipe"
	"freephish/internal/simclock"
)

// LexicalScorer is a standalone, fetch-free URL scorer: logistic
// regression over hashed character 3/4-grams and word tokens of the URL
// string alone, trained with SGD. It is the generalized core of the
// URLNet baseline (urlnet.go wraps it) and the first tier of the
// classification cascade: at production scale the dominant per-URL cost
// is the page fetch, and a scorer that never needs one can resolve
// confident traffic before the fetch stage sees it.
//
// A trained scorer is read-only and safe for concurrent use; ScoreURL is
// the allocation-free hot path the pipeline's triage stage calls.
type LexicalScorer struct {
	Dims   int // hashed feature space size
	Epochs int
	LR     float64
	Seed   int64
	// RNGKey names the scorer's keyed RNG stream (simclock.NewRNG), so
	// independently trained scorers — URLNet in Table 2, the cascade's
	// triage tier — never perturb each other's draws.
	RNGKey string

	w    []float64
	bias float64
}

// NewLexicalScorer returns a cascade-tier scorer with the URLNet
// defaults and its own RNG stream.
func NewLexicalScorer(seed int64) *LexicalScorer {
	return &LexicalScorer{Dims: 1 << 14, Epochs: 6, LR: 0.15, Seed: seed, RNGKey: "baselines.lexical"}
}

// Name implements Detector.
func (l *LexicalScorer) Name() string { return "Lexical" }

// Inline FNV-1a: hash/fnv allocates a hasher per token, which dominated
// the old URLNet.hashURL profile. The token prefixes ("c:" for n-grams,
// "w:" for words) are folded into precomputed seed states, so hashing a
// token is a pure loop over its bytes with no per-call allocation —
// byte-identical to fnv.New32a over the concatenated prefix+token.
const (
	fnvOffset32 uint32 = 2166136261
	fnvPrime32  uint32 = 16777619
)

func fnvAdd(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

var (
	charSeed = fnvAdd(fnvOffset32, "c:")
	wordSeed = fnvAdd(fnvOffset32, "w:")
)

// isURLSep reports URL word separators. All separators are ASCII, so a
// byte-level scan splits exactly where the old rune-level FieldsFunc did
// (UTF-8 continuation bytes never collide with ASCII).
func isURLSep(b byte) bool {
	switch b {
	case '/', '.', '-', '_', '?', '=', ':', '&':
		return true
	}
	return false
}

// hashURL extracts hashed character 3-grams and 4-grams plus word
// tokens, pre-sizing the index buffer (2·len n-grams + ≤len words). Used
// by Train, which wants the indices materialized for the epoch loop.
func (l *LexicalScorer) hashURL(raw string) []uint32 {
	s := strings.ToLower(raw)
	dims := uint32(l.Dims)
	idx := make([]uint32, 0, 2*len(s)+8)
	for n := 3; n <= 4; n++ {
		for i := 0; i+n <= len(s); i++ {
			idx = append(idx, fnvAdd(charSeed, s[i:i+n])%dims)
		}
	}
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && !isURLSep(s[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			idx = append(idx, fnvAdd(wordSeed, s[start:i])%dims)
		}
		start = -1
	}
	return idx
}

// Train implements Detector: SGD logistic regression over the hashed URL
// features, shuffled per epoch by the scorer's own keyed RNG stream.
func (l *LexicalScorer) Train(samples []LabeledPage) error {
	l.w = make([]float64, l.Dims)
	l.bias = 0
	key := l.RNGKey
	if key == "" {
		key = "baselines.lexical"
	}
	rng := simclock.NewRNG(l.Seed, key)
	// Pre-hash once.
	hashed := make([][]uint32, len(samples))
	for i, s := range samples {
		hashed[i] = l.hashURL(s.Page.URL)
	}
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < l.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			p := l.proba(hashed[i])
			g := p - float64(samples[i].Label)
			l.bias -= l.LR * g
			for _, j := range hashed[i] {
				l.w[j] -= l.LR * g
			}
		}
	}
	return nil
}

// sigmoid is the numerically stable logistic function.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func (l *LexicalScorer) proba(idx []uint32) float64 {
	z := l.bias
	for _, j := range idx {
		z += l.w[j]
	}
	return sigmoid(z)
}

// ScoreURL is the fetch-free hot path: P(phishing) from the URL string
// alone, accumulating the weight sum token-by-token so no index slice is
// ever materialized. Zero allocations per call on lowercase URLs.
func (l *LexicalScorer) ScoreURL(raw string) float64 {
	s := strings.ToLower(raw)
	dims := uint32(l.Dims)
	z := l.bias
	for n := 3; n <= 4; n++ {
		for i := 0; i+n <= len(s); i++ {
			z += l.w[fnvAdd(charSeed, s[i:i+n])%dims]
		}
	}
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && !isURLSep(s[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			z += l.w[fnvAdd(wordSeed, s[start:i])%dims]
		}
		start = -1
	}
	return sigmoid(z)
}

// Score implements Detector. Only the URL string is consulted.
func (l *LexicalScorer) Score(p features.Page) (float64, error) {
	return l.ScoreURL(p.URL), nil
}

// Save writes the trained scorer (configuration, bias and weights) to w
// as JSON. Equal bytes mean equal fits, which is how training is checked
// for determinism.
func (l *LexicalScorer) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Dims   int       `json:"dims"`
		Epochs int       `json:"epochs"`
		LR     float64   `json:"lr"`
		Seed   int64     `json:"seed"`
		RNGKey string    `json:"rng_key"`
		Bias   float64   `json:"bias"`
		W      []float64 `json:"w"`
	}{l.Dims, l.Epochs, l.LR, l.Seed, l.RNGKey, l.bias, l.w})
}

// Tier is a triage verdict from the classification cascade's first tier.
type Tier uint8

// Triage tiers. TierFull is the zero value, so an untriaged probe (the
// cascade disabled) naturally falls through to the full fetch+classify
// path.
const (
	TierFull   Tier = iota // uncertain: fall through to fetch + full model
	TierBenign             // confidently benign: short-circuit, never fetched
	TierPhish              // confidently phishing: short-circuit, never fetched
)

// String returns the tier's metric/journal label.
func (t Tier) String() string {
	switch t {
	case TierBenign:
		return "benign"
	case TierPhish:
		return "phish"
	}
	return "full"
}

// Default cascade thresholds, calibrated on the default seed's generated
// corpus (see EXPERIMENTS.md "Tiered cascade"): the widest confident
// band that keeps the cascade within one F1 point of the full model
// while short-circuiting well over 40% of fetches.
const (
	DefaultBenignBelow = 0.05
	DefaultPhishAbove  = 0.95
)

// URLScorer is the fetch-free scoring slice the cascade needs (satisfied
// by LexicalScorer). Implementations must be safe for concurrent use
// once trained.
type URLScorer interface {
	// ScoreURL returns P(phishing) from the URL string alone.
	ScoreURL(raw string) float64
}

// Cascade pairs a trained lexical scorer with calibrated confidence
// thresholds. Scores strictly below BenignBelow short-circuit as benign
// and scores strictly above PhishAbove short-circuit as phishing —
// neither ever reaches the fetch stage; everything in between falls
// through to the full fetch → classify path. The degenerate pair (0, 1)
// can never fire (the logistic score is clamped to [0, 1]), making a
// cascade with those thresholds behave byte-identically to no cascade.
type Cascade struct {
	Scorer      URLScorer
	BenignBelow float64
	PhishAbove  float64
}

// Triage scores the URL and assigns its tier. Read-only on the trained
// scorer — safe to call concurrently from pipeline stage workers.
func (c *Cascade) Triage(url string) (score float64, tier Tier) {
	score = c.Scorer.ScoreURL(url)
	switch {
	case score < c.BenignBelow:
		return score, TierBenign
	case score > c.PhishAbove:
		return score, TierPhish
	}
	return score, TierFull
}

// ParseCascadeThresholds parses a -cascade flag spec: "" / "off" disable
// the cascade, "on" / "default" select the calibrated defaults, and an
// explicit "benignBelow,phishAbove" pair (e.g. "0.05,0.95") tunes the
// confident band. "0,1" is the degenerate cascade that never
// short-circuits.
func ParseCascadeThresholds(spec string) (benignBelow, phishAbove float64, on bool, err error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "off", "false", "no", "none":
		return 0, 0, false, nil
	case "on", "default", "true", "yes":
		return DefaultBenignBelow, DefaultPhishAbove, true, nil
	}
	lo, hi, ok := strings.Cut(spec, ",")
	if !ok {
		return 0, 0, false, fmt.Errorf("baselines: cascade spec %q: want off, on, or benignBelow,phishAbove", spec)
	}
	benignBelow, err = strconv.ParseFloat(strings.TrimSpace(lo), 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("baselines: cascade benign threshold %q: %w", lo, err)
	}
	phishAbove, err = strconv.ParseFloat(strings.TrimSpace(hi), 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("baselines: cascade phish threshold %q: %w", hi, err)
	}
	if benignBelow < 0 || phishAbove > 1 || benignBelow > phishAbove {
		return 0, 0, false, fmt.Errorf("baselines: cascade thresholds %q: want 0 <= benignBelow <= phishAbove <= 1", spec)
	}
	return benignBelow, phishAbove, true, nil
}

// CascadeResult quantifies a cascade evaluation: the cascade's
// end-to-end decision quality against the full detector evaluated alone
// on the same test set, plus how much fetch work the confident tiers
// absorbed.
type CascadeResult struct {
	// Metrics scores the cascade's decisions (lexical verdicts for the
	// confident tiers, full-model verdicts for the fall-through band).
	Metrics ml.Metrics
	// FullMetrics scores the full detector alone — what fetching every
	// URL would have decided. The F1 gap is the cascade's quality cost.
	FullMetrics ml.Metrics
	// Per-tier sample counts.
	Benign, Phish, Uncertain int
	// FetchesAvoided is the fraction of samples the confident tiers
	// resolved without a fetch, in [0, 1].
	FetchesAvoided float64
	// TotalTime / MedianTime profile the cascade's decision path only
	// (lexical score + the full model on fall-through samples).
	TotalTime   time.Duration
	MedianTime  time.Duration
	SampleCount int
}

// EvaluateCascade scores a cascade and its fall-through detector over a
// test set, streaming through the same single-stage pipe as Evaluate
// (triage and scoring are read-only on trained models; the metric
// accumulator consumes results in input order). The full detector is
// also run on every short-circuited sample — outside the timed path —
// so FullMetrics reports what an always-fetch deployment would have
// decided on the identical set.
func EvaluateCascade(c *Cascade, full Detector, test []LabeledPage) (CascadeResult, error) {
	type triaged struct {
		tier               Tier
		cascPred, fullPred int
		dur                time.Duration
	}
	var r CascadeResult
	var conf, fullConf ml.Confusion
	times := make([]time.Duration, 0, len(test))
	start := time.Now()
	p := pipe.New(context.Background(), pipe.Options{Name: "evaluate-cascade"})
	st := pipe.Stage(pipe.Source(p, 0, test), "cascade", 0, 0,
		func(i int, s LabeledPage) (triaged, error) {
			t0 := time.Now()
			_, tier := c.Triage(s.Page.URL)
			out := triaged{tier: tier}
			if tier == TierFull {
				fs, err := full.Score(s.Page)
				if err != nil {
					return out, err
				}
				if fs >= 0.5 {
					out.cascPred = 1
				}
				out.dur = time.Since(t0)
				out.fullPred = out.cascPred
				return out, nil
			}
			if tier == TierPhish {
				out.cascPred = 1
			}
			out.dur = time.Since(t0)
			// Comparison pass, untimed: what the full model would have
			// said had this sample been fetched.
			fs, err := full.Score(s.Page)
			if err != nil {
				return out, err
			}
			if fs >= 0.5 {
				out.fullPred = 1
			}
			return out, nil
		})
	err := pipe.Drain(st, func(i int, tr triaged) error {
		switch tr.tier {
		case TierBenign:
			r.Benign++
		case TierPhish:
			r.Phish++
		default:
			r.Uncertain++
		}
		times = append(times, tr.dur)
		conf.Add(tr.cascPred, test[i].Label)
		fullConf.Add(tr.fullPred, test[i].Label)
		return nil
	})
	if err != nil {
		return CascadeResult{}, err
	}
	r.TotalTime = time.Since(start)
	r.Metrics = conf.Metrics()
	r.FullMetrics = fullConf.Metrics()
	r.SampleCount = len(test)
	if len(test) > 0 {
		r.FetchesAvoided = float64(r.Benign+r.Phish) / float64(len(test))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(times) > 0 {
		r.MedianTime = times[len(times)/2]
	}
	return r, nil
}

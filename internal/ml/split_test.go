package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"freephish/internal/simclock"
)

// tieHeavyDataset builds n rows whose columns are mostly ties — two
// binary features, a 3-level and a 6-level feature, a constant column and
// a continuous feature rounded to tenths — the shape of the page-feature
// vectors the stacks train on (counts and flags, few distinct values).
func tieHeavyDataset(n int, seed int64) *Dataset {
	rng := simclock.NewRNG(seed, "ml.ties")
	d := &Dataset{Names: []string{"bin_a", "bin_b", "lvl3", "lvl6", "const", "tenths"}}
	for i := 0; i < n; i++ {
		x := []float64{
			float64(rng.Intn(2)), float64(rng.Intn(2)),
			float64(rng.Intn(3)), float64(rng.Intn(6)) / 5,
			1, math.Round(rng.Float64()*10) / 10,
		}
		y := 0
		if x[0]+x[2]/2-x[1]*x[3]+x[5] > 1 {
			y = 1
		}
		if rng.Bool(0.1) {
			y = 1 - y
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// wantTieStackSHA is the SHA-256 of StackModel.Save for
// tieHeavyDataset(400, 3) fitted with NewStackModel(3). It was recorded
// while exactSplit still sorted each node with sort.Slice, so it pins
// that every later split search fits the same bytes: tie order inside
// the sort feeds the float prefix sums, so a search that orders ties
// differently changes thresholds, leaf values or both.
const wantTieStackSHA = "27e4e822cbb505f64c0b427611deb62763ba99d288542d64216c5e64148377f2"

func TestStackSaveGoldenOnTies(t *testing.T) {
	s := NewStackModel(3)
	if err := s.Fit(tieHeavyDataset(400, 3)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantTieStackSHA {
		t.Fatalf("StackModel.Save SHA-256 = %s, want %s", got, wantTieStackSHA)
	}
}

// refExactSplit is the split search exactSplit replaced: sort.Slice over a
// copy of idx, looking each value up by row index on every comparison.
// exactSplit must return exactly what it returns.
func refExactSplit(c *buildCtx, idx []int, f int, totG, totH, base float64) split {
	ord := make([]int, len(idx))
	copy(ord, idx)
	col := c.cols[f]
	sort.Slice(ord, func(a, b int) bool { return col[ord[a]] < col[ord[b]] })
	var lg, lh float64
	best := split{feature: f}
	for k := 0; k < len(ord)-1; k++ {
		i := ord[k]
		lg += c.grad[i]
		lh += c.hess[i]
		v, next := col[i], col[ord[k+1]]
		if v == next {
			continue
		}
		if k+1 < c.p.minSamplesLeaf || len(ord)-k-1 < c.p.minSamplesLeaf {
			continue
		}
		gain := c.score(lg, lh, k+1) + c.score(totG-lg, totH-lh, len(ord)-k-1) - base
		if gain > best.gain {
			best.gain = gain
			best.threshold = (v + next) / 2
			best.ok = true
		}
	}
	return best
}

// tieColumns returns an n-row matrix of tie-heavy columns: binary, 3- to
// 6-level, constant, runs ascending and descending with the row (sorted
// input takes pdqsort's other paths), and a continuous column rounded to
// tenths.
func tieColumns(n int, rng *simclock.RNG) [][]float64 {
	levels := 3 + rng.Intn(4)
	run := 1 + rng.Intn(8)
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{
			float64(rng.Intn(2)),
			float64(rng.Intn(levels)),
			0.5,
			float64(i / run),
			float64((n - i) / run),
			math.Round(rng.NormFloat64()*10) / 10,
		}
	}
	return X
}

func TestExactSplitMatchesSortSlice(t *testing.T) {
	rng := simclock.NewRNG(5, "ml.splitprop")
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(60)
		if trial%3 == 0 {
			n = 200 + rng.Intn(2000)
		}
		grad, hess := make([]float64, n), make([]float64, n)
		c := newBuildCtx(tieColumns(n, rng), grad, hess, treeParams{
			minSamplesLeaf: 1 + rng.Intn(8),
			lambda:         rng.Float64(),
			useHessian:     rng.Bool(0.5),
		})
		check := func(idx []int, root bool) {
			t.Helper()
			var totG, totH float64
			for _, i := range idx {
				totG += c.grad[i]
				totH += c.hess[i]
			}
			base := c.score(totG, totH, len(idx))
			for f := range c.cols {
				got := c.exactSplit(idx, f, root, totG, totH, base)
				want := refExactSplit(c, idx, f, totG, totH, base)
				if got.feature != want.feature || got.ok != want.ok ||
					math.Float64bits(got.threshold) != math.Float64bits(want.threshold) ||
					math.Float64bits(got.gain) != math.Float64bits(want.gain) {
					t.Fatalf("trial %d n=%d rows=%d root=%v feature %d: got %+v, want %+v",
						trial, n, len(idx), root, f, got, want)
				}
			}
		}
		// Three rounds of fresh gradients: the first sorts the root, the
		// later ones reuse its order.
		for round := 0; round < 3; round++ {
			for i := range grad {
				grad[i] = rng.NormFloat64()
				hess[i] = 1e-6 + rng.Float64()
			}
			check(c.root, true)
			var sub []int
			keep := rng.Float64()
			for i := 0; i < n; i++ {
				if rng.Bool(keep) {
					sub = append(sub, i)
				}
			}
			check(sub, false)
		}
	}
}

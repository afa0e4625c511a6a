package ml

import (
	"container/heap"
	"math"
	"slices"

	"freephish/internal/par"
)

// treeParams controls regression-tree growth for the boosting variants.
type treeParams struct {
	maxDepth       int
	maxLeaves      int  // 0 = unlimited (depth-wise growth)
	leafWise       bool // grow best-gain-first (LightGBM style)
	minSamplesLeaf int
	lambda         float64 // L2 regularization on leaf values (XGBoost style)
	gamma          float64 // minimum gain to split
	useHessian     bool    // second-order leaf values and gains
	bins           int     // 0 = exact splits; >0 = histogram splits (LightGBM style)
	workers        int     // worker cap for the per-feature split search; <=1 = serial
}

// parallelSplitMinRows gates the per-feature fan-out: below this node size
// the goroutine handoff costs more than the scan it distributes.
const parallelSplitMinRows = 256

// regNode is one node of a regression tree, stored flat.
type regNode struct {
	feature   int
	threshold float64
	left      int
	right     int
	leaf      bool
	value     float64
}

// regTree predicts a real value by routing x to a leaf.
type regTree struct {
	nodes []regNode
}

func (t *regTree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// buildCtx carries the gradient statistics during growth.
type buildCtx struct {
	// cols holds the training matrix feature-major (cols[f][i] = X[i][f]):
	// every node's index set is ascending, so reading one feature over it
	// walks one column forward instead of touching a row per value.
	cols [][]float64
	grad []float64
	hess []float64
	p    treeParams
	// root is every row in ascending order: the rows each tree's root node
	// splits. Across a fit's rounds only the gradients change, so the
	// root's sorted order on feature f is the same every round;
	// rootOrder[f] holds it from the first round that needs it on.
	root      []int
	rootOrder [][]valRow
	// spare[f] is the sort buffer of feature f's searches below the root.
	// Only one search per feature runs at a time and none keeps its order,
	// so one buffer per feature serves the whole fit.
	spare [][]valRow
}

// newBuildCtx returns a growth context over every row of X.
func newBuildCtx(X [][]float64, grad, hess []float64, p treeParams) *buildCtx {
	n, nFeat := len(X), 0
	if n > 0 {
		nFeat = len(X[0])
	}
	c := &buildCtx{
		cols: make([][]float64, nFeat), grad: grad, hess: hess, p: p,
		root: make([]int, n), rootOrder: make([][]valRow, nFeat), spare: make([][]valRow, nFeat),
	}
	flat := make([]float64, n*nFeat)
	for f := range c.cols {
		c.cols[f] = flat[f*n : (f+1)*n : (f+1)*n]
	}
	for i, x := range X {
		c.root[i] = i
		for f, v := range x {
			c.cols[f][i] = v
		}
	}
	return c
}

// valRow is one row's value on the feature being split, stored next to
// the row so the sort and the scan read contiguous memory.
type valRow struct {
	v   float64
	row int
}

// cmpValRow orders by value alone, reporting equal values as equal: the
// comparisons pdqsort sees are exactly sort.Slice's less(a, b) = a < b.
func cmpValRow(a, b valRow) int {
	if a.v < b.v {
		return -1
	}
	return 0
}

func (c *buildCtx) leafValue(idx []int) float64 {
	var g, h float64
	for _, i := range idx {
		g += c.grad[i]
		h += c.hess[i]
	}
	if c.p.useHessian {
		return -g / (h + c.p.lambda)
	}
	// Classic GBDT (Friedman): leaf = mean negative gradient.
	if len(idx) == 0 {
		return 0
	}
	return -g / float64(len(idx))
}

// score is the structure score used for gain computation: G²/(H+λ) in
// second-order mode, G²/n otherwise.
func (c *buildCtx) score(g, h float64, n int) float64 {
	if c.p.useHessian {
		return g * g / (h + c.p.lambda)
	}
	if n == 0 {
		return 0
	}
	return g * g / float64(n)
}

// split describes the best split found for a node.
type split struct {
	feature   int
	threshold float64
	gain      float64
	leftIdx   []int
	rightIdx  []int
	ok        bool
}

// findSplit searches all features for the best split over idx; root
// reports that idx is c.root, whose sorted orders are reused.
func (c *buildCtx) findSplit(idx []int, root bool) split {
	var totG, totH float64
	for _, i := range idx {
		totG += c.grad[i]
		totH += c.hess[i]
	}
	base := c.score(totG, totH, len(idx))
	nFeat := len(c.cols)
	// Features are searched independently (possibly concurrently) into a
	// per-feature slot, then reduced in ascending feature order with the
	// same strict-improvement rule the serial scan used — so ties between
	// equal-gain features resolve identically at every worker count.
	splits := make([]split, nFeat)
	search := func(f int) {
		if c.p.bins > 0 {
			splits[f] = c.histSplit(idx, f, totG, totH, base)
		} else {
			splits[f] = c.exactSplit(idx, f, root, totG, totH, base)
		}
	}
	if c.p.workers > 1 && len(idx) >= parallelSplitMinRows {
		par.Do(c.p.workers, nFeat, search)
	} else {
		for f := 0; f < nFeat; f++ {
			search(f)
		}
	}
	best := split{gain: c.p.gamma}
	for f := 0; f < nFeat; f++ {
		if splits[f].ok && splits[f].gain > best.gain {
			best = splits[f]
			best.ok = true
		}
	}
	if !best.ok {
		return split{}
	}
	// Materialize partitions once for the winning split.
	col := c.cols[best.feature]
	for _, i := range idx {
		if col[i] <= best.threshold {
			best.leftIdx = append(best.leftIdx, i)
		} else {
			best.rightIdx = append(best.rightIdx, i)
		}
	}
	if len(best.leftIdx) < c.p.minSamplesLeaf || len(best.rightIdx) < c.p.minSamplesLeaf {
		return split{}
	}
	return best
}

// exactSplit sorts idx's rows by feature f and scans every midpoint
// between distinct values.
//
// The sort is pdqsort over (value, row) pairs with a value-only
// comparator: slices.SortFunc runs the same generated pdqsort as
// sort.Slice and its choices depend only on comparison outcomes, so the
// rows come out in the order sort.Slice over idx would leave them, tie
// order included, without the reflective swapper or the double-indirect
// less. Tie order matters: the prefix sums lg/lh add gradients in that
// order, float addition is not associative, and a different order moves
// gains, thresholds and finally the saved model's bytes. That is why
// each child node sorts its own rows instead of filtering a presorted
// parent order — pdqsort on a subset does not order ties the way the
// parent's sort did. Only the root is sorted once per fit (rootOrder):
// its rows and values are the same every round.
func (c *buildCtx) exactSplit(idx []int, f int, root bool, totG, totH, base float64) split {
	ord := c.rootOrder[f]
	if !root || ord == nil {
		if root {
			ord = make([]valRow, len(idx))
			c.rootOrder[f] = ord
		} else {
			if c.spare[f] == nil {
				c.spare[f] = make([]valRow, len(c.root))
			}
			ord = c.spare[f][:len(idx)]
		}
		col := c.cols[f]
		for k, i := range idx {
			ord[k] = valRow{col[i], i}
		}
		slices.SortFunc(ord, cmpValRow)
	}
	var lg, lh float64
	best := split{feature: f}
	for k := 0; k < len(ord)-1; k++ {
		i := ord[k].row
		lg += c.grad[i]
		lh += c.hess[i]
		v, next := ord[k].v, ord[k+1].v
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

// histSplit bins the feature into equal-width histogram buckets and scans
// bucket boundaries — the LightGBM speed trick.
func (c *buildCtx) histSplit(idx []int, f int, totG, totH, base float64) split {
	col := c.cols[f]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := col[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		return split{}
	}
	nb := c.p.bins
	gs := make([]float64, nb)
	hs := make([]float64, nb)
	ns := make([]int, nb)
	width := (hi - lo) / float64(nb)
	for _, i := range idx {
		b := int((col[i] - lo) / width)
		if b >= nb {
			b = nb - 1
		}
		gs[b] += c.grad[i]
		hs[b] += c.hess[i]
		ns[b]++
	}
	var lg, lh float64
	ln := 0
	best := split{feature: f}
	for b := 0; b < nb-1; b++ {
		lg += gs[b]
		lh += hs[b]
		ln += ns[b]
		if ln < c.p.minSamplesLeaf || len(idx)-ln < c.p.minSamplesLeaf {
			continue
		}
		gain := c.score(lg, lh, ln) + c.score(totG-lg, totH-lh, len(idx)-ln) - base
		if gain > best.gain {
			best.gain = gain
			best.threshold = lo + width*float64(b+1)
			best.ok = true
		}
	}
	return best
}

// buildTree grows one regression tree over every row of the context.
func buildTree(ctx *buildCtx) *regTree {
	t := &regTree{}
	if ctx.p.leafWise {
		buildLeafWise(ctx, t, ctx.root)
	} else {
		buildDepthWise(ctx, t, ctx.root, 0)
	}
	return t
}

func buildDepthWise(ctx *buildCtx, t *regTree, idx []int, depth int) int {
	node := len(t.nodes)
	t.nodes = append(t.nodes, regNode{leaf: true, value: ctx.leafValue(idx)})
	if depth >= ctx.p.maxDepth || len(idx) < 2*ctx.p.minSamplesLeaf {
		return node
	}
	s := ctx.findSplit(idx, depth == 0)
	if !s.ok {
		return node
	}
	t.nodes[node].leaf = false
	t.nodes[node].feature = s.feature
	t.nodes[node].threshold = s.threshold
	l := buildDepthWise(ctx, t, s.leftIdx, depth+1)
	r := buildDepthWise(ctx, t, s.rightIdx, depth+1)
	t.nodes[node].left = l
	t.nodes[node].right = r
	return node
}

// candidate is a leaf eligible for splitting, ordered by gain.
type candidate struct {
	node  int
	idx   []int
	split split
	depth int
}

type candHeap []candidate

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return h[i].split.gain > h[j].split.gain }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() any          { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }

// buildLeafWise grows best-gain-first until maxLeaves (LightGBM style).
func buildLeafWise(ctx *buildCtx, t *regTree, idx []int) {
	t.nodes = append(t.nodes, regNode{leaf: true, value: ctx.leafValue(idx)})
	leaves := 1
	maxLeaves := ctx.p.maxLeaves
	if maxLeaves <= 1 {
		return
	}
	h := &candHeap{}
	if s := ctx.findSplit(idx, true); s.ok {
		heap.Push(h, candidate{node: 0, idx: idx, split: s, depth: 0})
	}
	for h.Len() > 0 && leaves < maxLeaves {
		c := heap.Pop(h).(candidate)
		n := c.node
		t.nodes[n].leaf = false
		t.nodes[n].feature = c.split.feature
		t.nodes[n].threshold = c.split.threshold
		l := len(t.nodes)
		t.nodes = append(t.nodes, regNode{leaf: true, value: ctx.leafValue(c.split.leftIdx)})
		r := len(t.nodes)
		t.nodes = append(t.nodes, regNode{leaf: true, value: ctx.leafValue(c.split.rightIdx)})
		t.nodes[n].left = l
		t.nodes[n].right = r
		leaves++ // one leaf became two
		if c.depth+1 < ctx.p.maxDepth {
			if s := ctx.findSplit(c.split.leftIdx, false); s.ok {
				heap.Push(h, candidate{node: l, idx: c.split.leftIdx, split: s, depth: c.depth + 1})
			}
			if s := ctx.findSplit(c.split.rightIdx, false); s.ok {
				heap.Push(h, candidate{node: r, idx: c.split.rightIdx, split: s, depth: c.depth + 1})
			}
		}
	}
}

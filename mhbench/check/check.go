// Package check verifies greedy weighted-set-cover results without
// trusting the program that produced them. It recomputes every step from
// the cohort's raw bits with plain loops of its own — no bitmat, cover,
// reduce or kernelize code — and checks the properties the method must
// have:
//
//   - each step's TP, TN, F = (α·TP+TN)/(Nt+Nn) and NewlyCovered match
//     the reported values bit for bit;
//   - F never rises from one step to the next, and every step covers at
//     least one sample;
//   - ΣNewlyCovered = Covered, and Covered + Uncoverable = Nt unless the
//     run stopped at its iteration cap;
//   - Evaluated + Pruned = C(G,h) × passes, passes being steps or
//     steps + 1;
//   - on the steps asked for, no combination scores a strictly higher F
//     than the step's winner (an exhaustive scan).
package check

import (
	"fmt"
	"math"
	"math/bits"
)

// Cohort is a gene × sample instance as raw bits: Tumor[g][s] is true
// when gene g is mutated in tumor sample s.
type Cohort struct {
	Tumor, Normal [][]bool
}

// Step is one reported greedy step.
type Step struct {
	Genes        []int
	F            float64
	NewlyCovered int
}

// Result is one reported run, in the fields the checks read.
type Result struct {
	Steps       []Step
	Covered     int
	Uncoverable int
	Evaluated   uint64
	Pruned      uint64
	// Unscanned, Partial and the fingerprints take part only in Same.
	Unscanned         uint64
	Partial           bool
	TumorFingerprint  uint64
	NormalFingerprint uint64
	KernelFingerprint uint64
}

// Options says how the run was configured and how much to check.
type Options struct {
	// Hits is the combination size h.
	Hits int
	// Alpha is the true-positive weight α of the score.
	Alpha float64
	// MaxIterations is the run's step cap (0 = none).
	MaxIterations int
	// Exhaustive lists the 0-based steps whose winner is checked against
	// every combination; ExhaustiveAll checks them all.
	Exhaustive    []int
	ExhaustiveAll bool
}

// words is a packed bit set of the checker's own.
type words []uint64

func pack(row []bool) words {
	w := make(words, (len(row)+63)/64)
	for s, on := range row {
		if on {
			w[s/64] |= 1 << (s % 64)
		}
	}
	return w
}

func ones(n int) words {
	w := make(words, (n+63)/64)
	for s := 0; s < n; s++ {
		w[s/64] |= 1 << (s % 64)
	}
	return w
}

// and sets dst = a ∧ b.
func and(dst, a, b words) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

func popAnd(a, b words) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

func pop(a words) int {
	n := 0
	for _, x := range a {
		n += bits.OnesCount64(x)
	}
	return n
}

// instance is a Cohort packed once for the checks.
type instance struct {
	genes, nt, nn int
	tumor, normal []words
	denom         float64
	alpha         float64
}

func newInstance(c *Cohort, alpha float64) (*instance, error) {
	if len(c.Tumor) != len(c.Normal) {
		return nil, fmt.Errorf("check: tumor has %d genes, normal has %d", len(c.Tumor), len(c.Normal))
	}
	in := &instance{genes: len(c.Tumor), alpha: alpha}
	if in.genes == 0 {
		return nil, fmt.Errorf("check: empty cohort")
	}
	in.nt, in.nn = len(c.Tumor[0]), len(c.Normal[0])
	for g := 0; g < in.genes; g++ {
		if len(c.Tumor[g]) != in.nt || len(c.Normal[g]) != in.nn {
			return nil, fmt.Errorf("check: gene %d has ragged rows", g)
		}
		in.tumor = append(in.tumor, pack(c.Tumor[g]))
		in.normal = append(in.normal, pack(c.Normal[g]))
	}
	in.denom = float64(in.nt + in.nn)
	return in, nil
}

func (in *instance) score(tp, tn int) float64 {
	return (in.alpha*float64(tp) + float64(tn)) / in.denom
}

// comboCounts returns the active tumor samples and the normal samples in
// which every gene of the combination is mutated, and the covered set.
func (in *instance) comboCounts(genes []int, active words) (tp, normalHits int, covered words) {
	covered = append(words(nil), active...)
	nor := ones(in.nn)
	for _, g := range genes {
		and(covered, covered, in.tumor[g])
		and(nor, nor, in.normal[g])
	}
	return pop(covered), pop(nor), covered
}

// Verify checks r against the cohort. The first violation is returned.
func Verify(c *Cohort, r *Result, opt Options) error {
	in, err := newInstance(c, opt.Alpha)
	if err != nil {
		return err
	}
	h := opt.Hits
	if h < 2 || h > 4 {
		return fmt.Errorf("check: hits must be 2-4, got %d", h)
	}
	exhaustive := map[int]bool{}
	for _, s := range opt.Exhaustive {
		exhaustive[s] = true
	}
	active := ones(in.nt)
	sum := 0
	for i, st := range r.Steps {
		if len(st.Genes) != h {
			return fmt.Errorf("check: step %d has %d genes, want %d", i, len(st.Genes), h)
		}
		for k, g := range st.Genes {
			if g < 0 || g >= in.genes {
				return fmt.Errorf("check: step %d gene %d out of range [0,%d)", i, g, in.genes)
			}
			if k > 0 && st.Genes[k-1] >= g {
				return fmt.Errorf("check: step %d genes %v not strictly increasing", i, st.Genes)
			}
		}
		tp, nh, covered := in.comboCounts(st.Genes, active)
		f := in.score(tp, in.nn-nh)
		if math.Float64bits(f) != math.Float64bits(st.F) {
			return fmt.Errorf("check: step %d %v: reported F=%v (bits %016x), recomputed %v (bits %016x) from TP=%d TN=%d",
				i, st.Genes, st.F, math.Float64bits(st.F), f, math.Float64bits(f), tp, in.nn-nh)
		}
		if st.NewlyCovered != tp {
			return fmt.Errorf("check: step %d %v: reported NewlyCovered=%d, recomputed %d", i, st.Genes, st.NewlyCovered, tp)
		}
		if tp < 1 {
			return fmt.Errorf("check: step %d %v covers no sample", i, st.Genes)
		}
		if i > 0 && st.F > r.Steps[i-1].F {
			return fmt.Errorf("check: F rose from %v at step %d to %v at step %d", r.Steps[i-1].F, i-1, st.F, i)
		}
		if opt.ExhaustiveAll || exhaustive[i] {
			if better, ok := in.strictlyBetter(h, active, st.F); ok {
				return fmt.Errorf("check: step %d winner %v F=%v is beaten by %v F=%v",
					i, st.Genes, st.F, better.genes, better.f)
			}
		}
		sum += tp
		for w := range active {
			active[w] &^= covered[w]
		}
	}
	if sum != r.Covered {
		return fmt.Errorf("check: ΣNewlyCovered=%d but Covered=%d", sum, r.Covered)
	}
	capped := opt.MaxIterations > 0 && len(r.Steps) == opt.MaxIterations
	if capped {
		if r.Uncoverable != 0 {
			return fmt.Errorf("check: run stopped at its %d-step cap but reports Uncoverable=%d", opt.MaxIterations, r.Uncoverable)
		}
	} else if r.Covered+r.Uncoverable != in.nt {
		return fmt.Errorf("check: Covered=%d + Uncoverable=%d != Nt=%d", r.Covered, r.Uncoverable, in.nt)
	}
	domain, ok := binomial(in.genes, h)
	if !ok {
		return fmt.Errorf("check: C(%d,%d) overflows", in.genes, h)
	}
	scanned := r.Evaluated + r.Pruned
	steps := uint64(len(r.Steps))
	if scanned != domain*steps && scanned != domain*(steps+1) {
		return fmt.Errorf("check: Evaluated+Pruned=%d is neither C(%d,%d)×%d nor ×%d (C=%d)",
			scanned, in.genes, h, steps, steps+1, domain)
	}
	return nil
}

type candidate struct {
	genes []int
	f     float64
}

// strictlyBetter scans every h-combination on the active set and returns
// one whose F strictly exceeds f, if any.
func (in *instance) strictlyBetter(h int, active words, f float64) (candidate, bool) {
	g := in.genes
	tw, nw := len(active), (in.nn+63)/64
	// prefix[d] holds the AND of the first d+1 chosen rows (tumor masked
	// by the active set).
	tpre := make([]words, h)
	npre := make([]words, h)
	for d := range tpre {
		tpre[d] = make(words, tw)
		npre[d] = make(words, nw)
	}
	idx := make([]int, h)
	var found candidate
	var walk func(d, from int) bool
	walk = func(d, from int) bool {
		for x := from; x <= g-(h-d); x++ {
			idx[d] = x
			if d == 0 {
				and(tpre[0], active, in.tumor[x])
				copy(npre[0], in.normal[x])
			}
			if d == h-1 {
				tp := popAnd(tpre[d-1], in.tumor[x])
				tn := in.nn - popAnd(npre[d-1], in.normal[x])
				if s := in.score(tp, tn); s > f {
					found = candidate{genes: append([]int(nil), idx...), f: s}
					return true
				}
				continue
			}
			if d > 0 {
				and(tpre[d], tpre[d-1], in.tumor[x])
				and(npre[d], npre[d-1], in.normal[x])
			}
			if walk(d+1, x+1) {
				return true
			}
		}
		return false
	}
	return found, walk(0, 0)
}

func binomial(n, k int) (uint64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	r := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(r, uint64(n-k+i))
		if hi != 0 {
			return 0, false
		}
		r = lo / uint64(i)
	}
	return r, true
}

// Same reports how a cache hit differs from the result it names as its
// source, bit for bit, or nil when they are identical.
func Same(hit, src *Result) error {
	if len(hit.Steps) != len(src.Steps) {
		return fmt.Errorf("check: hit has %d steps, source %d", len(hit.Steps), len(src.Steps))
	}
	for i := range hit.Steps {
		a, b := hit.Steps[i], src.Steps[i]
		if math.Float64bits(a.F) != math.Float64bits(b.F) {
			return fmt.Errorf("check: step %d F bits %016x, source %016x", i, math.Float64bits(a.F), math.Float64bits(b.F))
		}
		if fmt.Sprint(a.Genes) != fmt.Sprint(b.Genes) || a.NewlyCovered != b.NewlyCovered {
			return fmt.Errorf("check: step %d is %v/%d, source %v/%d", i, a.Genes, a.NewlyCovered, b.Genes, b.NewlyCovered)
		}
	}
	type tally struct {
		Covered, Uncoverable         int
		Evaluated, Pruned, Unscanned uint64
		Partial                      bool
		TFP, NFP, KFP                uint64
	}
	ta := tally{hit.Covered, hit.Uncoverable, hit.Evaluated, hit.Pruned, hit.Unscanned, hit.Partial,
		hit.TumorFingerprint, hit.NormalFingerprint, hit.KernelFingerprint}
	tb := tally{src.Covered, src.Uncoverable, src.Evaluated, src.Pruned, src.Unscanned, src.Partial,
		src.TumorFingerprint, src.NormalFingerprint, src.KernelFingerprint}
	if ta != tb {
		return fmt.Errorf("check: hit totals %+v, source %+v", ta, tb)
	}
	return nil
}

package check

import (
	"math"
	"strings"
	"testing"
)

// tiny is a 4-gene cohort with 4 tumor and 2 normal samples, small
// enough to score by hand (α = 0.1, Nt+Nn = 6):
//
//	tumor        normal
//	g0: 1 1 1 0  g0: 1 0
//	g1: 1 1 0 0  g1: 0 0
//	g2: 0 0 1 1  g2: 0 1
//	g3: 0 0 1 1  g3: 0 0
//
// Step 0, all samples active: {0,1} and {2,3} each cover 2 tumor samples
// and no normal sample, F = (0.1·2 + 2)/6; {0,1} wins the tie on gene
// order. {0,2} and {0,3} cover 1, F = (0.1·1 + 2)/6. The pairs with
// g1 and g2 or g3 cover nothing, F = 2/6.
// Step 1, samples 2 and 3 active: {2,3} covers both, F = (0.1·2 + 2)/6.
// Two pair passes over C(4,2) = 6 combinations: Evaluated = 12.
func tiny() (*Cohort, *Result) {
	b := func(s string) []bool {
		out := make([]bool, len(s))
		for i := range s {
			out[i] = s[i] == '1'
		}
		return out
	}
	c := &Cohort{
		Tumor:  [][]bool{b("1110"), b("1100"), b("0011"), b("0011")},
		Normal: [][]bool{b("10"), b("00"), b("01"), b("00")},
	}
	f := score(2, 2, 6)
	r := &Result{
		Steps: []Step{
			{Genes: []int{0, 1}, F: f, NewlyCovered: 2},
			{Genes: []int{2, 3}, F: f, NewlyCovered: 2},
		},
		Covered:   4,
		Evaluated: 12,
	}
	return c, r
}

var tinyOpt = Options{Hits: 2, Alpha: 0.1, ExhaustiveAll: true}

// alpha is a variable so that scores are rounded step by step in float64,
// as a program computes them, not folded exactly as Go constants are.
var alpha = 0.1

// score is F for hand-counted TP and TN over denom = Nt+Nn samples.
func score(tp, tn, denom int) float64 {
	return (alpha*float64(tp) + float64(tn)) / float64(denom)
}

func TestAcceptsHandScoredCohort(t *testing.T) {
	c, r := tiny()
	if err := Verify(c, r, tinyOpt); err != nil {
		t.Fatalf("Verify rejected the hand-scored result: %v", err)
	}
	// One extra pass that found nothing is also a valid count.
	r.Pruned = 6
	if err := Verify(c, r, tinyOpt); err != nil {
		t.Fatalf("Verify rejected steps+1 passes: %v", err)
	}
}

func TestRejectsTamperedResults(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(*Result)
		want   string
	}{
		{"swapped gene", func(r *Result) { r.Steps[0].Genes = []int{0, 2} }, "recomputed"},
		{"F off by one ulp", func(r *Result) { r.Steps[1].F = math.Nextafter(r.Steps[1].F, 1) }, "recomputed"},
		{"F one ulp low", func(r *Result) { r.Steps[0].F = math.Nextafter(r.Steps[0].F, 0) }, "recomputed"},
		{"dropped step", func(r *Result) { r.Steps = r.Steps[:1] }, "ΣNewlyCovered"},
		{"dropped step with totals fixed", func(r *Result) {
			r.Steps = r.Steps[:1]
			r.Covered, r.Uncoverable = 2, 0
		}, "Uncoverable"},
		{"NewlyCovered off", func(r *Result) { r.Steps[0].NewlyCovered = 3 }, "NewlyCovered"},
		{"counts off", func(r *Result) { r.Evaluated = 11 }, "Evaluated+Pruned"},
		{"beaten winner", func(r *Result) {
			// A self-consistent but suboptimal first step: {0,2} scores
			// (0.1+2)/6 while {0,1} scores (0.2+2)/6.
			r.Steps = []Step{
				{Genes: []int{0, 2}, F: score(1, 2, 6), NewlyCovered: 1},
				{Genes: []int{0, 1}, F: score(2, 2, 6), NewlyCovered: 2},
			}
		}, "beaten"},
		{"unsorted genes", func(r *Result) { r.Steps[0].Genes = []int{1, 0} }, "strictly increasing"},
		{"wrong arity", func(r *Result) { r.Steps[0].Genes = []int{0, 1, 2} }, "genes, want"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, r := tiny()
			tc.tamper(r)
			err := Verify(c, r, tinyOpt)
			if err == nil {
				t.Fatalf("Verify accepted a tampered result")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestFRisingIsRejected(t *testing.T) {
	// Alone, a rising F is caught before the totals: step 1 of a run
	// whose step 0 covered less and so scored less.
	c, _ := tiny()
	r := &Result{Steps: []Step{
		{Genes: []int{0, 2}, F: score(1, 2, 6), NewlyCovered: 1},
		{Genes: []int{0, 1}, F: score(2, 2, 6), NewlyCovered: 2},
	}}
	err := Verify(c, r, Options{Hits: 2, Alpha: 0.1})
	if err == nil || !strings.Contains(err.Error(), "rose") {
		t.Fatalf("Verify error = %v, want a rising-F rejection", err)
	}
}

func TestCappedRunTotals(t *testing.T) {
	c, r := tiny()
	r.Steps = r.Steps[:1]
	r.Covered, r.Evaluated = 2, 6
	opt := tinyOpt
	opt.MaxIterations = 1
	if err := Verify(c, r, opt); err != nil {
		t.Fatalf("Verify rejected a run stopped at its cap: %v", err)
	}
	r.Uncoverable = 2
	if err := Verify(c, r, opt); err == nil {
		t.Fatalf("Verify accepted Uncoverable on a capped run")
	}
}

func TestExhaustiveFourHit(t *testing.T) {
	// 5 genes, 3 tumor samples, 1 normal sample: {0,1,2,3} covers
	// samples 0 and 1; {1,2,3,4} covers sample 2 only.
	c := &Cohort{
		Tumor: [][]bool{
			{true, true, false}, {true, true, true}, {true, true, true},
			{true, true, true}, {false, false, true},
		},
		Normal: [][]bool{{false}, {false}, {false}, {false}, {false}},
	}
	best := Step{Genes: []int{0, 1, 2, 3}, F: score(2, 1, 4), NewlyCovered: 2}
	next := Step{Genes: []int{1, 2, 3, 4}, F: score(1, 1, 4), NewlyCovered: 1}
	opt := Options{Hits: 4, Alpha: 0.1, Exhaustive: []int{0}}
	ok := &Result{Steps: []Step{best, next}, Covered: 3, Evaluated: 10}
	if err := Verify(c, ok, opt); err != nil {
		t.Fatalf("Verify rejected the optimal 4-hit run: %v", err)
	}
	bad := &Result{Steps: []Step{next, {Genes: []int{0, 1, 2, 3}, F: score(2, 1, 4), NewlyCovered: 2}}, Covered: 3, Evaluated: 10}
	if err := Verify(c, bad, opt); err == nil || !strings.Contains(err.Error(), "beaten") {
		t.Fatalf("Verify error = %v, want the suboptimal first step beaten", err)
	}
}

func TestSameRejectsDifferingHit(t *testing.T) {
	_, src := tiny()
	src.TumorFingerprint, src.NormalFingerprint = 7, 9
	clone := func() *Result {
		_, r := tiny()
		r.TumorFingerprint, r.NormalFingerprint = 7, 9
		return r
	}
	if err := Same(clone(), src); err != nil {
		t.Fatalf("Same rejected an identical hit: %v", err)
	}
	tampers := map[string]func(*Result){
		"F one ulp":    func(r *Result) { r.Steps[0].F = math.Nextafter(r.Steps[0].F, 2) },
		"gene":         func(r *Result) { r.Steps[1].Genes = []int{1, 3} },
		"dropped step": func(r *Result) { r.Steps = r.Steps[:1] },
		"cover":        func(r *Result) { r.Covered = 3 },
		"fingerprint":  func(r *Result) { r.NormalFingerprint = 8 },
		"counts":       func(r *Result) { r.Pruned = 1 },
	}
	for name, tamper := range tampers {
		hit := clone()
		tamper(hit)
		if err := Same(hit, src); err == nil {
			t.Errorf("%s: Same accepted a hit that differs from its source", name)
		}
	}
}

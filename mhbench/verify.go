package main

import (
	"fmt"

	"repro/internal/service"
	"repro/mhbench/check"
)

// toCheck converts a job result into the checker's shape.
func toCheck(r *service.JobResult) *check.Result {
	out := &check.Result{
		Covered:           r.Covered,
		Uncoverable:       r.Uncoverable,
		Evaluated:         r.Evaluated,
		Pruned:            r.Pruned,
		Unscanned:         r.Unscanned,
		Partial:           r.Partial,
		TumorFingerprint:  r.TumorFingerprint,
		NormalFingerprint: r.NormalFingerprint,
		KernelFingerprint: r.KernelFingerprint,
	}
	for _, c := range r.Combos {
		out.Steps = append(out.Steps, check.Step{Genes: c.GeneIDs, F: c.F, NewlyCovered: c.NewlyCovered})
	}
	return out
}

// rawCohort regenerates a spec's cohort and reads it out bit by bit.
func rawCohort(s service.JobSpec) (*check.Cohort, error) {
	c, err := s.Cohort.Generate()
	if err != nil {
		return nil, err
	}
	read := func(genes, samples int, get func(g, s int) bool) [][]bool {
		out := make([][]bool, genes)
		for g := range out {
			out[g] = make([]bool, samples)
			for s := range out[g] {
				out[g][s] = get(g, s)
			}
		}
		return out
	}
	return &check.Cohort{
		Tumor:  read(c.Tumor.Genes(), c.Tumor.Samples(), c.Tumor.Get),
		Normal: read(c.Normal.Genes(), c.Normal.Samples(), c.Normal.Get),
	}, nil
}

// tally counts one operation kind.
type tally struct{ attempted, failed int }

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// verifyRun checks every answer of the run after the timed phase:
//   - the first successful fresh result of each spec is recomputed
//     independently (check.Verify);
//   - every later fresh result of the spec equals it bit for bit;
//   - every cache hit equals the fresh job it names as its source.
//
// Each comparison counts as one check.
func verifyRun(w *workload, rounds []*roundResult, logf func(string, ...any)) (tally, error) {
	var checks tally
	var firstErr error
	fail := func(err error) {
		checks.add(err)
		if err != nil {
			logf("# CHECK FAILED: %v", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	ref := map[int]*check.Result{}
	byID := map[string]*check.Result{}
	// The first fresh spec of each cohort code gets its first step
	// checked exhaustively.
	exhaustiveFirst := map[int]bool{}
	seen := map[string]bool{}
	for i, s := range w.fresh {
		if !seen[s.Cohort.Code] {
			seen[s.Cohort.Code] = true
			exhaustiveFirst[i] = true
		}
	}
	for _, rr := range rounds {
		for _, fj := range rr.fresh {
			if fj.err != nil {
				continue
			}
			got := toCheck(fj.status.Result)
			byID[fj.id] = got
			if prev, ok := ref[fj.spec]; ok {
				if err := check.Same(got, prev); err != nil {
					fail(fmt.Errorf("%s in round %d differs from its first run: %w", specName(w.fresh[fj.spec]), fj.round, err))
				} else {
					fail(nil)
				}
				continue
			}
			ref[fj.spec] = got
			s := w.fresh[fj.spec]
			opt := check.Options{Hits: s.Cohort.Hits, Alpha: alpha, MaxIterations: s.Options.MaxIterations}
			if exhaustiveFirst[fj.spec] {
				opt.Exhaustive = []int{0}
			}
			raw, err := rawCohort(s)
			if err == nil {
				err = check.Verify(raw, got, opt)
			}
			if err != nil {
				err = fmt.Errorf("%s (%s): %w", specName(s), fj.id, err)
			}
			fail(err)
		}
		for _, h := range rr.hits {
			if h.err != nil {
				continue
			}
			src, ok := byID[h.source]
			if !ok {
				fail(fmt.Errorf("hit %s names %s, which has no checked result", h.status.ID, h.source))
				continue
			}
			if err := check.Same(toCheck(h.status.Result), src); err != nil {
				fail(fmt.Errorf("hit %s differs from its source %s: %w", h.status.ID, h.source, err))
			} else {
				fail(nil)
			}
		}
	}
	return checks, firstErr
}

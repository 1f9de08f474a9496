package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bitmat"
	"repro/internal/ckptstore"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/kernelize"
	"repro/internal/service"
	"repro/internal/sparsemat"
)

// probeResult holds one job's direct layer measurements beside its
// spans: the counts and ratios the spans cannot carry.
type probeResult struct {
	job              string
	spec             service.JobSpec
	engine           cover.Engine
	evaluated        uint64
	pruned           uint64
	harnessS         float64
	durableS         float64
	coverS           float64
	saves            int
	saveBytes        int64
	genesKept        float64
	colsKept         float64
	andPopNsPerWord  float64
	intersectNsPerEl float64
}

// prober calls each layer's public functions directly on a finished
// job's inputs, after the job and never while one runs.
type prober struct {
	tr      *tracer
	dir     string // scratch space for the durable store
	results []*probeResult
	n       int
}

// timedStore wraps the checkpoint store the daemon uses and times every
// Save as a child span of the durable run.
type timedStore struct {
	st     *ckptstore.Store
	tr     *tracer
	parent int
	job    string
	saves  int
	bytes  int64
}

func (s *timedStore) Save(payload []byte) (uint64, error) {
	id := s.tr.begin("ckptstore.save", s.job, s.parent)
	gen, err := s.st.Save(payload)
	s.tr.end(id)
	s.saves++
	s.bytes += int64(len(payload))
	return gen, err
}

func (s *timedStore) Load() (*ckptstore.Snapshot, error) { return s.st.Load() }

// sink keeps the word-op loops from being optimized away.
var sink int

// minProbe is the least time each word-op loop is repeated for.
const minProbe = 20 * time.Millisecond

func (p *prober) probe(ctx context.Context, spec service.JobSpec, job string) error {
	root := p.tr.begin("probe", job, 0)
	defer p.tr.end(root)
	pr := &probeResult{job: job, spec: spec}

	g0 := time.Now()
	cohort, err := spec.Cohort.Generate()
	p.tr.record("dataset.generate", job, root, g0, time.Now())
	if err != nil {
		return err
	}
	spec.Options.Workers = runtime.NumCPU()
	opt, err := spec.Options.CoverOptions(spec.Cohort.Hits)
	if err != nil {
		return err
	}

	h0 := time.Now()
	res, err := harness.Run(ctx, cohort.Tumor, cohort.Normal, harness.Options{Cover: opt})
	pr.harnessS = p.timed("harness.run", job, root, h0)
	if err != nil {
		return fmt.Errorf("harness.Run: %w", err)
	}
	pr.evaluated, pr.pruned, pr.engine = res.Evaluated, res.Pruned, res.Options.Engine

	p.n++
	storeDir := filepath.Join(p.dir, fmt.Sprintf("probe-ckpt-%d", p.n))
	st, err := ckptstore.Open(storeDir, ckptstore.Options{})
	if err != nil {
		return err
	}
	ds := p.tr.begin("harness.durable_run", job, root)
	ts := &timedStore{st: st, tr: p.tr, parent: ds, job: job}
	d0 := time.Now()
	_, err = harness.Run(ctx, cohort.Tumor, cohort.Normal, harness.Options{Cover: opt, Store: ts, CheckpointEvery: 1})
	pr.durableS = time.Since(d0).Seconds()
	p.tr.end(ds)
	if err != nil {
		return fmt.Errorf("durable harness.Run: %w", err)
	}
	if err := os.RemoveAll(storeDir); err != nil {
		return err
	}
	pr.saves, pr.saveBytes = ts.saves, ts.bytes

	c0 := time.Now()
	_, err = cover.Run(cohort.Tumor, cohort.Normal, opt)
	pr.coverS = p.timed("cover.run", job, root, c0)
	if err != nil {
		return fmt.Errorf("cover.Run: %w", err)
	}

	one := opt
	one.Kernelize, one.MaxIterations = false, 0
	f0 := time.Now()
	_, _, err = cover.FindBest(cohort.Tumor, cohort.Normal, nil, one)
	p.timed("cover.find_best", job, root, f0)
	if err != nil {
		return fmt.Errorf("cover.FindBest: %w", err)
	}

	k0 := time.Now()
	kern, err := kernelize.Reduce(cohort.Tumor, cohort.Normal, spec.Cohort.Hits)
	p.timed("kernelize.reduce", job, root, k0)
	if err != nil {
		return fmt.Errorf("kernelize.Reduce: %w", err)
	}
	pr.genesKept = float64(len(kern.Keep)) / float64(cohort.Tumor.Genes())
	pr.colsKept = float64(kern.Tumor.Samples()+kern.Normal.Samples()) /
		float64(cohort.Tumor.Samples()+cohort.Normal.Samples())

	pr.andPopNsPerWord = p.andPop(cohort, job, root)
	pr.intersectNsPerEl = p.intersect(kern, job, root)
	p.results = append(p.results, pr)
	return nil
}

func (p *prober) timed(name, job string, parent int, start time.Time) float64 {
	end := time.Now()
	p.tr.record(name, job, parent, start, end)
	return end.Sub(start).Seconds()
}

// andPop times bitmat.AndWordsPop over every pair of tumor rows.
func (p *prober) andPop(c *dataset.Cohort, job string, parent int) float64 {
	t := c.Tumor
	dst := make([]uint64, t.Words())
	var words int
	s0 := time.Now()
	for time.Since(s0) < minProbe {
		for i := 0; i < t.Genes(); i++ {
			for j := i + 1; j < t.Genes(); j++ {
				sink += bitmat.AndWordsPop(dst, t.Row(i), t.Row(j))
				words += len(dst)
			}
		}
	}
	el := time.Since(s0)
	p.tr.record("bitmat.andpop", job, parent, s0, s0.Add(el))
	return float64(el.Nanoseconds()) / float64(words)
}

// intersect times sparsemat.IntersectCount over every pair of the
// kernel's tumor row lists.
func (p *prober) intersect(k *kernelize.Kernel, job string, parent int) float64 {
	m := sparsemat.FromBitmat(k.Tumor)
	var elems int
	s0 := time.Now()
	for time.Since(s0) < minProbe {
		for i := 0; i < m.Genes(); i++ {
			for j := i + 1; j < m.Genes(); j++ {
				a, b := m.Row(i), m.Row(j)
				sink += sparsemat.IntersectCount(a, b)
				elems += len(a) + len(b)
			}
		}
	}
	el := time.Since(s0)
	p.tr.record("sparsemat.intersect", job, parent, s0, s0.Add(el))
	if elems == 0 {
		return 0
	}
	return float64(el.Nanoseconds()) / float64(elems)
}

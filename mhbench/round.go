package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/service"
)

// followToTerminal reads the job's SSE stream until its terminal state
// frame arrives and returns the arrival time.
func followToTerminal(ctx context.Context, cl *client.Client, id string) (time.Time, error) {
	st := cl.Watch(id)
	defer st.Close()
	for {
		e, err := st.Next(ctx)
		if errors.Is(err, io.EOF) {
			return time.Time{}, fmt.Errorf("event stream of %s ended without a terminal frame", id)
		}
		if err != nil {
			return time.Time{}, err
		}
		if e.Type != "state" {
			continue
		}
		if s, perr := service.ParseState(e.State); perr == nil && s.Terminal() {
			return time.Now(), nil
		}
	}
}

// freshJob is one measured fresh submission.
type freshJob struct {
	spec    int // index into workload.fresh
	round   int
	id      string
	latency timing        // POST start → terminal frame
	submit  time.Duration // POST round trip
	// queue, run and notify split the job's time by the daemon's own
	// timestamps: submitted → started → ended → terminal frame arrival.
	queue, run, notify time.Duration
	status             *service.JobStatus
	err                error
}

// hitJob is one resubmission answered from the result cache.
type hitJob struct {
	spec    int
	round   int
	source  string // the fresh job of this round it must equal
	latency timing
	status  *service.JobStatus
	err     error
}

// roundResult is everything one round measured.
type roundResult struct {
	setup   timing
	peakMiB float64
	fresh   []*freshJob
	hits    []*hitJob
}

// runner executes rounds of one workload against fresh daemons.
type runner struct {
	w        *workload
	bin      string
	template string
	runDir   string
	seed     int64
	tr       *tracer
	probes   *prober // non-nil in traced runs
}

// startOnCopy copies the starting data directory and starts a daemon on
// the copy; the returned directory is removed by the caller.
func (r *runner) startOnCopy(ctx context.Context, name string) (*daemon, string, error) {
	dir := filepath.Join(r.runDir, name)
	if err := copyTree(r.template, dir); err != nil {
		return nil, dir, fmt.Errorf("copying the starting data directory: %w", err)
	}
	d, err := startDaemon(ctx, r.bin, dir)
	return d, dir, err
}

// setupOnly starts and stops a daemon, returning its start-up time.
func (r *runner) setupOnly(ctx context.Context, n int) (timing, error) {
	d, dir, err := r.startOnCopy(ctx, fmt.Sprintf("setup-%d", n))
	if err != nil {
		return timing{}, err
	}
	r.tr.record("daemon.setup", "", 0, time.Now().Add(-d.ready.wall), time.Now())
	if err := d.stop(); err != nil {
		return timing{}, err
	}
	return d.ready, removeRunData(dir)
}

func removeRunData(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Remove(dir + ".log")
}

// hitsPerFresh is how many cache-answered resubmissions follow each
// fresh job. A hit takes milliseconds, so many of them cost little and
// steady the median.
const hitsPerFresh = 8

// round runs every fresh spec once, in an order drawn from the run seed,
// each followed by hitsPerFresh resubmissions of the spec that just
// finished. Every round thus holds the same operations whatever the
// seed: a hit's cost depends on its cohort's shape, so a seeded choice
// of which spec to resubmit would move the hit median between runs.
func (r *runner) round(ctx context.Context, n int) (*roundResult, error) {
	rs := r.tr.begin("round", "", 0)
	defer r.tr.end(rs)
	d, dir, err := r.startOnCopy(ctx, fmt.Sprintf("round-%d", n))
	if err != nil {
		return nil, err
	}
	r.tr.record("daemon.setup", "", rs, time.Now().Add(-d.ready.wall), time.Now())
	out := &roundResult{setup: d.ready}
	rng := rand.New(rand.NewSource(r.seed*7919 + int64(n)))
	order := rng.Perm(len(r.w.fresh))
	for i, si := range order {
		if err := ctx.Err(); err != nil {
			d.stop()
			return nil, err
		}
		key := fmt.Sprintf("mhbench-%d-%d-%d", r.seed, n, i)
		fj := r.fresh(ctx, d.cl, si, n, key, rs)
		out.fresh = append(out.fresh, fj)
		if fj.err != nil {
			continue
		}
		if r.probes != nil && n == 0 {
			if err := r.probes.probe(ctx, r.w.fresh[si], fj.id); err != nil {
				d.stop()
				return nil, err
			}
		}
		// A hit lasts about one clock tick, too short to split its own
		// time into stolen and not; the batch's split applies to each.
		cpu0 := readCPUStat()
		batch := len(out.hits)
		for k := 0; k < hitsPerFresh; k++ {
			out.hits = append(out.hits, r.hit(ctx, d.cl, si, n, fj.id, fmt.Sprintf("%s-hit%d", key, k), rs))
		}
		share := readCPUStat().unstolen(cpu0)
		for _, h := range out.hits[batch:] {
			h.latency.unstolen = share
		}
	}
	peak, perr := d.peakRSSMiB()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, fmt.Errorf("reading the daemon's peak RSS: %w", perr)
	}
	out.peakMiB = peak
	return out, removeRunData(dir)
}

// fresh submits one spec and follows it to its terminal frame.
func (r *runner) fresh(ctx context.Context, cl *client.Client, si, n int, key string, parent int) *freshJob {
	spec := r.w.fresh[si]
	fj := &freshJob{spec: si, round: n}
	js := r.tr.begin("job", "", parent)
	defer r.tr.end(js)
	cpu0 := readCPUStat()
	t0 := time.Now()
	st, dup, err := cl.Submit(ctx, spec, key)
	t1 := time.Now()
	if err == nil && dup {
		err = fmt.Errorf("submission %s was answered as a duplicate", key)
	}
	if err != nil {
		fj.err = fmt.Errorf("submitting %s: %w", specName(spec), err)
		return fj
	}
	fj.id, fj.submit = st.ID, t1.Sub(t0)
	r.tr.setJob(js, st.ID)
	r.tr.record("client.submit", st.ID, js, t0, t1)
	t2, err := followToTerminal(ctx, cl, st.ID)
	if err != nil {
		fj.err = fmt.Errorf("following %s (%s): %w", st.ID, specName(spec), err)
		return fj
	}
	fj.latency = timing{wall: t2.Sub(t0), unstolen: readCPUStat().unstolen(cpu0)}
	r.tr.record("client.watch", st.ID, js, t1, t2)
	g0 := time.Now()
	final, err := cl.Get(ctx, st.ID)
	r.tr.record("client.get", st.ID, js, g0, time.Now())
	if err != nil {
		fj.err = fmt.Errorf("fetching %s: %w", st.ID, err)
		return fj
	}
	fj.status = final
	fj.queue = final.StartedAt.Sub(final.SubmittedAt)
	fj.run = final.EndedAt.Sub(final.StartedAt)
	fj.notify = t2.Sub(final.EndedAt)
	r.tr.record("service.queue", st.ID, js, final.SubmittedAt, final.StartedAt)
	r.tr.record("service.run", st.ID, js, final.StartedAt, final.EndedAt)
	r.tr.record("service.notify", st.ID, js, final.EndedAt, t2)
	fj.err = jobOutcome(final, false)
	return fj
}

// hit resubmits a spec whose fresh job finished in this round; the
// daemon must answer it from the result cache.
func (r *runner) hit(ctx context.Context, cl *client.Client, si, n int, source, key string, parent int) *hitJob {
	h := &hitJob{spec: si, round: n, source: source}
	hs := r.tr.begin("hit", "", parent)
	defer r.tr.end(hs)
	t0 := time.Now()
	st, _, err := cl.Submit(ctx, r.w.fresh[si], key)
	t1 := time.Now()
	if err != nil {
		h.err = fmt.Errorf("resubmitting %s: %w", specName(r.w.fresh[si]), err)
		return h
	}
	r.tr.setJob(hs, st.ID)
	r.tr.record("client.submit", st.ID, hs, t0, t1)
	h.latency, h.status = timing{wall: t1.Sub(t0)}, st
	h.err = jobOutcome(st, true)
	if h.err == nil && st.Result.CachedFrom != source {
		h.err = fmt.Errorf("hit %s names %q as its source, want %q", st.ID, st.Result.CachedFrom, source)
	}
	return h
}

// jobOutcome reports a job that did not succeed whole: not terminal,
// failed, partial, or answered from (or not from) the cache against
// expectation.
func jobOutcome(st *service.JobStatus, wantCached bool) error {
	if st.State != "succeeded" {
		return fmt.Errorf("job %s ended %s", st.ID, st.State)
	}
	res := st.Result
	if res == nil {
		return fmt.Errorf("job %s succeeded without a result", st.ID)
	}
	if res.Partial || res.Stop != "completed" {
		return fmt.Errorf("job %s is partial (stop %q)", st.ID, res.Stop)
	}
	if cached := res.CachedFrom != ""; cached != wantCached {
		return fmt.Errorf("job %s cached_from=%q, want cached=%v", st.ID, res.CachedFrom, wantCached)
	}
	return nil
}

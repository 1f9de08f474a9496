// Command mhbench is the repository's benchmark. It drives the real
// multihitd daemon over loopback HTTP with internal/client, one job in
// flight from one closed-loop client, and prints the end-to-end metrics
// of one workload; with -trace 1 it also calls every layer's public
// functions on the same inputs and prints the per-layer ledger instead.
// Every answer is checked against an independent recomputation
// (package check) after the timed phase. README.md describes the
// workloads, the metrics and reference figures.
//
// Run it from the repository root through run.sh, which builds this
// program and the daemon first:
//
//	bash mhbench/run.sh --workload dense-4hit --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/combinat"
)

// setupStarts is how many extra daemon starts, beyond one per round, time
// the start-up before the rounds begin.
const setupStarts = 9

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: dense-4hit or kernelized-sparse-4hit")
	seed := flag.Int64("seed", 1, "seed for the submission order and the resubmitted specs")
	seconds := flag.Int("seconds", 20, "measure whole rounds until this many seconds have passed")
	trace := flag.Int("trace", 0, "1 = traced run: call each layer directly and print the per-layer metrics")
	daemonBin := flag.String("daemon", "", "path of the multihitd binary")
	work := flag.String("work", "", "directory for starting data, run data and traces")
	flag.Parse()

	w, ok := workloads()[*workload]
	if !ok || *daemonBin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "mhbench: need -workload (dense-4hit or kernelized-sparse-4hit), -daemon, -work, -seconds >= 1 and -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	binHash, err := fileHash(*daemonBin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mhbench: %v\n", err)
		return 1
	}
	printEnv(os.Stdout, binHash)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d fresh_specs=%d history_jobs=%d\n",
		w.name, *seed, *seconds, *trace, len(w.fresh), len(w.history))

	template, err := ensureTemplate(ctx, w, *daemonBin, *work, binHash)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mhbench: building the starting data directory: %v\n", err)
		return 1
	}
	runDir := filepath.Join(*work, "runs", fmt.Sprintf("%s-seed%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "mhbench: %v\n", err)
		return 1
	}
	r := &runner{w: w, bin: *daemonBin, template: template, runDir: runDir, seed: *seed}
	if *trace == 1 {
		r.tr = &tracer{}
		r.probes = &prober{tr: r.tr, dir: runDir}
	}

	var setups []timing
	for i := 0; i < setupStarts; i++ {
		t, err := r.setupOnly(ctx, i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mhbench: %v\n", err)
			return 1
		}
		setups = append(setups, t)
	}
	var rounds []*roundResult
	cpu0 := readCPUStat()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < time.Duration(*seconds)*time.Second; n++ {
		rr, err := r.round(ctx, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mhbench: round %d: %v\n", n, err)
			return 1
		}
		rounds = append(rounds, rr)
		setups = append(setups, rr.setup)
	}
	measured := time.Since(start)
	fmt.Printf("# cpu during rounds: %s\n", readCPUStat().since(cpu0))

	// Accounting: every submission is an operation; a non-2xx answer, a
	// job that did not succeed whole, or a failed check fails it.
	var subs, fresh, hits tally
	for _, rr := range rounds {
		for _, fj := range rr.fresh {
			fresh.add(fj.err)
			subs.add(fj.err)
			if fj.err != nil {
				fmt.Printf("# FAILED: %v\n", fj.err)
			}
		}
		for _, h := range rr.hits {
			hits.add(h.err)
			subs.add(h.err)
			if h.err != nil {
				fmt.Printf("# FAILED: %v\n", h.err)
			}
		}
	}
	c0 := time.Now()
	checks, checkErr := verifyRun(w, rounds, func(f string, a ...any) { fmt.Printf(f+"\n", a...) })
	fmt.Printf("# rounds=%d measured_s=%.3f check_s=%.3f\n", len(rounds), measured.Seconds(), time.Since(c0).Seconds())
	for _, op := range []struct {
		name string
		t    tally
	}{{"submissions", subs}, {"fresh_jobs", fresh}, {"cache_hits", hits}, {"checks", checks}} {
		fmt.Printf("ops %-12s attempted=%d failed=%d\n", op.name, op.t.attempted, op.t.failed)
	}

	e2e := endToEnd(w, rounds, setups)
	hitS := hitMedian(rounds)
	fmt.Printf("# hit_p50_s %.6g s (reference only, not a metric)\n", hitS)
	metrics := e2e
	if *trace == 1 {
		for _, m := range e2e {
			fmt.Printf("# traced %s %.6g %s\n", m.name, m.value, m.unit)
		}
		metrics = perLayer(r, e2e[0].value, hitS, len(w.history))
		for _, pr := range r.probes.results {
			fmt.Printf("# engine %s resolved %s\n", specName(pr.spec), pr.engine)
		}
		path := filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = r.tr.write(path, os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mhbench: writing the trace: %v\n", err)
			return 1
		}
	}
	printTails(rounds, setups)
	for _, m := range metrics {
		fmt.Printf("metric %-34s %.6g %s\n", m.name, m.value, m.unit)
	}

	correct := checkErr == nil
	out := map[string]any{
		"correct":   correct,
		"attempted": subs.attempted,
		"failed":    subs.failed,
		"metrics":   jsonMetrics(metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mhbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	if err := os.RemoveAll(runDir); err != nil {
		fmt.Fprintf(os.Stderr, "mhbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

func jsonMetrics(ms []metric) map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// endToEnd computes the four user-facing metrics from the rounds.
func endToEnd(w *workload, rounds []*roundResult, setups []timing) []metric {
	var lat, peaks, setup []float64
	var combos, latSum float64
	for _, t := range setups {
		setup = append(setup, t.seconds())
	}
	for _, rr := range rounds {
		peaks = append(peaks, rr.peakMiB)
		for _, fj := range rr.fresh {
			if fj.err != nil {
				continue
			}
			s := w.fresh[fj.spec].Cohort
			domain, _ := combinat.Binomial(uint64(s.Genes), uint64(s.Hits))
			combos += float64(domain) * float64(len(fj.status.Result.Combos))
			latSum += fj.latency.seconds()
			lat = append(lat, fj.latency.seconds())
		}
	}
	return []metric{
		{"setup_s", "s", median(setup)},
		{"job_p50_s", "s", median(lat)},
		{"scan_rate", "Mcomb/s", combos / latSum / 1e6},
		{"peak_rss_mb", "MiB", median(peaks)},
	}
}

// hitMedian is the median round trip of the cache-answered
// resubmissions. It is printed for reference and feeds
// service.hit_overhead_s, but it is no end-to-end metric: a hit is mostly
// four fsyncs, and on a shared virtual disk its run median moved by up to
// 2x between identical runs (README.md, "Why hits are not a metric").
func hitMedian(rounds []*roundResult) float64 {
	var xs []float64
	for _, rr := range rounds {
		for _, h := range rr.hits {
			if h.err == nil {
				xs = append(xs, h.latency.seconds())
			}
		}
	}
	return median(xs)
}

// printTails reports upper percentiles for reference only, with their
// sample counts; they are not metrics. Job and setup times are printed
// unadjusted, beside the share the hypervisor stole from them.
func printTails(rounds []*roundResult, setups []timing) {
	var lat, hitLat, setup []float64
	var wall, kept float64
	for _, t := range setups {
		setup = append(setup, t.wall.Seconds())
	}
	for _, rr := range rounds {
		for _, fj := range rr.fresh {
			if fj.err == nil {
				lat = append(lat, fj.latency.wall.Seconds())
				wall += fj.latency.wall.Seconds()
				kept += fj.latency.seconds()
			}
		}
		for _, h := range rr.hits {
			if h.err == nil {
				hitLat = append(hitLat, h.latency.wall.Seconds())
			}
		}
	}
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"job", lat}, {"hit", hitLat}, {"setup", setup}} {
		if len(t.xs) == 0 {
			continue
		}
		fmt.Printf("# wall %-5s n=%-4d p50=%.6f p90=%.6f max=%.6f\n",
			t.name, len(t.xs), median(t.xs), quantile(t.xs, 0.9), quantile(t.xs, 1))
	}
	if wall > 0 {
		fmt.Printf("# fresh jobs: CPU share lost to the hypervisor %.1f%%\n", 100*(1-kept/wall))
	}
}

// perLayer computes the ledger of a traced run from its spans and probe
// results; setupS is the run's setup_s and hitS its hit median.
func perLayer(r *runner, setupS, hitS float64, historyJobs int) []metric {
	tr, probes := r.tr, r.probes.results
	med := func(name string) float64 { return median(tr.durations(name)) }
	var evaluated, pruned, saves, bytes float64
	var overCover, share, overhead []float64
	var genesKept, colsKept, andPop, intersect []float64
	runByJob := map[string]float64{}
	for _, s := range tr.spans {
		if s.Name == "service.run" {
			runByJob[s.Job] = s.dur().Seconds()
		}
	}
	for _, p := range probes {
		evaluated += float64(p.evaluated)
		pruned += float64(p.pruned)
		saves += float64(p.saves)
		bytes += float64(p.saveBytes)
		overCover = append(overCover, p.harnessS/p.coverS)
		share = append(share, 1-p.harnessS/p.durableS)
		if run, ok := runByJob[p.job]; ok {
			overhead = append(overhead, run-p.durableS)
		}
		genesKept = append(genesKept, p.genesKept)
		colsKept = append(colsKept, p.colsKept)
		andPop = append(andPop, p.andPopNsPerWord)
		intersect = append(intersect, p.intersectNsPerEl)
	}
	n := float64(len(probes))
	return []metric{
		{"dataset.generate_s", "s", med("dataset.generate")},
		{"service.submit_s", "s", median(submitDurations(tr))},
		{"service.queue_s", "s", med("service.queue")},
		{"service.run_s", "s", med("service.run")},
		{"service.notify_s", "s", med("service.notify")},
		{"service.overhead_s", "s", median(overhead)},
		{"service.hit_overhead_s", "s", hitS - med("dataset.generate")},
		{"service.restore_per_job_s", "s", setupS / float64(historyJobs)},
		{"harness.run_s", "s", med("harness.run")},
		{"harness.durable_run_s", "s", med("harness.durable_run")},
		{"harness.scored", "count", evaluated / n},
		{"harness.pruned_share", "ratio", pruned / (evaluated + pruned)},
		{"harness.over_cover", "ratio", median(overCover)},
		{"ckptstore.save_s", "s", med("ckptstore.save")},
		{"ckptstore.saves_per_job", "count", saves / n},
		{"ckptstore.bytes_per_job", "bytes", bytes / n},
		{"ckptstore.share", "ratio", median(share)},
		{"cover.run_s", "s", med("cover.run")},
		{"cover.find_best_s", "s", med("cover.find_best")},
		{"kernelize.reduce_s", "s", med("kernelize.reduce")},
		{"kernelize.genes_kept", "ratio", median(genesKept)},
		{"kernelize.cols_kept", "ratio", median(colsKept)},
		{"bitmat.andpop_ns_per_word", "ns", median(andPop)},
		{"sparsemat.intersect_ns_per_elem", "ns", median(intersect)},
	}
}

// submitDurations returns the POST round trips of fresh jobs only: the
// client.submit spans whose parent is a job span.
func submitDurations(tr *tracer) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == "client.submit" && s.Parent != 0 && tr.spans[s.Parent-1].Name == "job" {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// cpuStat is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ busy, idle, steal, total float64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var c cpuStat
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return cpuStat{}
		}
		switch i {
		case 4, 5: // idle, iowait
			c.idle += v
		case 8:
			c.steal += v
		case 9, 10: // guest time is already counted in user and nice
			continue
		default:
			c.busy += v
		}
		c.total += v
	}
	return c
}

// unstolen is the share of the non-idle CPU time since prev that this
// machine's CPUs ran for it rather than lost to the hypervisor (1 when
// nothing ran).
func (c cpuStat) unstolen(prev cpuStat) float64 {
	busy, steal := c.busy-prev.busy, c.steal-prev.steal
	if busy+steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}

// timing is a wall-clock interval and the share of CPU time the machine
// kept during it. On a virtual machine that shares its host, the
// hypervisor takes CPU time away (steal) as other tenants' load comes
// and goes, which moves wall-clock latencies between identical runs
// (README.md, "Steal"). A timing reports the wall time scaled by the
// share kept: the time the interval would have taken had the CPUs run
// for it throughout. Without steal the two are equal; the output lists
// the unscaled wall times beside the metrics.
type timing struct {
	wall     time.Duration
	unstolen float64
}

func (t timing) seconds() float64 { return t.wall.Seconds() * t.unstolen }

// since describes the CPU split between two readings, so that a run on a
// machine shared with other work shows it.
func (c cpuStat) since(prev cpuStat) string {
	d := c.total - prev.total
	if d <= 0 {
		return "unavailable"
	}
	return fmt.Sprintf("busy=%.1f%% idle=%.1f%% steal=%.1f%%",
		100*(c.busy-prev.busy)/d, 100*(c.idle-prev.idle)/d, 100*(c.steal-prev.steal)/d)
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// printEnv writes the environment header, so that figures from different
// machines are never compared silently.
func printEnv(w io.Writer, daemonHash string) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# env GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s multihitd_sha256=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), commit, daemonHash)
}

package main

import (
	"fmt"

	"repro/internal/service"
)

// workload is one benchmark input set. Every round of a run submits the
// same fresh specs (in a seed-shuffled order), each followed by one
// resubmission of an already-finished spec that the result cache answers.
// The daemon of every round starts on a copy of a data directory that
// already holds the history jobs, so start-up restores real work.
type workload struct {
	name  string
	fresh []service.JobSpec
	// history builds the starting data directory: terminal jobs of the
	// workload's shape whose cohort seeds differ from every fresh spec,
	// so none of them answers a fresh submission from the cache.
	history []service.JobSpec
}

// alpha is the method's default true-positive weight (the paper's α);
// jobs leave it unset and the checker scores with it.
const alpha = 0.1

func spec(code string, genes, hits int, seed int64, opt service.OptionsSpec) service.JobSpec {
	return service.JobSpec{
		Tenant:  "mhbench",
		Cohort:  service.CohortSpec{Code: code, Genes: genes, Hits: hits, Seed: seed},
		Options: opt,
	}
}

// historyJobs is the number of terminal jobs in each starting data
// directory.
const historyJobs = 48

func workloads() map[string]*workload {
	dense := &workload{name: "dense-4hit"}
	for s := int64(101); s <= 106; s++ {
		dense.fresh = append(dense.fresh, spec("BRCA", 80, 4, s, service.OptionsSpec{}))
	}
	for s := int64(1001); s < 1001+historyJobs; s++ {
		dense.history = append(dense.history, spec("BRCA", 80, 4, s, service.OptionsSpec{}))
	}

	// ACC and ESCA run to a full cover. LGG at 175 genes sits just under
	// the 3x1 sparse crossover; a full LGG cover takes tens of seconds,
	// so its jobs stop after six steps.
	sparse := &workload{name: "kernelized-sparse-4hit"}
	kern := service.OptionsSpec{Kernelize: true}
	lgg := service.OptionsSpec{Kernelize: true, MaxIterations: 6}
	shapes := []struct {
		code  string
		genes int
		opt   service.OptionsSpec
	}{{"ACC", 150, kern}, {"ESCA", 120, kern}, {"LGG", 175, lgg}}
	for i, sh := range shapes {
		for k := int64(0); k < 2; k++ {
			sparse.fresh = append(sparse.fresh, spec(sh.code, sh.genes, 4, 201+2*int64(i)+k, sh.opt))
		}
		for k := int64(0); k < historyJobs/int64(len(shapes)); k++ {
			sparse.history = append(sparse.history, spec(sh.code, sh.genes, 4, 2001+100*int64(i)+k, sh.opt))
		}
	}

	out := map[string]*workload{}
	for _, w := range []*workload{dense, sparse} {
		out[w.name] = w
	}
	return out
}

// specName labels a spec in output lines.
func specName(s service.JobSpec) string {
	return fmt.Sprintf("%s/%d/h%d/seed%d", s.Cohort.Code, s.Cohort.Genes, s.Cohort.Hits, s.Cohort.Seed)
}

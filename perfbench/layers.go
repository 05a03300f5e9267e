package main

import "runtime"

// layerMetrics turns a traced run into the per-layer metrics. Counts are
// per iteration (each repeats exactly); times are per-iteration totals
// of the traced phase, as medians; resource use comes from the untraced
// phase so tracing does not inflate it.
func layerMetrics(rep *report, chk *checker) map[string]metric {
	m := map[string]metric{}
	count := func(name string) {
		m[name] = metric{float64(chk.counts[name]), "count"}
	}
	for _, name := range []string{
		"arrivals.steps", "cluster.placed", "cluster.rejected", "cluster.migrations",
		"hv.host_ticks", "hv.ticks_executed", "cpu.sim_instructions", "cache.accesses",
		"cache.llc_misses", "snapshot.captures", "snapshot.bytes", "sweep.jobs",
	} {
		count(name)
	}
	elided := 0.0
	if ht := chk.counts["hv.host_ticks"]; ht > 0 {
		elided = 1 - float64(chk.counts["hv.ticks_executed"])/float64(ht)
	}
	m["hv.elided_frac"] = metric{elided, "frac"}

	iters := len(rep.traced)
	perIter := func(name string) float64 {
		_, totals := rep.trace.byName(name)
		xs := make([]float64, iters)
		for i := range xs {
			xs[i] = totals[i]
		}
		return median(xs)
	}
	calls := func(name string) float64 {
		each, _ := rep.trace.byName(name)
		if iters == 0 {
			return 0
		}
		return float64(len(each)) / float64(iters)
	}
	steps, _ := rep.trace.byName("arrivals.step")
	jobs, _ := rep.trace.byName("sweep.run")
	for name, v := range map[string]metric{
		"arrivals.step_s":        {perIter("arrivals.step"), "s"},
		"arrivals.step_p50_us":   {pct(steps, 50) * 1e6, "us"},
		"arrivals.step_p99_us":   {pct(steps, 99) * 1e6, "us"},
		"arrivals.finish_s":      {perIter("arrivals.finish"), "s"},
		"arrivals.fingerprint_s": {perIter("arrivals.fingerprint"), "s"},
		"cluster.place_calls":    {calls("cluster.place"), "count"},
		"cluster.place_s":        {perIter("cluster.place"), "s"},
		"cluster.plan_calls":     {calls("cluster.plan"), "count"},
		"cluster.plan_s":         {perIter("cluster.plan"), "s"},
		"snapshot.capture_s":     {perIter("snapshot.capture"), "s"},
		"snapshot.resume_s":      {perIter("snapshot.resume"), "s"},
		"sweep.job_p50_ms":       {pct(jobs, 50) * 1e3, "ms"},
		"sweep.job_max_ms":       {pct(jobs, 100) * 1e3, "ms"},
		"sweep.merge_s":          {perIter("sweep.merge"), "s"},
	} {
		m[name] = v
	}

	for _, mod := range modules {
		m[mod+".cpu_frac"] = metric{rep.profile[mod], "frac"}
	}

	var cpuS, util, gc, alloc, wallU, wallT []float64
	for i, it := range rep.untraced {
		u := rep.usage[i]
		took := (it.setup + it.wall).Seconds()
		cpuS = append(cpuS, u.cpuS)
		util = append(util, u.cpuS/took/float64(runtime.GOMAXPROCS(0)))
		if u.cpuS > 0 {
			gc = append(gc, u.gcCPUS/u.cpuS)
		}
		alloc = append(alloc, u.allocMB)
		wallU = append(wallU, it.wall.Seconds())
	}
	for _, it := range rep.traced {
		wallT = append(wallT, it.wall.Seconds())
	}
	m["proc.cpu_s"] = metric{median(cpuS), "s"}
	m["proc.cpu_util"] = metric{median(util), "frac"}
	m["runtime.gc_cpu_frac"] = metric{median(gc), "frac"}
	m["runtime.alloc_mb"] = metric{median(alloc), "MB"}
	// Lower deciles, like wall_s: see endToEndMetrics.
	m["trace.overhead_frac"] = metric{pct(wallT, 10)/pct(wallU, 10) - 1, "frac"}
	fail := 0.0
	if chk.attempted > 0 {
		fail = float64(chk.failed) / float64(chk.attempted)
	}
	m["fail_frac"] = metric{fail, "frac"}
	return m
}

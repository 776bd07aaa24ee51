package main

import "repro/internal/api"

// perLayer computes the per-layer metrics from a traced phase's spans,
// and the tracing overhead against the untraced phase. A metric whose
// layer the workload does not exercise reads 0 (METRICS.md lists which).
func perLayer(spans []span, traced, untraced *phaseStats) (map[string]metric, error) {
	splits, err := splitRequests(spans)
	if err != nil {
		return nil, err
	}
	var loadSelf, routeSelf, serveSelf, missSelf, hitSelf []float64
	var queue, parked, unattr, run []float64
	var attrRun = map[string][]float64{}
	var attrInstrs, attrRunNs = map[string]float64{}, map[string]float64{}
	var attempts, stamped, hits, seeded, replays, replayHits float64
	var submits, sheds, preempts, okJobs float64
	var runNs, bytecodes, icHits, icLookups, allocs, minor, major float64
	for _, s := range splits {
		r := s.root
		loadSelf = append(loadSelf, s.load)
		routeSelf = append(routeSelf, s.route)
		serveSelf = append(serveSelf, s.serve)
		attempts += float64(r.Attempts)
		switch r.Cache {
		case api.ProgramCacheMiss:
			stamped++
			missSelf = append(missSelf, s.serve)
		case api.ProgramCacheHit:
			stamped++
			hits++
		case api.ProgramCacheSeeded:
			stamped++
			hits++
			seeded++
		}
		if r.Replay {
			replays++
			if r.Deduped {
				replayHits++
			}
		}
		if r.Deduped {
			hitSelf = append(hitSelf, s.serve)
		}
		if len(s.submits) == 0 {
			continue
		}
		queue = append(queue, s.queue)
		parked = append(parked, s.parked)
		unattr = append(unattr, s.unattributed)
		for _, j := range s.submits {
			submits++
			preempts += float64(j.Preemptions)
			switch j.Class {
			case "shed":
				sheds++
				continue
			case "ok":
				okJobs++
				if j.Bytecodes > 0 {
					runNs += float64(j.RunNs)
					bytecodes += float64(j.Bytecodes)
				}
				icHits += float64(j.ICHits)
				icLookups += float64(j.ICHits + j.ICMisses)
				allocs += float64(j.Allocs)
				minor += float64(j.MinorGCs)
				major += float64(j.MajorGCs)
			}
			run = append(run, float64(j.RunNs)/1e6)
			if r.Attributed {
				attrRun[r.Mode] = append(attrRun[r.Mode], float64(j.RunNs)/1e6)
				attrInstrs[r.Mode] += float64(r.Instrs)
				attrRunNs[r.Mode] += float64(j.RunNs)
			}
		}
	}
	n := float64(len(splits))
	m := map[string]metric{
		"load.self_ms.p50":              {pct(loadSelf, 0.50), "ms"},
		"route.self_ms.p50":             {pct(routeSelf, 0.50), "ms"},
		"route.self_ms.p99":             {pct(routeSelf, 0.99), "ms"},
		"route.attempts_per_req":        {ratio(attempts, n), "count"},
		"serve.self_ms.p50":             {pct(serveSelf, 0.50), "ms"},
		"serve.self_ms.p99":             {pct(serveSelf, 0.99), "ms"},
		"progstore.hit_ratio":           {ratio(hits, stamped), "ratio"},
		"progstore.seeded_ratio":        {ratio(seeded, stamped), "ratio"},
		"progstore.miss_self_ms.p50":    {pct(missSelf, 0.50), "ms"},
		"dedup.replay_hit_ratio":        {ratio(replayHits, replays), "ratio"},
		"dedup.hit_self_ms.p50":         {pct(hitSelf, 0.50), "ms"},
		"supervise.queue_ms.p50":        {pct(queue, 0.50), "ms"},
		"supervise.queue_ms.p99":        {pct(queue, 0.99), "ms"},
		"supervise.parked_ms.p99":       {pct(parked, 0.99), "ms"},
		"supervise.preemptions_per_req": {ratio(preempts, submits), "count"},
		"supervise.unattributed_ms.p50": {pct(unattr, 0.50), "ms"},
		"supervise.unattributed_ms.p99": {pct(unattr, 0.99), "ms"},
		"supervise.shed_ratio":          {ratio(sheds, submits), "ratio"},
		"interp.run_ms.p50":             {pct(run, 0.50), "ms"},
		"interp.run_ms.p99":             {pct(run, 0.99), "ms"},
		"interp.ns_per_bytecode":        {ratio(runNs, bytecodes), "ns"},
		"interp.bytecodes_per_req":      {ratio(bytecodes, okJobs), "count"},
		"interp.ic_hit_rate":            {ratio(icHits, icLookups), "ratio"},
		"gc.allocs_per_req":             {ratio(allocs, okJobs), "count"},
		"gc.minor_per_req":              {ratio(minor, okJobs), "count"},
		"gc.major_per_req":              {ratio(major, okJobs), "count"},
		"telemetry.scrape_ms.p50":       {pct(traced.scrapes, 0.50), "ms"},
		"load.lateness_ms.p99":          {pct(traced.lateness, 0.99), "ms"},
		"trace.overhead_pct":            {100 * (ratio(pct(traced.lats, 0.5), pct(untraced.lats, 0.5)) - 1), "%"},
		"trace.rps_overhead_pct":        {100 * (1 - ratio(traced.rps(), untraced.rps())), "%"},
	}
	for _, mode := range attrModes {
		m["attrib.run_ms."+mode+".p50"] = metric{pct(attrRun[mode], 0.50), "ms"}
		// instructions per ns, times 1e3, is millions per second
		m["attrib.sim_minstr_per_s."+mode] = metric{1e3 * ratio(attrInstrs[mode], attrRunNs[mode]), "Minstr/s"}
	}
	return m, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

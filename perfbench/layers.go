package main

import "fmt"

// experimentIDs are the paper-report generators, in experiments.All()
// order; each gets an experiments.<id>_s metric.
var experimentIDs = []string{
	"table1", "table2", "fig5", "fig6", "table3",
	"fig7", "fig8", "fig9", "fig10", "ablations", "perf", "smt", "backup",
}

// layerUnits lists every per-layer metric a traced run prints, with its
// unit. A workload that does not load a layer reports its metrics as 0:
// that zero is the measurement (the layer did no work), not a gap.
var layerUnits = func() [][2]string {
	ls := [][2]string{
		{"workload.build_ms", "ms"},
		{"workload.gen_ns_per_record", "ns"},
		{"workload.records", "count"},
		{"frontend.track_ns_per_record", "ns"},
		{"frontend.blocks", "count"},
		{"frontend.cond_branches", "count"},
		{"ev8.index_ns_per_branch", "ns"},
		{"ev8.resolve_ns_per_branch", "ns"},
		{"sim.run_ns_per_branch", "ns"},
		{"sim.engine_self_ns_per_branch", "ns"},
		{"sim.allocs_per_branch", "allocs"},
		{"sim.cells", "count"},
		{"sim.cell_branches", "count"},
		{"sim.ns_per_cell_branch", "ns"},
		{"sim.cell_branches_per_record", "ratio"},
		{"sim.parallelism", "ratio"},
	}
	for _, id := range experimentIDs {
		ls = append(ls, [2]string{"experiments." + id + "_s", "s"})
	}
	return append(ls, [][2]string{
		{"cache.hits", "count"},
		{"cache.misses", "count"},
		{"cache.puts", "count"},
		{"cache.read_errors", "count"},
		{"cache.hit_ratio", "ratio"},
		{"cache.get_us", "us"},
		{"cache.put_us", "us"},
		{"serve.accept_ms_p50", "ms"},
		{"serve.first_cell_ms_p50", "ms"},
		{"serve.result_tail_ms_p50", "ms"},
		{"serve.repeat_job_ms_p50", "ms"},
		{"serve.fresh_job_ms_p50", "ms"},
		{"serve.uncacheable_job_ms_p50", "ms"},
		{"serve.job_wall_ms_p50", "ms"},
		{"serve.job_wall_ms_p90", "ms"},
		{"serve.refusals", "count"},
		{"serve.ndjson_bytes_per_job", "bytes"},
		{"serve.repeat_share", "ratio"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

// completeLayers returns the traced run's metrics with every per-layer
// metric present: the ones the workload measured, and 0 for the layers
// it bypasses. A measured name missing from layerUnits, or measured with
// another unit, is a bug.
func completeLayers(measured metrics) metrics {
	units := map[string]string{}
	out := metrics{}
	for _, l := range layerUnits {
		units[l[0]] = l[1]
		out.set(l[0], l[1], 0)
	}
	for n, v := range measured {
		if u, ok := units[n]; !ok || u != v.Unit {
			panic(fmt.Sprintf("perfbench: per-layer metric %s (%s) is not in layerUnits", n, v.Unit))
		}
		out[n] = v
	}
	return out
}

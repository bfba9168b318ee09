package main

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root states the same lists
// for the driver; TestCatalogMatchesBenchmarkJSON keeps the two equal.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

// defaultSeconds is BENCHMARK.json's run_seconds: the run length every
// workload is sized for (see sizing in each workload file).
const defaultSeconds = 20

var workloads = []workloadDef{
	{"advise_tpcch", "schema + workload to a design on TPC-CH: DQN training dominates and the engine does little, so nn/dqn/env changes show here", runAdvise},
	{"sweep_tpcds", "random walk over TPC-DS designs priced by what-if, deploy and a measured batch with bulk loads between: exec/cluster-bound on changing layouts, no NN", runSweep},
	{"serve_mixed", "advisord over loopback HTTP with four tenants on fixed layouts: open-loop batches at 80/s, then a closed loop for capacity, while advising runs live", runServe},
	{"crash_recover", "six-tenant advisord halted and recovered from its state directory under traffic: the durability path, where re-bootstrap dominates and checkpoint I/O is small", runCrash},
}

// Every workload reports every end-to-end metric; what one operation is
// depends on the workload (README.md, "End-to-end metrics"). The bounds
// are the widest the driver allows because the 2-vCPU sizing host drifts
// by 10-15 % over minutes (README.md, "Sizing"): ten runs of one workload
// spread by up to 17 % of their median whatever the run measures.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// A per-layer metric reads 0 on a workload that does not exercise or
// probe its layer; README.md lists which workload measures which.
var perLayer = []metricDef{
	{"nn.forward_b32_us", "us", "lower", 0},
	{"nn.train_batch_b32_us", "us", "lower", 0},
	{"nn.predict_row_us", "us", "lower", 0},

	{"dqn.train_calls", "count", "lower", 0},
	{"dqn.train_busy_s", "s", "lower", 0},
	{"dqn.train_step_us", "us", "lower", 0},
	{"dqn.values_calls", "count", "lower", 0},
	{"dqn.values_busy_s", "s", "lower", 0},

	{"env.cost_cache_hits", "count", "higher", 0},
	{"env.cost_cache_misses", "count", "lower", 0},
	{"env.cost_cache_hit_ratio", "ratio", "higher", 0},
	{"env.step_us", "us", "lower", 0},

	{"partition.apply_us", "us", "lower", 0},
	{"partition.valid_actions_us", "us", "lower", 0},

	{"costmodel.calls", "count", "lower", 0},
	{"costmodel.busy_s", "s", "lower", 0},
	{"costmodel.workload_cost_ms", "ms", "lower", 0},

	{"core.offline_s", "s", "lower", 0},
	{"core.online_s", "s", "lower", 0},
	{"core.offline_self_s", "s", "lower", 0},
	{"core.offline_attributed_ratio", "ratio", "higher", 0},
	{"core.online_nondqn_s", "s", "lower", 0},
	{"core.suggest_ms", "ms", "lower", 0},
	{"core.design_cost_sim_s", "sim_s", "lower", 0},
	{"core.online_queries_executed", "count", "lower", 0},
	{"core.online_cache_hits", "count", "higher", 0},
	{"core.online_repartition_sim_s", "sim_s", "lower", 0},
	{"core.train_updates", "count", "lower", 0},
	{"core.steps_trained", "count", "lower", 0},
	{"core.save_checkpoint_ms", "ms", "lower", 0},
	{"core.load_checkpoint_ms", "ms", "lower", 0},
	{"core.checkpoint_bytes", "bytes", "lower", 0},

	{"exec.whatif_ms", "ms", "lower", 0},
	{"exec.run_batch_ms", "ms", "lower", 0},
	{"exec.query_us", "us", "lower", 0},
	{"exec.queries_executed", "count", "lower", 0},
	{"exec.whatif_mismatches", "count", "lower", 0},
	{"exec.sim_seconds_total", "sim_s", "lower", 0},
	{"exec.bulk_load_ms", "ms", "lower", 0},
	{"exec.new_engine_ms", "ms", "lower", 0},

	{"cluster.deploy_ms", "ms", "lower", 0},
	{"cluster.shard_cache_hits", "count", "higher", 0},
	{"cluster.shard_cache_misses", "count", "lower", 0},
	{"cluster.shard_cache_hit_ratio", "ratio", "higher", 0},
	{"cluster.shard_cache_bytes", "bytes", "lower", 0},
	{"cluster.bytes_moved", "bytes", "lower", 0},

	{"serve.exec_wall_p50_ms", "ms", "lower", 0},
	{"serve.nonexec_p50_ms", "ms", "lower", 0},
	{"serve.batch_p99_ms", "ms", "lower", 0},
	{"serve.saturated_p50_ms", "ms", "lower", 0},
	{"serve.queue_depth_max", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.deadline_misses", "count", "lower", 0},
	{"serve.generator_late_p50_ms", "ms", "lower", 0},
	{"serve.generator_late_max_ms", "ms", "lower", 0},
	{"serve.advise_cycles", "count", "higher", 0},
	{"serve.advise_paused_cycles", "count", "lower", 0},
	{"serve.checkpoints_written", "count", "higher", 0},
	{"serve.create_tenant_ms.micro", "ms", "lower", 0},
	{"serve.create_tenant_ms.ssb", "ms", "lower", 0},
	{"serve.create_tenant_ms.tpcch", "ms", "lower", 0},
	{"serve.create_tenant_ms.tpch", "ms", "lower", 0},
	{"serve.create_fleet_ms", "ms", "lower", 0},
	{"serve.recover_ms", "ms", "lower", 0},
	{"serve.recover_per_tenant_ms", "ms", "lower", 0},
	{"serve.halt_ms", "ms", "lower", 0},

	{"benchmarks.generate_ms", "ms", "lower", 0},

	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.total_alloc_mb", "MB", "lower", 0},
	{"proc.num_gc", "count", "lower", 0},
	{"proc.gc_pause_total_ms", "ms", "lower", 0},
	{"proc.trace_overhead_ratio", "ratio", "lower", 0},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

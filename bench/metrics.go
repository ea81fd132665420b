package main

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// root of the repository lists the same names, units and directions; a
// test fails when the two drift apart.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
	// exact marks a per-layer count that repeats bit for bit between two
	// traced runs with the same seed; -compare requires equality.
	exact bool
}

// endToEnd are the metrics a user of tetrisd sees, measured against the
// real binary with tracing off. Failures are not a metric here: they are
// the run's "failed" count, and any failure fails the run.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "op/s", better: "higher", bound: 0.25},
	{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "lat_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the metrics of single layers, from the traced ladder.
var perLayer = []metricDef{
	{name: "client.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "client.sink_us_per_op", unit: "us", better: "lower"},

	{name: "server.request_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "server.conn_write_us_per_op", unit: "us", better: "lower"},
	{name: "server.conn_writes_per_op", unit: "count", better: "lower"},
	{name: "server.resp_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "server.req_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "server.session_setup_us", unit: "us", better: "lower"},
	{name: "server.admit_wait_us_per_op", unit: "us", better: "lower"},
	{name: "server.exec_busy_share", unit: "ratio", better: "lower"},
	{name: "server.shed_per_op", unit: "count", better: "lower", exact: true},

	{name: "catalog.exec_us", unit: "us", better: "lower"},
	{name: "catalog.self_us", unit: "us", better: "lower"},
	{name: "catalog.prepare_miss_us", unit: "us", better: "lower"},
	{name: "catalog.plan_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "catalog.update_us", unit: "us", better: "lower"},
	{name: "catalog.maintained_refresh_us", unit: "us", better: "lower"},
	{name: "catalog.index_builds_per_op", unit: "count", better: "lower"},
	{name: "catalog.delta_index_builds_per_op", unit: "count", better: "lower", exact: true},
	{name: "catalog.compactions_per_op", unit: "count", better: "lower"},

	{name: "planner.choose_us", unit: "us", better: "lower"},
	{name: "relation.stats_us", unit: "us", better: "lower"},

	{name: "join.parse_us", unit: "us", better: "lower"},
	{name: "join.prepare_plan_us", unit: "us", better: "lower"},
	{name: "join.execute_us", unit: "us", better: "lower"},
	{name: "join.self_us", unit: "us", better: "lower"},
	{name: "join.base_build_us", unit: "us", better: "lower"},
	{name: "join.oracle_us_per_call", unit: "us", better: "lower"},
	{name: "join.oracle_calls_per_op", unit: "count", better: "lower", exact: true},

	{name: "index.build_us", unit: "us", better: "lower"},
	{name: "index.gaps_at_ns", unit: "ns", better: "lower"},
	{name: "index.gaps_per_probe", unit: "count", better: "lower", exact: true},
	{name: "index.derive_us", unit: "us", better: "lower"},

	{name: "core.run_us", unit: "us", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "core.ns_per_resolution", unit: "ns", better: "lower"},
	{name: "core.resolutions_per_op", unit: "count", better: "lower", exact: true},
	{name: "core.outputs_per_op", unit: "count", better: "higher", exact: true},
	{name: "core.boxes_loaded_per_op", unit: "count", better: "lower", exact: true},
	{name: "core.kb_size", unit: "count", better: "lower", exact: true},
	{name: "core.splits_per_op", unit: "count", better: "lower", exact: true},
	{name: "core.cover_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "core.allocs_per_op", unit: "count", better: "lower"},
	{name: "core.alloc_bytes_per_op", unit: "B", better: "lower"},

	{name: "boxtree.insert_subsuming_ns", unit: "ns", better: "lower"},
	{name: "boxtree.superset_hit_ns", unit: "ns", better: "lower"},
	{name: "boxtree.superset_miss_ns", unit: "ns", better: "lower"},
	{name: "boxtree.size", unit: "count", better: "lower", exact: true},
	{name: "boxtree.subsumed_ratio", unit: "ratio", better: "higher", exact: true},

	{name: "dyadic.meet_ns", unit: "ns", better: "lower"},
	{name: "dyadic.contains_ns", unit: "ns", better: "lower"},
	{name: "dyadic.split_ns", unit: "ns", better: "lower"},

	{name: "relation.with_inserted_us", unit: "us", better: "lower"},
	{name: "relation.with_deleted_us", unit: "us", better: "lower"},

	{name: "wal.append_sync_us", unit: "us", better: "lower"},
	{name: "wal.sync_us_per_op", unit: "us", better: "lower"},
	{name: "wal.write_us_per_op", unit: "us", better: "lower"},
	{name: "wal.syncs_per_op", unit: "count", better: "lower"},
	{name: "wal.bytes_per_op", unit: "B", better: "lower"},

	{name: "segment.encode_us", unit: "us", better: "lower"},
	{name: "segment.load_verify_us", unit: "us", better: "lower"},
	{name: "segment.bytes_per_tuple", unit: "B", better: "lower", exact: true},

	{name: "durable.mutation_us", unit: "us", better: "lower"},
	{name: "durable.self_us", unit: "us", better: "lower"},
	{name: "durable.checkpoint_us", unit: "us", better: "lower"},
	{name: "durable.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "durable.checkpoints_per_op", unit: "count", better: "lower"},
	{name: "durable.recover_us", unit: "us", better: "lower"},
	{name: "durable.recover_index_builds", unit: "count", better: "lower"},
	{name: "durable.restart_ms", unit: "ms", better: "lower"},
	{name: "durable.disk_bytes_per_user_byte", unit: "ratio", better: "lower"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// unitsOf maps each metric's name to its unit.
func unitsOf(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

var (
	endToEndUnits = unitsOf(endToEnd)
	layerUnits    = unitsOf(perLayer)
)

//! The names, units and directions of every metric the two drivers print.
//! `BENCHMARK.json` declares the same lists; a test holds the two together.
//!
//! Every time is labelled by its clock: `*_sim_s` and `*.sim_s` are
//! *simulated* seconds (the paper's LogGP cost model), everything else in
//! seconds, milliseconds or microseconds is *host* time.

use crate::script::Class;

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> Def {
    Def { name: name.into(), unit, better }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower"),
        def("body_steps_per_s", "1/s", "higher"),
        def("sim_s", "s", "lower"),
        def("op_p50_ms", "ms", "lower"),
    ]
}

/// The seven rungs of the paper's ladder, in order.
pub const RUNGS: [&str; 7] = [
    "baseline",
    "replicate-scalars",
    "redistribute",
    "cache-local-tree",
    "merged-tree-build",
    "async-aggregation",
    "subspace",
];

/// Request classes with a per-class latency and overhead metric.
pub const SERVE_CLASSES: [Class; 6] =
    [Class::Run48, Class::Run256, Class::Run1024, Class::Open, Class::Step, Class::Snapshot];

/// Simulation phases, by the key `bhsim --json` and the server use.
pub const PHASES: [&str; 6] = ["tree", "cofm", "partition", "redistribute", "force", "advance"];

/// Same-host A-B pairs of solver configurations.
pub const PAIRS: [&str; 4] =
    ["group_vs_perbody", "sorted_vs_insertion", "reuse_vs_rebuild", "shadow_vs_cache"];

/// Layers whose self time per cycle is reported, by span-name prefix.
pub const LAYERS: [&str; 6] = ["scenarios", "engine", "bh", "snapstore", "bhserve", "driver"];

/// The per-layer metrics, reported by every workload's traced run.  A layer
/// a workload never enters reports 0 there.
pub fn per_layer() -> Vec<Def> {
    let mut out = vec![
        // The traced run itself.
        def("trace.cycles", "count", "higher"),
        def("trace.spans", "count", "lower"),
        def("trace.cycle_ms", "ms", "lower"),
        def("trace.overhead_share", "share", "lower"),
        def("trace.dominant_share", "share", "higher"),
    ];
    // Host self time per cycle of each layer the driver calls into.
    out.extend(LAYERS.map(|layer| def(format!("{layer}.self_ms"), "ms", "lower")));
    out.extend(
        ["frame_write", "server_wait", "frame_read", "json_decode"]
            .map(|stage| def(format!("bhserve.{stage}_ms"), "ms", "lower")),
    );
    // Simulated seconds per cycle, by phase and by kind of charge.
    out.extend(PHASES.map(|phase| def(format!("bh.{phase}_sim_s"), "s", "lower")));
    out.extend(
        ["comm", "sync", "compute"].map(|kind| def(format!("pgas.{kind}_sim_s"), "s", "lower")),
    );
    // Counts per cycle, from the same boundaries.
    out.extend(
        ["remote_gets", "remote_puts", "messages", "bytes_in", "lock_acquires"]
            .map(|c| def(format!("pgas.{c}"), "count", "lower")),
    );
    out.extend(
        ["interactions", "macs", "tree_ops", "tree_bytes"]
            .map(|c| def(format!("bh.{c}"), "count", "lower")),
    );
    out.push(def("bh.migration_share", "share", "lower"));
    // Host time per step, from the tracked run's observer stamps.
    out.extend(
        ["step_ms_p50", "step_ms_max", "rebuild_step_ms", "reuse_step_ms"]
            .map(|s| def(format!("bh.{s}"), "ms", "lower")),
    );
    for rung in RUNGS {
        out.push(def(format!("bh.rung.{rung}.wall_ms"), "ms", "lower"));
        out.push(def(format!("bh.rung.{rung}.sim_s"), "s", "lower"));
    }
    for class in SERVE_CLASSES {
        out.push(def(format!("bhserve.{}.p50_ms", class.name()), "ms", "lower"));
        out.push(def(format!("bhserve.{}.overhead_ms", class.name()), "ms", "lower"));
    }
    out.extend([
        def("bhserve.ping_us", "us", "lower"),
        def("bhserve.req_tail_ms", "ms", "lower"),
        def("bhserve.req_per_s", "1/s", "higher"),
        def("bhserve.batched_share", "share", "lower"),
        def("bhserve.shed_share", "share", "lower"),
        def("snapstore.save_ms", "ms", "lower"),
        def("snapstore.load_ms", "ms", "lower"),
        def("snapstore.replay_ms", "ms", "lower"),
        def("snapstore.diff_ms", "ms", "lower"),
        def("snapstore.digest_ms", "ms", "lower"),
        def("snapstore.chunks_new_share", "share", "lower"),
        def("snapstore.bytes_per_ckpt", "count", "lower"),
        def("snapstore.files_per_ckpt", "count", "lower"),
        def("snapstore.fsyncs_per_ckpt", "count", "lower"),
        def("bhsim.startup_ms", "ms", "lower"),
        def("bhsim.peak_rss_mb", "MB", "lower"),
    ]);
    // Probes: fixed-size calls into one layer's public functions, the same
    // on every workload, so a layer's cost can be read apart from any mix.
    out.extend(
        [
            ("pgas.spawn_join_us", "us"),
            ("pgas.barrier_us", "us"),
            ("pgas.allgather_us", "us"),
            ("pgas.remote_read_ns", "ns"),
            ("pgas.lock_ns", "ns"),
            ("nbody.soa_ns_per_interaction", "ns"),
            ("nbody.direct_ms", "ms"),
            ("nbody.morton_ns", "ns"),
            ("octree.build_ms", "ms"),
            ("octree.forces_ms", "ms"),
            ("scenarios.generate_ms.plummer", "ms"),
            ("scenarios.generate_ms.king", "ms"),
            ("scenarios.generate_ms.hernquist", "ms"),
            ("engine.direct_ms", "ms"),
            ("engine.force_err_mean", "share"),
            ("bhmpi.wall_ms", "ms"),
            ("bhmpi.sim_s", "s"),
            ("bhserve.decode_job_us", "us"),
            ("bhserve.snapshot_encode_ms", "ms"),
        ]
        .map(|(name, unit)| def(format!("probe.{name}"), unit, "lower")),
    );
    out.extend(
        ["snapstore.sha256_mb_per_s", "snapstore.hex_mb_per_s", "bhserve.frame_mb_per_s"]
            .map(|name| def(format!("probe.{name}"), "MB/s", "higher")),
    );
    // Ratios first side over second: below 1 the first side wins.
    for pair in PAIRS {
        out.push(def(format!("probe.bh.pair.{pair}.host"), "ratio", "lower"));
        out.push(def(format!("probe.bh.pair.{pair}.sim"), "ratio", "lower"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_well_formed_and_within_the_cap() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!(e2e.len() <= 16 && layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let spec = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<[String; 3]> {
            let metrics = spec.get(key).and_then(Value::as_array).unwrap();
            let text = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            metrics.iter().map(|m| [text(m, "name"), text(m, "unit"), text(m, "better")]).collect()
        };
        let here = |defs: Vec<Def>| -> Vec<[String; 3]> {
            defs.into_iter().map(|d| [d.name, d.unit.to_string(), d.better.to_string()]).collect()
        };
        assert_eq!(declared("end_to_end"), here(end_to_end()));
        assert_eq!(declared("per_layer"), here(per_layer()));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_f64),
            Some(crate::cli::DEFAULT_SECONDS)
        );
    }
}

//! The run-record vocabulary: what `bhsim --json` and `bhload` write.
//!
//! * [`RunSpec`] — the identity of one measured configuration (scenario ×
//!   backend × opt level × walk × build × service × machine shape × size),
//!   with a stable [`RunSpec::key`] used to label rows.
//! * [`Sample`] — one run's measurements: host wall time plus the
//!   emulator's outputs (simulated per-phase seconds, traffic counters).
//!   `bhsim --json` prints one per backend.
//! * [`RunRecord`] — medians/percentiles over the samples of one spec.
//! * [`Record`] — the `bhbench/v1` document ([`SCHEMA`]) `bhload` writes:
//!   one [`RunRecord`] per cell of its serving mix.
//!
//! Nothing in the workspace reads a record back: performance is judged by
//! `benchmark/` (bhmark + bhtrace) on same-host parent/change pairs, never
//! by comparing against numbers recorded on another host or in another run.

use crate::compare::BackendRun;
use crate::config::SimConfig;
use crate::report::{Phase, PhaseTimes};
use pgas::RankStats;
use serde::{Deserialize, Serialize};

/// Schema identifier written into (and required of) every record.
pub const SCHEMA: &str = "bhbench/v1";

/// [`RunSpec::service`] value for standalone simulation runs (`bhsim`).
pub const SERVICE_SIM: &str = "sim";
/// [`RunSpec::service`] value for rows measured through the `bhserve`
/// daemon by the `bhload` stress driver (request latency percentiles and
/// throughput are meaningful only for these rows).
pub const SERVICE_BHSERVE: &str = "bhserve";
/// [`RunSpec::service`] value for rows measured by `bhload --chaos` — the
/// serving mix driven while faults are injected (daemon kills, client
/// aborts, frame faults).  The same job measured under injected failures is
/// a different measurement protocol, so it gets its own service value.
pub const SERVICE_CHAOS: &str = "chaos";

/// [`RunSpec::warm`] value for runs integrated from `t = 0` — every run the
/// workspace measures today.
pub const WARM_COLD: &str = "cold";

/// The identity of one measured configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Workload family (scenario registry key).
    pub scenario: String,
    /// Solver (backend registry key).
    pub backend: String,
    /// UPC optimization level name (meaningful for the `upc` backend; the
    /// other backends record the level they were configured with).
    pub opt: String,
    /// Tree-lifecycle policy label, parameters included
    /// ([`crate::TreePolicy::spec_label`], e.g. `reuse[e8,d0.25]`).  The
    /// cadence/drift parameters change the measurement protocol, so they
    /// are part of the identity.
    pub policy: String,
    /// Force-walk mode name ([`crate::WalkMode::name`]): a group-walk row
    /// and a per-body row of the same point are different protocols.
    pub walk: String,
    /// Tree-construction algorithm name ([`crate::TreeBuild::name`]): the
    /// sorted build and global insertion are different protocols for the
    /// tree phase.
    pub build: String,
    /// Measurement pathway: [`SERVICE_SIM`] for standalone runs,
    /// [`SERVICE_BHSERVE`] / [`SERVICE_CHAOS`] for rows driven through the
    /// serving daemon by `bhload` — the same job measured through the
    /// service carries framing, dispatch and queueing that a standalone run
    /// does not.
    pub service: String,
    /// Warm-start pathway; always [`WARM_COLD`].
    pub warm: String,
    /// Number of bodies.
    pub nbodies: usize,
    /// Emulated nodes.
    pub nodes: usize,
    /// Emulated UPC threads per node.
    pub threads_per_node: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Total time steps.
    pub steps: usize,
    /// Trailing measured steps.
    pub measured_steps: usize,
}

impl RunSpec {
    /// Builds the spec for running `scenario` through `backend` under `cfg`.
    pub fn new(scenario: &str, backend: &str, cfg: &SimConfig) -> RunSpec {
        RunSpec {
            scenario: scenario.to_string(),
            backend: backend.to_string(),
            opt: cfg.opt.name().to_string(),
            policy: cfg.tree_policy.spec_label(),
            walk: cfg.walk.name().to_string(),
            build: cfg.build.name().to_string(),
            service: SERVICE_SIM.to_string(),
            warm: WARM_COLD.to_string(),
            nbodies: cfg.nbodies,
            nodes: cfg.machine.nodes,
            threads_per_node: cfg.machine.threads_per_node,
            seed: cfg.seed,
            steps: cfg.steps,
            measured_steps: cfg.measured_steps,
        }
    }

    /// Stable one-line identity, used to label a row in reports and errors.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/{}/{}/n{}/m{}x{}",
            self.scenario,
            self.backend,
            self.opt,
            self.policy,
            self.walk,
            self.build,
            self.service,
            self.warm,
            self.nbodies,
            self.nodes,
            self.threads_per_node
        )
    }
}

/// One run's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct Sample {
    /// Real (host) wall time of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Client-observed request latency, milliseconds — the time from
    /// sending the job request to receiving its response, including
    /// framing, dispatch and server-side queueing.  Only meaningful for
    /// serving rows ([`SERVICE_BHSERVE`]); standalone runs record `0.0`
    /// ("not a service measurement").
    pub latency_ms: f64,
    /// Simulated per-phase seconds (max over ranks, measured window).
    pub phases: PhaseTimes,
    /// Simulated makespan of the measured window.
    pub total_sim: f64,
    /// Body migration per measured step.
    pub migration_fraction: f64,
    /// Peak node-arena bytes across ranks and steps (deterministic; `0`
    /// when the backend has no node arena).
    pub tree_bytes: u64,
    /// Milliseconds this request spent in recovery — reconnects, backoff
    /// and retries — before it finally succeeded.  `0.0` for requests that
    /// succeeded on the first attempt and for fault-free rows.
    pub recovery_ms: f64,
    /// `1.0` when the request's first attempt failed (it was recovered by a
    /// retry), `0.0` otherwise — aggregates to the cell's error rate.
    pub error_rate: f64,
    /// Communication counters summed over ranks, whole run.
    pub stats: RankStats,
}

impl Sample {
    /// Extracts the sample of one completed [`BackendRun`].
    pub fn from_run(run: &BackendRun) -> Sample {
        Sample {
            wall_ms: run.wall_ms,
            latency_ms: 0.0,
            phases: run.result.phases,
            total_sim: run.result.total,
            migration_fraction: run.result.migration_fraction,
            tree_bytes: run.result.tree_bytes,
            recovery_ms: 0.0,
            error_rate: 0.0,
            stats: run.result.total_stats(),
        }
    }
}

/// Median (p50), 90th and 99th percentile of a set of samples
/// (nearest-rank).  The p99 exists for the serving path, where tail latency
/// over thousands of requests is the headline number.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stat {
    /// Median (nearest-rank) over the samples — the p50.
    pub median: f64,
    /// 90th percentile (nearest-rank) over the samples.
    pub p90: f64,
    /// 99th percentile (nearest-rank) over the samples.
    pub p99: f64,
}

impl Stat {
    /// Computes the statistic of a non-empty set of values.
    pub fn of(values: &[f64]) -> Stat {
        assert!(!values.is_empty(), "Stat::of needs at least one value");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        Stat {
            median: nearest_rank(&sorted, 0.50),
            p90: nearest_rank(&sorted, 0.90),
            p99: nearest_rank(&sorted, 0.99),
        }
    }

    /// The all-zero statistic ("not recorded"), used for fields that only
    /// some measurement pathways populate (request latency on standalone
    /// runs).
    pub fn zero() -> Stat {
        Stat { median: 0.0, p90: 0.0, p99: 0.0 }
    }
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median_u64(values: impl Iterator<Item = u64>) -> u64 {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

/// Aggregated samples of one spec.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// The measured configuration.
    pub spec: RunSpec,
    /// Number of samples aggregated.
    pub reps: usize,
    /// Wall time of the whole run (host-dependent).
    pub wall_ms: Stat,
    /// Client-observed request latency over the samples (p50/p90/p99,
    /// milliseconds).  Populated for serving rows; all-zero for standalone
    /// runs.  Host-dependent like `wall_ms`.
    pub latency_ms: Stat,
    /// Completed requests per second over the measurement window.  `0.0`
    /// for standalone runs; host-dependent.
    pub throughput_rps: f64,
    /// Per-phase simulated medians over the samples.
    pub phases_median: PhaseTimes,
    /// Per-phase simulated p90s over the samples.
    pub phases_p90: PhaseTimes,
    /// Median simulated makespan.
    pub total_sim_median: f64,
    /// Median interaction count (deterministic up to tree-build races).
    pub interactions: u64,
    /// Median multipole-acceptance test count (the traversal-volume counter
    /// the group walk amortizes).
    pub macs: u64,
    /// Median elementary tree-operation count.
    pub tree_ops: u64,
    /// Median peak node-arena bytes (the compact-layout memory metric).
    pub tree_bytes: u64,
    /// Median fine-grained remote gets.
    pub remote_gets: u64,
    /// Median fine-grained remote puts.
    pub remote_puts: u64,
    /// Median bulk message count.
    pub messages: u64,
    /// Median bytes received.
    pub bytes_in: u64,
    /// Median bytes sent.
    pub bytes_out: u64,
    /// Median global lock acquisitions.
    pub lock_acquires: u64,
    /// Worst-case recovery time over the samples, milliseconds — the
    /// longest any request spent reconnecting/retrying before it succeeded.
    /// `0.0` for fault-free rows.  Host-dependent.
    pub recovery_ms: f64,
    /// Fraction of requests whose first attempt failed and were recovered
    /// by a retry, in `[0, 1]`.  `0.0` for fault-free rows.
    pub error_rate: f64,
}

impl RunRecord {
    /// Aggregates the samples of one spec.
    pub fn from_samples(spec: RunSpec, samples: &[Sample]) -> RunRecord {
        assert!(!samples.is_empty(), "a run record needs at least one sample");
        let walls: Vec<f64> = samples.iter().map(|s| s.wall_ms).collect();
        let mut phases_median = PhaseTimes::default();
        let mut phases_p90 = PhaseTimes::default();
        for phase in Phase::ALL {
            let per: Vec<f64> = samples.iter().map(|s| s.phases.get(phase)).collect();
            let stat = Stat::of(&per);
            phases_median.set(phase, stat.median);
            phases_p90.set(phase, stat.p90);
        }
        let totals: Vec<f64> = samples.iter().map(|s| s.total_sim).collect();
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        RunRecord {
            spec,
            reps: samples.len(),
            wall_ms: Stat::of(&walls),
            latency_ms: if latencies.iter().any(|&l| l > 0.0) {
                Stat::of(&latencies)
            } else {
                Stat::zero()
            },
            throughput_rps: 0.0,
            phases_median,
            phases_p90,
            total_sim_median: Stat::of(&totals).median,
            interactions: median_u64(samples.iter().map(|s| s.stats.interactions)),
            macs: median_u64(samples.iter().map(|s| s.stats.macs)),
            tree_ops: median_u64(samples.iter().map(|s| s.stats.tree_ops)),
            tree_bytes: median_u64(samples.iter().map(|s| s.tree_bytes)),
            remote_gets: median_u64(samples.iter().map(|s| s.stats.remote_gets)),
            remote_puts: median_u64(samples.iter().map(|s| s.stats.remote_puts)),
            messages: median_u64(samples.iter().map(|s| s.stats.messages)),
            bytes_in: median_u64(samples.iter().map(|s| s.stats.bytes_in)),
            bytes_out: median_u64(samples.iter().map(|s| s.stats.bytes_out)),
            lock_acquires: median_u64(samples.iter().map(|s| s.stats.lock_acquires)),
            recovery_ms: samples.iter().map(|s| s.recovery_ms).fold(0.0, f64::max),
            error_rate: samples.iter().map(|s| s.error_rate).sum::<f64>() / samples.len() as f64,
        }
    }
}

/// The schema-versioned document `bhload --out` / `--json` writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Commit the record was produced from (`unknown` outside a checkout).
    pub commit: String,
    /// `true` when only the quick mix was run.
    pub quick: bool,
    /// Aggregated rows, one per measured spec.
    pub runs: Vec<RunRecord>,
}

impl Record {
    /// An empty record for the given provenance.
    pub fn new(commit: String, quick: bool) -> Record {
        Record { schema: SCHEMA.to_string(), commit, quick, runs: Vec::new() }
    }

    /// Checks the structural invariants every well-formed record satisfies.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("schema mismatch: {:?} (expected {SCHEMA:?})", self.schema));
        }
        if self.runs.is_empty() {
            return Err("record contains no runs".to_string());
        }
        for run in &self.runs {
            let key = run.spec.key();
            if run.reps == 0 {
                return Err(format!("{key}: zero repetitions"));
            }
            let wall = &run.wall_ms;
            if wall.median < 0.0 || wall.p90 < wall.median || wall.p99 < wall.p90 {
                return Err(format!("{key}: ill-formed wall_ms stat"));
            }
            let lat = &run.latency_ms;
            if lat.median < 0.0 || lat.p90 < lat.median || lat.p99 < lat.p90 {
                return Err(format!("{key}: ill-formed latency_ms stat"));
            }
            if !run.throughput_rps.is_finite() || run.throughput_rps < 0.0 {
                return Err(format!("{key}: ill-formed throughput_rps"));
            }
            for phase in Phase::ALL {
                let (m, p) = (run.phases_median.get(phase), run.phases_p90.get(phase));
                if m < 0.0 || p < m {
                    return Err(format!("{key}: ill-formed {} stat", phase.label()));
                }
            }
            if run.total_sim_median <= 0.0 {
                return Err(format!("{key}: non-positive simulated makespan"));
            }
            if run.interactions == 0 {
                return Err(format!("{key}: zero interactions"));
            }
            if !run.recovery_ms.is_finite() || run.recovery_ms < 0.0 {
                return Err(format!("{key}: ill-formed recovery_ms"));
            }
            if !run.error_rate.is_finite() || !(0.0..=1.0).contains(&run.error_rate) {
                return Err(format!("{key}: error_rate must lie in [0, 1]"));
            }
        }
        Ok(())
    }

    /// Renders the record as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize bench record")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use pgas::Machine;

    fn sample(wall: f64, force: f64, interactions: u64) -> Sample {
        Sample {
            wall_ms: wall,
            latency_ms: 0.0,
            phases: PhaseTimes { force, tree: 0.5, ..Default::default() },
            total_sim: force + 0.5,
            migration_fraction: 0.01,
            tree_bytes: 0,
            recovery_ms: 0.0,
            error_rate: 0.0,
            stats: RankStats { interactions, remote_gets: 1000, ..Default::default() },
        }
    }

    fn spec() -> RunSpec {
        let cfg = SimConfig::new(256, Machine::process_per_node(2), OptLevel::Subspace);
        RunSpec::new("plummer", "upc", &cfg)
    }

    fn record_with(force: f64, interactions: u64) -> Record {
        let samples = [
            sample(10.0, force, interactions),
            sample(12.0, force, interactions),
            sample(11.0, force, interactions),
        ];
        let mut record = Record::new("test".to_string(), false);
        record.runs.push(RunRecord::from_samples(spec(), &samples));
        record
    }

    #[test]
    fn stat_uses_nearest_rank() {
        let s = Stat::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p90, 5.0);
        assert_eq!(s.p99, 5.0);
        let one = Stat::of(&[7.0]);
        assert_eq!(one.median, 7.0);
        assert_eq!(one.p90, 7.0);
        assert_eq!(one.p99, 7.0);
        // With enough samples the tail percentiles separate: over 1..=1000
        // the nearest-rank p99 lands on 990, the p90 on 900.
        let many: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = Stat::of(&many);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.p99, 990.0);
    }

    #[test]
    fn spec_key_is_stable_and_discriminating() {
        let a = spec();
        assert_eq!(a.key(), "plummer/upc/subspace/rebuild/per-body/insertion/sim/cold/n256/m2x1");
        let mut b = a.clone();
        b.nbodies = 512;
        assert_ne!(a.key(), b.key());
        let mut c = a.clone();
        c.policy = "reuse".to_string();
        assert_ne!(a.key(), c.key(), "the tree policy is part of the identity");
        let mut d = a.clone();
        d.walk = "group".to_string();
        assert_ne!(a.key(), d.key(), "the walk mode is part of the identity");
        let mut e = a.clone();
        e.service = SERVICE_BHSERVE.to_string();
        assert_ne!(a.key(), e.key(), "the service pathway is part of the identity");
        let mut f = a.clone();
        f.build = "sorted".to_string();
        assert_ne!(a.key(), f.key(), "the build algorithm is part of the identity");
    }

    #[test]
    fn a_well_formed_record_validates_and_serializes() {
        let record = record_with(2.0, 50_000);
        record.validate().expect("well-formed record");
        let json = serde_json::from_str(&record.to_json()).expect("to_json emits valid JSON");
        assert_eq!(json.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        let runs = json.get("runs").and_then(|v| v.as_array()).expect("runs array");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("interactions").and_then(|v| v.as_u64()), Some(50_000));
        assert_eq!(runs[0].get("reps").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn ill_formed_records_are_rejected() {
        let mut wrong_schema = record_with(2.0, 10_000);
        wrong_schema.schema = "nope".to_string();
        assert!(wrong_schema.validate().unwrap_err().contains("schema mismatch"));
        let empty = Record::new("x".to_string(), false);
        assert!(empty.validate().unwrap_err().contains("no runs"));
        let mut no_reps = record_with(2.0, 10_000);
        no_reps.runs[0].reps = 0;
        assert!(no_reps.validate().unwrap_err().contains("zero repetitions"));
        let mut bad_rate = record_with(2.0, 10_000);
        bad_rate.runs[0].error_rate = 1.5;
        assert!(bad_rate.validate().unwrap_err().contains("error_rate"));
    }
}

//! The shared head-to-head comparison driver.
//!
//! The paper's §9 leaves "directly compare the performance of this code to
//! the performance of a similar code expressed in MPI" as future work; this
//! module is that experiment's single implementation.  The `bhsim`
//! `--compare` mode and the `mpi_vs_upc` example both call [`run_backends`]
//! and render with [`comparison_table`], so the driver logic exists in
//! exactly one place.

use crate::backend::BackendRegistry;
use crate::config::SimConfig;
use crate::report::{Phase, SimResult};
use nbody::Body;
use pgas::RankStats;

/// One backend's completed run within a comparison.
#[derive(Debug)]
pub struct BackendRun {
    /// The backend's registry name.
    pub name: String,
    /// Its full result.
    pub result: SimResult,
    /// Real (host) wall time of the run, milliseconds.  The simulated times
    /// in [`BackendRun::result`] are the paper's numbers; this is what the
    /// run actually cost the host, reported as `wall_ms` in the
    /// `engine::bench::Sample` row.
    pub wall_ms: f64,
}

/// Runs the same configuration and initial bodies through each named backend
/// in order.
///
/// Every backend receives its own copy of `bodies`, so all competitors start
/// from bit-identical initial conditions.  Fails up front — before any
/// simulation runs — if a name is unknown or a backend rejects the
/// configuration.
pub fn run_backends(
    registry: &BackendRegistry,
    names: &[String],
    cfg: &SimConfig,
    bodies: &[Body],
) -> Result<Vec<BackendRun>, String> {
    if names.is_empty() {
        return Err("no backends requested".to_string());
    }
    let mut backends = Vec::with_capacity(names.len());
    for name in names {
        let backend = registry.lookup(name)?;
        backend.supports(cfg).map_err(|e| format!("backend {name} cannot run this config: {e}"))?;
        backends.push(backend);
    }
    Ok(backends
        .into_iter()
        .zip(names)
        .map(|(backend, name)| {
            let start = std::time::Instant::now();
            let result = backend.run(cfg, bodies.to_vec());
            BackendRun { name: name.clone(), result, wall_ms: start.elapsed().as_secs_f64() * 1e3 }
        })
        .collect())
}

/// Renders completed runs as one aligned side-by-side table: a column per
/// backend, the paper's per-phase rows on top, communication-traffic
/// counters below.
pub fn comparison_table(runs: &[BackendRun]) -> String {
    const COL: usize = 13;
    let mut out = String::new();
    let mut header = format!("  {:<16}", "phase");
    for run in runs {
        header.push_str(&format!(" {:>COL$}", run.name));
    }
    out.push_str(&header);
    out.push('\n');
    for phase in Phase::ALL {
        out.push_str(&format!("  {:<16}", phase.label()));
        for run in runs {
            out.push_str(&format!(" {:>COL$.6}", run.result.phases.get(phase)));
        }
        out.push('\n');
    }
    out.push_str(&format!("  {:<16}", "TOTAL"));
    for run in runs {
        out.push_str(&format!(" {:>COL$.6}", run.result.total));
    }
    out.push('\n');

    type TrafficRow = fn(&RankStats) -> u64;
    let traffic: [(&str, TrafficRow); 6] = [
        ("remote ops", |s| s.remote_ops()),
        ("bulk messages", |s| s.messages),
        ("bytes out", |s| s.bytes_out),
        ("lock acquires", |s| s.lock_acquires),
        ("interactions", |s| s.interactions),
        ("tree operations", |s| s.tree_ops),
    ];
    let stats: Vec<RankStats> = runs.iter().map(|run| run.result.total_stats()).collect();
    for (label, get) in &traffic {
        out.push_str(&format!("  {label:<16}"));
        for s in &stats {
            out.push_str(&format!(" {:>COL$}", get(s)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use crate::direct::DirectBackend;
    use nbody::plummer::{generate, PlummerConfig};

    fn registry() -> BackendRegistry {
        let mut r = BackendRegistry::new();
        r.register(Box::new(DirectBackend));
        r
    }

    #[test]
    fn unknown_backend_fails_before_running_anything() {
        let cfg = SimConfig::test(32, 1, OptLevel::Baseline);
        let bodies = generate(&PlummerConfig::new(32, 1));
        let err = run_backends(&registry(), &["nope".to_string()], &cfg, &bodies).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(err.contains("direct"), "error must list the registered names: {err}");
        // A near-miss gets the shared did-you-mean treatment.
        let err = run_backends(&registry(), &["driect".to_string()], &cfg, &bodies).unwrap_err();
        assert!(err.contains("did you mean \"direct\"?"), "{err}");
        assert!(run_backends(&registry(), &[], &cfg, &bodies).is_err());
    }

    #[test]
    fn table_has_a_column_per_backend_and_all_phase_rows() {
        let cfg = SimConfig::test(48, 2, OptLevel::Baseline);
        let bodies = generate(&PlummerConfig::new(48, 1));
        let names = vec!["direct".to_string()];
        let runs = run_backends(&registry(), &names, &cfg, &bodies).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].result.bodies.len(), 48);
        let table = comparison_table(&runs);
        assert!(table.contains("direct"));
        for phase in Phase::ALL {
            assert!(table.contains(phase.label()), "missing row {}", phase.label());
        }
        assert!(table.contains("TOTAL"));
        assert!(table.contains("interactions"));
    }
}

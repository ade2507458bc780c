//! The paper's evaluation as one table: each experiment is a row naming the
//! points (backend + configuration) it runs at a [`Scale`] and how it renders
//! their results.  [`plan`] collects and checks the points of any set of
//! experiments, [`Runs::add`] runs each distinct point once, and every
//! experiment renders from the shared [`Runs`].

use crate::scale::Scale;
use crate::table::{PhaseTable, Series};
use bh::{OptLevel, OptLevel::*, SimConfig, SimResult, TreeBuild};
use engine::Backend;
use nbody::plummer::{generate, PlummerConfig};
use pgas::Machine;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One run an experiment reads: a backend and the configuration it runs
/// over the paper's Plummer sphere.
#[derive(Clone)]
pub struct Point {
    /// The solver.
    pub backend: &'static dyn Backend,
    /// What it runs.
    pub cfg: SimConfig,
    /// The thread count the experiment labels and sizes this run by.
    pub threads: usize,
}

impl Point {
    /// Equal keys are equal runs.
    fn key(&self) -> String {
        format!("{} {:?}", self.backend.name(), self.cfg)
    }
}

/// The upc run of `bodies` bodies on `threads` UPC threads, `per_node` of
/// them to a node, at the scale's steps and seed.
fn upc(
    opt: OptLevel,
    bodies: usize,
    threads: usize,
    per_node: usize,
    pthreads: bool,
    scale: &Scale,
) -> Point {
    let per_node = per_node.min(threads).max(1);
    let machine = Machine::power5(threads.div_ceil(per_node), per_node, pthreads);
    let mut cfg = SimConfig::new(bodies, machine, opt);
    (cfg.steps, cfg.measured_steps, cfg.seed) = (scale.steps, scale.measured_steps, scale.seed);
    Point { backend: &bh::UpcBackend, cfg, threads }
}

/// A strong-scaling point: the scale's bodies on `threads` nodes of one
/// process (or, with `pthreads`, one pthread) each.
pub fn strong(opt: OptLevel, threads: usize, pthreads: bool, scale: &Scale) -> Point {
    upc(opt, scale.bodies, threads, 1, pthreads, scale)
}

/// A weak-scaling point: the scale's bodies per thread on `threads`
/// threads, `per_node` to a node.
fn weak(opt: OptLevel, threads: usize, per_node: usize, pthreads: bool, scale: &Scale) -> Point {
    upc(opt, scale.weak_bodies_per_thread * threads, threads, per_node, pthreads, scale)
}

/// A point of Figs. 7, 10 and 11: the paper's pthreads nodes of
/// `threads_per_node` threads each.
pub fn weak_series(opt: OptLevel, vector_reduction: bool, threads: usize, scale: &Scale) -> Point {
    let mut point = weak(opt, threads, scale.threads_per_node, true, scale);
    point.cfg.vector_reduction = vector_reduction;
    point
}

/// §4.1's point: 16 UPC threads on one node, as pthreads or as processes.
pub fn intranode(pthreads: bool, scale: &Scale) -> Point {
    upc(Baseline, scale.bodies.min(32_768), 16, 16, pthreads, scale)
}

/// §5.2's point: cached cells on 8 ranks, at least 4 steps.
pub fn migration(scale: &Scale) -> Point {
    let mut point = strong(CacheLocalTree, 8, false, scale);
    point.cfg.steps = scale.steps.max(4);
    point.cfg.measured_steps = scale.measured_steps.min(point.cfg.steps - 1).max(1);
    point
}

/// §5.5's sensitivity point: `async-aggregation` on the lock-free sorted
/// build, with n1 = n2 = n3 = `degree`.
pub fn aggregation_degree(ranks: usize, degree: usize, scale: &Scale) -> Point {
    let mut point = strong(AsyncAggregation, ranks, false, scale);
    point.cfg.build = TreeBuild::Sorted;
    (point.cfg.n1, point.cfg.n2, point.cfg.n3) = (degree, degree, degree);
    point
}

/// The results of a set of points, each run once.
#[derive(Default)]
pub struct Runs(HashMap<String, SimResult>);

impl Runs {
    /// The result of `point`, if it was run.
    pub fn get(&self, point: &Point) -> Option<&SimResult> {
        self.0.get(&point.key())
    }

    /// Runs every point of `points` not run yet, keeping each result without
    /// its final bodies (the strong points of `--paper-scale` would not fit
    /// with them).  With `of`, the size of the [`plan`], each run prints a
    /// progress line `[i/of]`.
    pub fn add(&mut self, points: &[Point], of: Option<usize>) {
        for point in points {
            let (key, cfg) = (point.key(), &point.cfg);
            if self.0.contains_key(&key) {
                continue;
            }
            if let Some(of) = of {
                let (backend, opt, n) = (point.backend.name(), cfg.opt.name(), cfg.nbodies);
                let (i, ranks) = (self.0.len() + 1, cfg.ranks());
                eprintln!("  [{i}/{of}] {backend} {opt}, {ranks} threads, {n} bodies ...");
            }
            let mut result =
                point.backend.run(cfg, generate(&PlummerConfig::new(cfg.nbodies, cfg.seed)));
            result.bodies = Vec::new();
            self.0.insert(key, result);
        }
    }
}

/// The distinct points of `experiments` at `scale`, in the order they are
/// first listed.  Every point is checked by its backend's
/// [`Backend::supports`] before anything runs, and so is the thread count
/// its row is labelled by: a weak count that does not fill whole nodes
/// would run more ranks than the row says.  The first refusal names its
/// experiment.
pub fn plan(experiments: &[&Experiment], scale: &Scale) -> Result<Vec<Point>, String> {
    let mut seen = HashSet::new();
    let mut points = Vec::new();
    for exp in experiments {
        for point in exp.points(scale) {
            let refuse = |e: &dyn std::fmt::Display| format!("{}: {e}", exp.name);
            point.backend.supports(&point.cfg).map_err(|e| refuse(&e))?;
            let (threads, ranks) = (point.threads, point.cfg.ranks());
            if ranks != threads {
                let per_node = point.cfg.machine.threads_per_node;
                let nodes = format!("whole nodes of {per_node} (the run would have {ranks})");
                return Err(refuse(&format!("{threads} threads do not fill {nodes}")));
            }
            if seen.insert(point.key()) {
                points.push(point);
            }
        }
    }
    Ok(points)
}

/// One table or figure of the paper's evaluation.
pub struct Experiment {
    /// Command-line name.
    pub name: &'static str,
    /// Caption; a rendering may add the scale's sizes to it.
    pub title: &'static str,
    plan: Plan,
}

/// What an experiment runs and how it renders.
enum Plan {
    /// A phase table: one rung (with pthreads?) over the strong-scaling
    /// thread counts.
    Strong(OptLevel, bool),
    /// A phase series: one rung (with vector reduction?) over the
    /// weak-scaling thread counts ([`weak_series`]).
    Weak(OptLevel, bool),
    /// Any other shape: its points, and its rendering from the caption, the
    /// scale and the results of those points in their order.
    Custom(fn(&Scale) -> Vec<Point>, fn(&str, &Scale, &[&SimResult]) -> ExperimentOutput),
}

use Plan::{Custom, Strong, Weak};

/// Every experiment, in report order.
#[rustfmt::skip]
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table2", title: "Table 2: baseline UPC Barnes-Hut (strong scaling)",
        plan: Strong(Baseline, false) },
    Experiment { name: "table3", title: "Table 3: + replicated shared scalars (§5.1)",
        plan: Strong(ReplicateScalars, false) },
    Experiment { name: "table4", title: "Table 4: + body redistribution (§5.2)",
        plan: Strong(Redistribute, false) },
    Experiment { name: "table5", title: "Table 5: + cached remote cells (§5.3)",
        plan: Strong(CacheLocalTree, false) },
    Experiment { name: "table6", title: "Table 6: + merged-local-tree build (§5.4)",
        plan: Strong(MergedTreeBuild, false) },
    Experiment { name: "table7", title: "Table 7: + non-blocking aggregation (§5.5)",
        plan: Strong(AsyncAggregation, false) },
    Experiment { name: "fig5",
        title: "Figure 5: speed-up of cumulative optimizations (relative to the same code on 1 thread)",
        plan: Custom(ladder_points, fig5) },
    Experiment { name: "fig6", title: "Figure 6: time per phase", plan: Custom(ladder_points, fig6) },
    Experiment { name: "fig7",
        title: "Figure 7: weak scaling before the §6 tree-building change (merged trees + aggregation)",
        plan: Weak(AsyncAggregation, true) },
    Experiment { name: "fig8", title: "Figure 8: per-rank tree-building time split",
        plan: Custom(|s| vec![fig8_point(s)], fig8) },
    Experiment { name: "fig10", title: "Figure 10: weak scaling, subspace build WITHOUT vector reduction",
        plan: Weak(Subspace, false) },
    Experiment { name: "fig11", title: "Figure 11: weak scaling, subspace build WITH vector reduction",
        plan: Weak(Subspace, true) },
    Experiment { name: "fig12", title: "Figure 12: weak scaling", plan: Custom(fig12_points, fig12) },
    Experiment { name: "fig13", title: "Figure 13: strong-scaling speed-up",
        plan: Custom(fig13_points, fig13) },
    Experiment { name: "table8", title: "Table 8: final code, strong scaling, 1 process/node",
        plan: Strong(Subspace, false) },
    Experiment { name: "table9",
        title: "Table 9: final code, strong scaling, 1 thread/node (pthreads runtime)",
        plan: Strong(Subspace, true) },
    Experiment { name: "intranode", title: "§4.1 single-node experiment",
        plan: Custom(|s| vec![intranode(true, s), intranode(false, s)], intranode_text) },
    Experiment { name: "migration", title: "§5.2 body-migration statistic",
        plan: Custom(|s| vec![migration(s)], migration_text) },
    Experiment { name: "vlist_sources",
        title: "§5.5 aggregated-gather source statistic (fully optimized code)",
        plan: Custom(|s| VLIST_THREADS.map(|t| strong(Subspace, t, false, s)).into(), vlist_text) },
    Experiment { name: "aggregation_degree",
        title: "§5.5 aggregation degree: async-aggregation on the sorted build",
        plan: Custom(degree_points, degree_text) },
    Experiment { name: "mpi_compare", title: "Extension (§9): optimized UPC vs MPI-style comparator",
        plan: Custom(mpi_points, mpi_compare) },
    Experiment { name: "swcache", title: "Extension (§8): transparent scalar caching vs manual replication",
        plan: Custom(swcache_points, swcache) },
    Experiment { name: "cache_variants",
        title: "Extension (§5.3.2): separate local tree vs shadow-pointer merged tree",
        plan: Custom(cache_variant_points, cache_variants) },
];

impl Experiment {
    /// The experiment called `name`.
    pub fn named(name: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == name)
    }

    /// The points this experiment reads at `scale`.
    pub fn points(&self, scale: &Scale) -> Vec<Point> {
        match self.plan {
            Strong(opt, pthreads) => {
                scale.strong_threads.iter().map(|&t| strong(opt, t, pthreads, scale)).collect()
            }
            Weak(opt, vector) => {
                scale.weak_threads.iter().map(|&t| weak_series(opt, vector, t, scale)).collect()
            }
            Custom(points, _) => points(scale),
        }
    }

    /// The table or figure, from runs that hold every point of
    /// [`Experiment::points`].
    pub fn render(&self, scale: &Scale, runs: &Runs) -> ExperimentOutput {
        let points = self.points(scale);
        let results: Vec<&SimResult> = points
            .iter()
            .map(|p| runs.get(p).expect("every point of an experiment has run"))
            .collect();
        match self.plan {
            Strong(..) => {
                let mut table = PhaseTable::new(self.title);
                for (&threads, r) in scale.strong_threads.iter().zip(results) {
                    table.push(threads, r.phases);
                }
                ExperimentOutput::Table(table)
            }
            Weak(..) => {
                let mut series = Series::new(self.title, &phase_headers("threads"));
                for (&threads, r) in scale.weak_threads.iter().zip(results) {
                    series.push(phase_row(threads, r));
                }
                ExperimentOutput::Series(series)
            }
            Custom(_, render) => render(self.title, scale, &results),
        }
    }
}

/// The headers of a per-phase series whose first column is `x`.
fn phase_headers(x: &str) -> [&str; 8] {
    [x, "tree", "cofm", "partition", "redistribute", "force", "advance", "total"]
}

/// `x`, then every phase of `result` and its total.
fn phase_row(x: usize, result: &SimResult) -> Vec<f64> {
    let p = &result.phases;
    vec![x as f64, p.tree, p.cofm, p.partition, p.redistribute, p.force, p.advance, result.total]
}

/// The result of one experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ExperimentOutput {
    /// A phase-breakdown table (Tables 2–9).
    Table(PhaseTable),
    /// A named data series (the figures).
    Series(Series),
    /// Free-form text (the prose statistics).
    Text(String),
    /// Several outputs (e.g. a figure with one series per configuration).
    Multi(Vec<ExperimentOutput>),
}

impl ExperimentOutput {
    /// Renders the output as text.
    pub fn render(&self) -> String {
        match self {
            ExperimentOutput::Table(t) => t.render(),
            ExperimentOutput::Series(s) => s.render(),
            ExperimentOutput::Text(t) => t.clone(),
            ExperimentOutput::Multi(parts) => {
                parts.iter().map(|p| p.render()).collect::<Vec<_>>().join("\n")
            }
        }
    }
}

/// The whole cumulative ladder, rung by rung, over the strong-scaling
/// thread counts.
fn ladder_points(scale: &Scale) -> Vec<Point> {
    let threads = &scale.strong_threads;
    OptLevel::ALL
        .iter()
        .flat_map(|&opt| threads.iter().map(move |&t| strong(opt, t, false, scale)))
        .collect()
}

/// Figure 5: parallel speed-up (1-thread time / P-thread time) of every
/// cumulative level.
fn fig5(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let mut headers = vec!["threads"];
    headers.extend(OptLevel::ALL.map(|opt| opt.name()));
    let mut series = Series::new(title, &headers);
    let threads = &scale.strong_threads;
    let one = threads.iter().position(|&t| t == 1);
    for (i, &t) in threads.iter().enumerate() {
        let mut row = vec![t as f64];
        for rung in results.chunks(threads.len()) {
            row.push(one.map_or(f64::NAN, |one| rung[one].total) / rung[i].total);
        }
        series.push(row);
    }
    ExperimentOutput::Series(series)
}

/// Figure 6: per-phase time at the largest thread count for every
/// cumulative level.
fn fig6(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let threads = *scale.strong_threads.last().expect("at least one thread count");
    let mut series = Series::new(
        format!("{title} at {threads} threads, per cumulative optimization (level index = ladder position)"),
        &phase_headers("level"),
    );
    for (i, rung) in results.chunks(scale.strong_threads.len()).enumerate() {
        series.push(phase_row(i, rung[rung.len() - 1]));
    }
    ExperimentOutput::Series(series)
}

/// Figure 8's thread count: the largest weak-scaling count up to 128 (the
/// paper uses 16x8 = 128 threads).
fn fig8_threads(scale: &Scale) -> usize {
    scale.weak_threads.iter().copied().filter(|&t| t <= 128).max().unwrap_or(16)
}

fn fig8_point(scale: &Scale) -> Point {
    weak(MergedTreeBuild, fig8_threads(scale), scale.threads_per_node, true, scale)
}

/// Figure 8: per-rank tree-building split with the §5.4 merged build.
fn fig8(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let mut series = Series::new(
        format!("{title} at {} threads (merged local trees)", fig8_threads(scale)),
        &["rank", "local_build", "merge", "tree_total"],
    );
    for (rank, outcome) in results[0].ranks.iter().enumerate() {
        series.push(vec![rank as f64, outcome.tree_local, outcome.tree_merge, outcome.phases.tree]);
    }
    ExperimentOutput::Series(series)
}

/// Figure 12's machines: 1, 4, 8 and 16 pthreads per node, then one
/// process per node.
const FIG12: [(&str, usize, bool); 5] = [
    ("1 thread/node", 1, true),
    ("4 threads/node", 4, true),
    ("8 threads/node", 8, true),
    ("16 threads/node", 16, true),
    ("1 process/node", 1, false),
];

fn fig12_points(scale: &Scale) -> Vec<Point> {
    let machine = |(_, per_node, pthreads): (&str, usize, bool)| {
        scale.weak_threads.iter().map(move |&t| weak(Subspace, t, per_node, pthreads, scale))
    };
    FIG12.into_iter().flat_map(machine).collect()
}

/// Figure 12: weak scaling while varying threads per node.
fn fig12(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let threads = &scale.weak_threads;
    let mut outputs = Vec::new();
    for ((label, ..), machine) in FIG12.iter().zip(results.chunks(threads.len())) {
        let mut series = Series::new(format!("{title}, {label}"), &["threads", "total"]);
        for (&t, r) in threads.iter().zip(machine) {
            series.push(vec![t as f64, r.total]);
        }
        outputs.push(ExperimentOutput::Series(series));
    }
    ExperimentOutput::Multi(outputs)
}

/// Figure 13's thread counts.  The paper runs 1 thread/node up to 112 and
/// 16 threads/node from 16 to 512; the emulated sweep follows the strong
/// thread list and extends it with the weak thread counts (pthreads nodes)
/// beyond its last entry.
fn fig13_threads(scale: &Scale) -> Vec<(usize, bool)> {
    let last = *scale.strong_threads.last().unwrap_or(&1);
    let beyond = scale.weak_threads.iter().filter(|&&t| t > last).map(|&t| (t, true));
    scale.strong_threads.iter().map(|&t| (t, false)).chain(beyond).collect()
}

fn fig13_points(scale: &Scale) -> Vec<Point> {
    let point = |(t, beyond)| match beyond {
        false => strong(Subspace, t, false, scale),
        true => upc(Subspace, scale.bodies, t, scale.threads_per_node, true, scale),
    };
    fig13_threads(scale).into_iter().map(point).collect()
}

/// Figure 13: strong-scaling speed-up of the final code.
fn fig13(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let mut series = Series::new(
        format!("{title}, {} bodies, fully optimized code", scale.bodies),
        &["threads", "total", "speedup", "bodies_per_thread"],
    );
    for ((t, _), r) in fig13_threads(scale).into_iter().zip(results) {
        let (t, total) = (t as f64, r.total);
        series.push(vec![t, total, results[0].total / total, scale.bodies as f64 / t]);
    }
    ExperimentOutput::Series(series)
}

/// §4.1: 16 UPC threads on one node, pthreads vs processes, baseline code.
fn intranode_text(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let (with_pthreads, with_processes) = (results[0].total, results[1].total);
    ExperimentOutput::Text(format!(
        "{title} ({} bodies, 16 UPC threads on one node, baseline code)\n\
         -pthreads enabled  (16 pthreads/node): {with_pthreads:.3} simulated s\n\
         -pthreads disabled (16 processes/node): {with_processes:.3} simulated s\n\
         slowdown of process mode: {:.0}x\n",
        scale.bodies.min(32_768),
        with_processes / with_pthreads
    ))
}

/// §5.2: the fraction of bodies changing owner per step.
fn migration_text(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let cfg = migration(scale).cfg;
    ExperimentOutput::Text(format!(
        "{title} ({} bodies, 8 threads, measured over the last {} steps)\n\
         fraction of bodies migrating between owners per step: {:.2} %\n",
        cfg.nbodies,
        cfg.measured_steps,
        100.0 * results[0].migration_fraction
    ))
}

/// The thread counts of the §5.5 single-source statistic.
const VLIST_THREADS: [usize; 3] = [8, 16, 32];

/// §5.5: the share of aggregated requests served by a single source thread.
fn vlist_text(title: &str, _: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let mut out = format!("{title}\n");
    for (threads, r) in VLIST_THREADS.iter().zip(results) {
        let frac = r.vlist_single_source_fraction().unwrap_or(0.0);
        out.push_str(&format!(
            "  {threads:>3} threads: {:.1} % of aggregated requests had a single source thread\n",
            100.0 * frac
        ));
    }
    ExperimentOutput::Text(out)
}

/// The rank counts and the degrees n1 = n2 = n3 of the §5.5 sensitivity run.
const DEGREE_RANKS: [usize; 2] = [4, 16];
const DEGREES: [usize; 3] = [1, 4, 16];

fn degree_points(scale: &Scale) -> Vec<Point> {
    let ranks = |r| DEGREES.map(|d| aggregation_degree(r, d, scale));
    DEGREE_RANKS.into_iter().flat_map(ranks).collect()
}

/// §5.5: the force phase against n1 = n2 = n3, and each degree against 16.
fn degree_text(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let mut out = format!(
        "{title}, {} bodies, n1 = n2 = n3 (force phase, simulated s)\n\
         ranks      n = 1      n = 4     n = 16   4 vs 16   1 vs 16\n",
        scale.bodies
    );
    for (ranks, row) in DEGREE_RANKS.iter().zip(results.chunks(DEGREES.len())) {
        let [one, four, sixteen] = [0, 1, 2].map(|i| row[i].phases.force);
        let (four_vs, one_vs) = (100.0 * (four / sixteen - 1.0), 100.0 * (one / sixteen - 1.0));
        out.push_str(&format!(
            "{ranks:>5} {one:>10.6} {four:>10.6} {sixteen:>10.6} {four_vs:>+7.1} % {one_vs:>+7.1} %\n"
        ));
    }
    ExperimentOutput::Text(out)
}

/// The final code on upc, then on the message-passing comparator, at every
/// strong thread count.
fn mpi_points(scale: &Scale) -> Vec<Point> {
    let pair = |t| {
        let upc = strong(Subspace, t, false, scale);
        let mpi = Point { backend: &bh_mpi::MpiBackend, ..upc.clone() };
        [upc, mpi]
    };
    scale.strong_threads.iter().flat_map(|&t| pair(t)).collect()
}

/// Extension: the §9 future-work comparison of the fully optimized UPC code
/// against the message-passing comparator.
fn mpi_compare(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let mut series = Series::new(
        format!("{title}, {} bodies (simulated seconds)", scale.bodies),
        &["threads", "upc_total", "upc_force", "mpi_total", "mpi_force", "mpi_over_upc"],
    );
    for (&t, pair) in scale.strong_threads.iter().zip(results.chunks(2)) {
        let (upc, mpi) = (pair[0], pair[1]);
        let ratio = mpi.total / upc.total.max(1e-12);
        series.push(vec![
            t as f64,
            upc.total,
            upc.phases.force,
            mpi.total,
            mpi.phases.force,
            ratio,
        ]);
    }
    ExperimentOutput::Series(series)
}

/// The baseline, the baseline through the software scalar cache and the
/// manual replication, on at most 8192 bodies and 32 threads (the baseline
/// is extremely slow beyond, and the point is made well before).
fn swcache_points(scale: &Scale) -> Vec<Point> {
    let triple = |t| {
        let base = upc(Baseline, scale.bodies.min(8_192), t, 1, false, scale);
        let mut cached = base.clone();
        cached.cfg.software_scalar_cache = true;
        let mut replicated = base.clone();
        replicated.cfg.opt = ReplicateScalars;
        [base, cached, replicated]
    };
    scale.strong_threads.iter().filter(|&&t| t <= 32).flat_map(|&t| triple(t)).collect()
}

/// Extension: transparent (MuPC-style) software caching of shared scalars
/// vs the manual §5.1 replication, on the otherwise-unoptimized baseline.
fn swcache(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let mut series = Series::new(
        format!("{title}, {} bodies (total simulated seconds)", scale.bodies.min(8_192)),
        &["threads", "baseline", "software_cache", "manual_repl"],
    );
    for triple in results.chunks(3) {
        let threads = triple[0].ranks.len() as f64;
        series.push(vec![threads, triple[0].total, triple[1].total, triple[2].total]);
    }
    ExperimentOutput::Series(series)
}

/// The merged-tree rung with the §5.3.1 separate local tree, then with the
/// §5.3.2 shadow pointers, at every strong thread count.
fn cache_variant_points(scale: &Scale) -> Vec<Point> {
    let pair = |t| {
        let separate = strong(MergedTreeBuild, t, false, scale);
        let mut shadow = separate.clone();
        shadow.cfg.shadow_cache = true;
        [separate, shadow]
    };
    scale.strong_threads.iter().flat_map(|&t| pair(t)).collect()
}

/// Extension: the §5.3.1 separate local tree vs the §5.3.2 merged local
/// tree with shadow pointers (force-phase times).
fn cache_variants(title: &str, scale: &Scale, results: &[&SimResult]) -> ExperimentOutput {
    let mut series = Series::new(
        format!("{title}, {} bodies (force-phase simulated seconds)", scale.bodies),
        &["threads", "separate_tree", "shadow_ptrs"],
    );
    for (&t, pair) in scale.strong_threads.iter().zip(results.chunks(2)) {
        series.push(vec![t as f64, pair[0].phases.force, pair[1].phases.force]);
    }
    ExperimentOutput::Series(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_equal_points_run_once() {
        let names: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
        let scale = Scale::smoke();
        let both = [Experiment::named("table8").unwrap(), Experiment::named("fig13").unwrap()];
        assert_eq!(plan(&both, &scale).unwrap().len(), 3, "Fig. 13's strong half is Table 8");
    }

    /// Every experiment renders, from one run of all of them at the smoke
    /// scale, in its shape: a table has one column per strong thread count
    /// and positive totals, a figure one row per point of its axis with
    /// every value finite, a text is not empty.
    #[test]
    fn every_experiment_renders_its_shape_from_the_shared_runs() {
        let scale = Scale::smoke();
        let mut runs = Runs::default();
        runs.add(&plan(&EXPERIMENTS.iter().collect::<Vec<_>>(), &scale).unwrap(), None);
        let (strong, weak) = (scale.strong_threads.len(), scale.weak_threads.len());
        for exp in EXPERIMENTS {
            let (name, output) = (exp.name, exp.render(&scale, &runs));
            let rows = match (name, &exp.plan) {
                ("fig5" | "mpi_compare" | "swcache" | "cache_variants", _) => strong,
                ("fig6", _) => OptLevel::ALL.len(),
                ("fig8", _) => fig8_threads(&scale),
                ("fig12", _) | (_, Weak(..)) => weak,
                ("fig13", _) => fig13_threads(&scale).len(),
                _ => 0,
            };
            let series = match &output {
                ExperimentOutput::Table(t) => {
                    assert!(matches!(exp.plan, Strong(..)), "{name} is no phase table");
                    assert_eq!(t.columns.len(), strong, "{name}");
                    assert!(t.columns.iter().all(|c| c.total > 0.0), "{name}");
                    assert!(t.render().contains("Force Comp."), "{name}");
                    continue;
                }
                ExperimentOutput::Text(text) => {
                    assert!(rows == 0 && !text.trim().is_empty(), "{name}");
                    continue;
                }
                ExperimentOutput::Series(s) => vec![s],
                ExperimentOutput::Multi(parts) => parts
                    .iter()
                    .map(|p| match p {
                        ExperimentOutput::Series(s) => s,
                        _ => panic!("{name}: a figure of series"),
                    })
                    .collect(),
            };
            assert_eq!(series.len(), if name == "fig12" { FIG12.len() } else { 1 }, "{name}");
            for s in series {
                assert_eq!(s.rows.len(), rows, "{name}: {}", s.title);
                let finite = s.rows.iter().flatten().all(|v| v.is_finite());
                assert!(finite && s.rows.iter().all(|r| r[r.len() - 1] > 0.0), "{name}: {s:?}");
            }
        }
        let fig5 = Experiment::named("fig5").unwrap().render(&scale, &runs);
        let ExperimentOutput::Series(fig5) = fig5 else { panic!("Figure 5 is one series") };
        assert_eq!(fig5.headers.len(), 1 + OptLevel::ALL.len());
    }
}

//! The five workloads, as data both drivers read: `bhmark` turns a
//! [`SimSpec`] into `bhsim` flags, `bhtrace` into an in-process
//! configuration, so the traced and untraced runs see the same inputs.
//!
//! Every simulation runs on 2 emulated ranks.  Why each workload exists is
//! in `benchmark/README.md` and, in one line, in `BENCHMARK.json`.

use std::time::{Duration, Instant};

use crate::script::derive_seed;

pub const LADDER_FINE: &str = "ladder-fine-4k";
pub const LADDER_CACHED: &str = "ladder-cached-16k";
pub const REUSE_GROUP: &str = "reuse-group-16k";
pub const SERVE_MIX: &str = "serve-mix";
pub const CHECKPOINT_CYCLE: &str = "checkpoint-cycle";

/// Every workload, in the order a full run takes them.
pub const NAMES: [&str; 5] = [LADDER_FINE, LADDER_CACHED, REUSE_GROUP, SERVE_MIX, CHECKPOINT_CYCLE];

/// Emulated ranks of every simulation (`--nodes 2`, one thread each).
pub const NODES: usize = 2;

/// How many times set-up is repeated so `setup_s` can be a median.
pub const SETUP_REPS: usize = 3;

/// Distinct input seeds a workload rotates through.  Cycle `i` uses seed
/// `i % SEED_POOL`: rotating keeps a run's medians from hanging on one
/// sample of the initial conditions (simulated time moves ±3.5 % with the
/// Plummer seed), and coming back to a seed lets the driver check that the
/// same input gives the same `state_digest`.
pub const SEED_POOL: usize = 4;

/// One `bhsim`-shaped simulation: what to run, not how.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    pub scenario: &'static str,
    pub n: usize,
    pub opt: &'static str,
    pub steps: usize,
    pub measured: usize,
    pub build: &'static str,
    pub walk: &'static str,
    /// `Some((rebuild_every, drift_threshold))` selects `--tree-policy reuse`.
    pub reuse: Option<(usize, f64)>,
}

impl SimSpec {
    /// The paper's protocol: 4 steps, the last 2 measured, insertion build,
    /// per-body walk, per-step rebuild.
    pub fn paper(n: usize, opt: &'static str) -> SimSpec {
        SimSpec {
            scenario: "plummer",
            n,
            opt,
            steps: 4,
            measured: 2,
            build: "insertion",
            walk: "per-body",
            reuse: None,
        }
    }

    /// Body·steps one run advances.
    pub fn body_steps(&self) -> u64 {
        (self.n * self.steps) as u64
    }

    /// The `bhsim` flags for this run (without `--json` or checkpoint flags).
    pub fn bhsim_args(&self, seed: u64) -> Vec<String> {
        let mut args: Vec<String> = Vec::new();
        let mut flag = |k: &str, v: String| args.extend([k.to_string(), v]);
        flag("--scenario", self.scenario.to_string());
        flag("--n", self.n.to_string());
        flag("--nodes", NODES.to_string());
        flag("--opt", self.opt.to_string());
        flag("--steps", self.steps.to_string());
        flag("--measured", self.measured.to_string());
        flag("--build", self.build.to_string());
        flag("--walk", self.walk.to_string());
        if let Some((every, drift)) = self.reuse {
            flag("--tree-policy", "reuse".to_string());
            flag("--rebuild-every", every.to_string());
            flag("--drift-threshold", drift.to_string());
        }
        flag("--seed", seed.to_string());
        args
    }
}

/// A workload made of `bhsim` runs: each cycle runs every op once.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub ops: Vec<SimSpec>,
    /// Index of the op whose latency is reported as `op_p50_ms`.
    pub headline: usize,
    /// The cheaper run set-up repeats to warm the binary and the page cache.
    pub warmup: SimSpec,
    /// Whether every op of a cycle must report the same `state_digest`
    /// (the fine-grained rungs change who computes, not what).
    pub one_digest: bool,
}

fn size(n: usize, quick: bool) -> usize {
    if quick {
        n / 8
    } else {
        n
    }
}

/// The `bhsim` sweeps; `None` for the two workloads of another shape.
pub fn sweep(name: &str, quick: bool) -> Option<Sweep> {
    match name {
        LADDER_FINE => {
            let n = size(4096, quick);
            let ops: Vec<SimSpec> = ["baseline", "replicate-scalars", "redistribute"]
                .map(|opt| SimSpec::paper(n, opt))
                .to_vec();
            Some(Sweep { warmup: ops[2].clone(), headline: 2, ops, one_digest: true })
        }
        LADDER_CACHED => {
            let n = size(16384, quick);
            let ops: Vec<SimSpec> =
                ["cache-local-tree", "merged-tree-build", "async-aggregation", "subspace"]
                    .map(|opt| SimSpec::paper(n, opt))
                    .to_vec();
            Some(Sweep { warmup: ops[3].clone(), headline: 3, ops, one_digest: false })
        }
        REUSE_GROUP => {
            let run = SimSpec {
                steps: 12,
                measured: 9,
                build: "sorted",
                walk: "group",
                reuse: Some((8, 0.25)),
                ..SimSpec::paper(size(16384, quick), "cache-local-tree")
            };
            let warmup = SimSpec { steps: 4, measured: 2, ..run.clone() };
            Some(Sweep { ops: vec![run], headline: 0, warmup, one_digest: false })
        }
        _ => None,
    }
}

/// The `checkpoint-cycle` run: 8 steps, a checkpoint after each.
pub fn checkpoint_run(quick: bool) -> SimSpec {
    SimSpec { steps: 8, measured: 2, ..SimSpec::paper(size(8192, quick), "subspace") }
}

/// Step whose checkpoint the cycle resumes from and diffs against the last.
pub const RESUME_STEP: usize = 4;

/// The input seeds a workload rotates through, from the benchmark seed.
pub fn seed_pool(seed: u64, workload: &str) -> [u64; SEED_POOL] {
    let index = NAMES.iter().position(|n| *n == workload).expect("known workload") as u64;
    std::array::from_fn(|i| derive_seed(seed, &[index, i as u64]))
}

/// The measurement window: cycles run until the next one would overshoot
/// the window by more than it undershoots now.
pub struct Window {
    start: Instant,
    length: Duration,
    quick: bool,
    cycles: u32,
}

impl Window {
    pub fn open(seconds: f64, quick: bool) -> Window {
        Window { start: Instant::now(), length: Duration::from_secs_f64(seconds), quick, cycles: 0 }
    }

    /// Call after each cycle; `true` while another cycle should run.
    pub fn another(&mut self) -> bool {
        self.cycles += 1;
        if self.quick {
            return false;
        }
        let elapsed = self.start.elapsed();
        elapsed + elapsed / self.cycles / 2 < self.length
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_exist_for_the_three_bhsim_workloads_only() {
        for name in NAMES {
            let is_sweep = [LADDER_FINE, LADDER_CACHED, REUSE_GROUP].contains(&name);
            assert_eq!(sweep(name, false).is_some(), is_sweep, "{name}");
        }
        assert_eq!(sweep(LADDER_FINE, false).unwrap().ops.len(), 3);
        assert_eq!(sweep(LADDER_CACHED, false).unwrap().ops.len(), 4);
        assert_eq!(sweep(LADDER_CACHED, true).unwrap().ops[0].n, 2048, "quick is sizes / 8");
    }

    #[test]
    fn flags_spell_out_every_axis() {
        let run = &sweep(REUSE_GROUP, false).unwrap().ops[0];
        let args = run.bhsim_args(42).join(" ");
        assert_eq!(
            args,
            "--scenario plummer --n 16384 --nodes 2 --opt cache-local-tree --steps 12 \
             --measured 9 --build sorted --walk group --tree-policy reuse --rebuild-every 8 \
             --drift-threshold 0.25 --seed 42"
        );
        assert_eq!(run.body_steps(), 16384 * 12);
    }

    #[test]
    fn seed_pools_differ_by_seed_and_by_workload() {
        let a = seed_pool(1, LADDER_FINE);
        assert_eq!(a, seed_pool(1, LADDER_FINE));
        assert_ne!(a, seed_pool(2, LADDER_FINE));
        assert_ne!(a, seed_pool(1, LADDER_CACHED));
        let mut distinct = a.to_vec();
        distinct.dedup();
        assert_eq!(distinct.len(), SEED_POOL);
    }

    #[test]
    fn a_quick_window_runs_one_cycle() {
        let mut w = Window::open(1000.0, true);
        assert!(!w.another());
        let mut w = Window::open(1000.0, false);
        assert!(w.another(), "a long window wants more cycles");
        let mut w = Window::open(1e-9, false);
        assert!(!w.another(), "an elapsed window stops");
    }
}

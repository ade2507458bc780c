//! Simulation configuration: the optimization ladder and all tunables.
//!
//! [`SimConfig`] describes one run completely — workload size and seed,
//! physics parameters, emulated machine, measurement protocol — and is
//! consumed by every backend.  [`OptLevel`] parameterises the UPC ladder;
//! backends without a ladder (the MPI comparator, direct summation) ignore
//! it, so a single `SimConfig` drives directly comparable runs everywhere.

use pgas::Machine;
use serde::{Deserialize, Serialize};

/// The cumulative optimization ladder of the paper.
///
/// Each level includes every optimization below it, exactly as the paper's
/// evaluation applies them cumulatively (Tables 2–7 and §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// §4: the literal SPLASH-2 → UPC translation.  Shared scalars live on
    /// thread 0 and are re-read remotely, bodies stay in their original
    /// block distribution, the octree is built by global insertion under
    /// locks, and the force walk dereferences pointers-to-shared for every
    /// cell it touches.
    Baseline,
    /// §5.1: `tol`, `eps` and `rsize` are replicated into private variables
    /// on every thread.
    ReplicateScalars,
    /// §5.2: bodies are redistributed to their owning thread after
    /// partitioning (indexed bulk gather, double-buffered), so that all body
    /// accesses in the remaining phases are local and pointer-cast.
    Redistribute,
    /// §5.3.1: remote octree cells are cached on demand in a per-thread
    /// local tree during force computation.
    CacheLocalTree,
    /// §5.4: each thread builds a local octree without locks and merges it
    /// into the global tree, merging centres of mass commutatively.
    MergedTreeBuild,
    /// §5.5: non-blocking aggregated gathers (`bupc_memget_vlist_async`)
    /// overlap cache misses with force computation on other working bodies.
    AsyncAggregation,
    /// §6: the scalable subspace (cost-threshold) tree-building algorithm
    /// with level-wise vector reductions and an all-to-all body exchange.
    Subspace,
}

impl OptLevel {
    /// All levels in ladder order.
    pub const ALL: [OptLevel; 7] = [
        OptLevel::Baseline,
        OptLevel::ReplicateScalars,
        OptLevel::Redistribute,
        OptLevel::CacheLocalTree,
        OptLevel::MergedTreeBuild,
        OptLevel::AsyncAggregation,
        OptLevel::Subspace,
    ];

    /// Short name used by reports and the bench harness.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::ReplicateScalars => "replicate-scalars",
            OptLevel::Redistribute => "redistribute",
            OptLevel::CacheLocalTree => "cache-local-tree",
            OptLevel::MergedTreeBuild => "merged-tree-build",
            OptLevel::AsyncAggregation => "async-aggregation",
            OptLevel::Subspace => "subspace",
        }
    }

    /// Parses a level from its [`OptLevel::name`].
    pub fn from_name(name: &str) -> Option<OptLevel> {
        OptLevel::ALL.iter().copied().find(|l| l.name() == name)
    }

    /// `true` when shared scalars (`tol`, `eps`, `rsize`) are replicated
    /// locally (§5.1), i.e. at every level above the baseline.
    pub fn replicates_scalars(self) -> bool {
        self >= OptLevel::ReplicateScalars
    }

    /// `true` when bodies are redistributed to their owners (§5.2).
    pub fn redistributes_bodies(self) -> bool {
        self >= OptLevel::Redistribute
    }

    /// `true` when the force phase caches remote cells locally (§5.3).
    pub fn caches_cells(self) -> bool {
        self >= OptLevel::CacheLocalTree
    }

    /// `true` when tree building uses local trees merged into the global
    /// tree (§5.4) rather than global insertion under locks.
    pub fn merged_tree_build(self) -> bool {
        self == OptLevel::MergedTreeBuild || self == OptLevel::AsyncAggregation
    }

    /// `true` when the force phase uses non-blocking aggregated gathers
    /// (§5.5).
    pub fn async_aggregation(self) -> bool {
        self >= OptLevel::AsyncAggregation
    }

    /// `true` when tree building uses the §6 subspace algorithm.
    pub fn subspace_tree_build(self) -> bool {
        self == OptLevel::Subspace
    }
}

/// When (and whether) the global octree is torn down between time steps.
///
/// The paper's measurement protocol rebuilds the tree from scratch every
/// step, which is fine for its 4-step window but lets tree construction
/// dominate long-horizon runs.  The tree-lifecycle subsystem
/// (`bh::lifecycle`) can instead keep the tree alive across steps: leaf
/// positions are refreshed in place, only bodies that left their leaf's
/// cell bounds are re-inserted, and every cell's centre of mass is re-folded
/// bottom-up — falling back to a full rebuild when the tree has drifted too
/// far from the body distribution.
///
/// The persistent tree pays off on the global-insertion levels
/// ([`OptLevel::Baseline`] through [`OptLevel::CacheLocalTree`]), where a
/// per-step rebuild descends the shared tree under locks for every body;
/// the merged (§5.4/§5.5) and subspace (§6) builds rebuild cheaply from
/// local trees every step, so the upc row refuses a reusing policy there.
/// Which backends accept which policy is their [`crate::caps`] row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TreePolicy {
    /// Rebuild the global tree from scratch every step (the paper's
    /// protocol, and the default — results are bit-for-bit identical to the
    /// pre-lifecycle solver).
    Rebuild,
    /// Keep the tree across steps with an explicit rebuild cadence.
    Reuse {
        /// Force a full rebuild every this many steps (1 = rebuild every
        /// step, behaviourally identical to [`TreePolicy::Rebuild`]).
        rebuild_every: usize,
        /// Force a full rebuild when the fraction of bodies that left their
        /// leaf's cell bounds since the last build exceeds this value, or
        /// when the bounding box outgrows the persistent root cell.
        ///
        /// `0` is the strict mode: even within-cell movement (a body
        /// changing octant inside its leaf's cell — the first point where
        /// the persistent tree and a fresh rebuild could diverge
        /// structurally) counts as drift, so the trajectory is bit-for-bit
        /// identical to [`TreePolicy::Rebuild`].
        drift_threshold: f64,
    },
}

impl TreePolicy {
    /// Default rebuild cadence of `--tree-policy reuse`.
    pub const DEFAULT_REBUILD_EVERY: usize = 8;
    /// Default drift threshold of `--tree-policy reuse`.
    pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.25;

    /// Short name used by reports and the bench harness (the reuse
    /// parameters are part of the measurement protocol, not the name).
    pub fn name(self) -> &'static str {
        match self {
            TreePolicy::Rebuild => "rebuild",
            TreePolicy::Reuse { .. } => "reuse",
        }
    }

    /// Every policy [`TreePolicy::name`], in `bhsim --list` order (the
    /// counterpart of `OptLevel::ALL` for an enum whose variants carry
    /// parameters).
    pub const NAMES: [&'static str; 2] = ["rebuild", "reuse"];

    /// One-line description of the policy called `name`, for `bhsim --list`.
    pub fn description(name: &str) -> Option<String> {
        Some(match TreePolicy::from_name(name)? {
            TreePolicy::Rebuild => {
                "rebuild the octree from scratch every step (the paper's protocol)".to_string()
            }
            TreePolicy::Reuse { rebuild_every, drift_threshold } => format!(
                "persistent tree on the global-insertion rungs; full rebuild every \
                 --rebuild-every steps (default {rebuild_every}) or at --drift-threshold drift \
                 (default {drift_threshold})"
            ),
        })
    }

    /// Parses a policy from its [`TreePolicy::name`]; `reuse` carries the
    /// default cadence and drift threshold.
    pub fn from_name(name: &str) -> Option<TreePolicy> {
        match name {
            "rebuild" => Some(TreePolicy::Rebuild),
            "reuse" => Some(TreePolicy::Reuse {
                rebuild_every: TreePolicy::DEFAULT_REBUILD_EVERY,
                drift_threshold: TreePolicy::DEFAULT_DRIFT_THRESHOLD,
            }),
            _ => None,
        }
    }

    /// `true` when the policy may carry the tree across steps.
    pub fn reuses_tree(self) -> bool {
        !matches!(self, TreePolicy::Rebuild)
    }
}

/// How the force phase traverses the octree.
///
/// The per-body walk — the paper's protocol — runs one full traversal per
/// body, so the number of multipole-acceptance tests (and, below the §5.3
/// cache, the number of remote cell touches) scales with `n · depth`.  The
/// group walk (Barnes' "modified tree code" refinement) walks the tree
/// **once per body group** instead: spatially adjacent owned bodies are
/// grouped, each group's traversal produces an *interaction list* (accepted
/// cells plus opened cells' leaf batches) under a conservative opening
/// criterion — a cell is opened if **any** point of the group's bounding box
/// could open it under θ — and the list is then applied to every member with
/// the SoA leaf-coalesced kernel.  Because the group criterion only ever
/// opens *more* cells than any member's own criterion would, per-body
/// accuracy is never worse; the traversal volume (the `macs` counter) drops
/// by the mean group occupancy.
///
/// The group walk builds its lists over the §5.3 force cache; where it runs
/// is each backend's [`crate::caps`] row.  Under a reuse-capable
/// [`TreePolicy`], interaction lists are carried across steps while the
/// tree generation is unchanged and re-validated per group (payloads
/// epoch-refreshed; a relocated member leaf or a subdivided list cell
/// rebuilds that group's list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WalkMode {
    /// One tree traversal per body (the paper's walk, bit-for-bit the
    /// pre-group-walk force phase).
    PerBody,
    /// One tree traversal per body group, evaluated through per-group
    /// interaction lists.
    Group,
}

impl WalkMode {
    /// All walk modes.
    pub const ALL: [WalkMode; 2] = [WalkMode::PerBody, WalkMode::Group];

    /// Short name used by reports, the CLI and the bench harness.
    pub fn name(self) -> &'static str {
        match self {
            WalkMode::PerBody => "per-body",
            WalkMode::Group => "group",
        }
    }

    /// One-line description for `bhsim --list`.
    pub fn description(self) -> &'static str {
        match self {
            WalkMode::PerBody => "one tree traversal per body (the paper's walk)",
            WalkMode::Group => {
                "one traversal per body group; conservative opening, lists applied via SoA kernel"
            }
        }
    }

    /// Parses a mode from its [`WalkMode::name`].
    pub fn from_name(name: &str) -> Option<WalkMode> {
        WalkMode::ALL.iter().copied().find(|m| m.name() == name)
    }
}

/// How the global octree is constructed on a rebuild step.
///
/// The paper's build — and the default — is global insertion: every body
/// descends the shared tree and claims or subdivides its slot under a
/// per-cell lock.  That is exactly the pattern the paper measures in
/// "hundreds of seconds" at scale, and the one hot phase the persistent
/// tree and group walks only sidestep.  The sorted build (`bh::sortbuild`)
/// removes it: bodies are Morton-encoded with the same geometric-descent
/// keys the group walk uses, sorted cooperatively across ranks, and the
/// canonical octree is derived bottom-up from key-prefix boundaries with
/// **zero lock acquisitions** — summaries fold in one deterministic upward
/// pass with fixed (octant-order) reduction order, so forces are
/// bit-for-bit identical to the insertion build under
/// [`TreePolicy::Rebuild`].
///
/// Below §5.2 body ownership is not aligned with the partition the sort
/// distributes against, and the §6 subspace algorithm is itself a
/// replacement build; where the sorted build runs is each backend's
/// [`crate::caps`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TreeBuild {
    /// Global insertion under per-cell locks (the paper's build).
    Insertion,
    /// Lock-free bottom-up construction from the globally sorted Morton-key
    /// array.
    Sorted,
}

impl TreeBuild {
    /// All build algorithms.
    pub const ALL: [TreeBuild; 2] = [TreeBuild::Insertion, TreeBuild::Sorted];

    /// Short name used by reports, the CLI and the bench harness.
    pub fn name(self) -> &'static str {
        match self {
            TreeBuild::Insertion => "insertion",
            TreeBuild::Sorted => "sorted",
        }
    }

    /// One-line description for `bhsim --list`.
    pub fn description(self) -> &'static str {
        match self {
            TreeBuild::Insertion => "global insertion under per-cell locks (the paper's build)",
            TreeBuild::Sorted => {
                "lock-free bottom-up build from the globally sorted Morton-key array"
            }
        }
    }

    /// Parses a build algorithm from its [`TreeBuild::name`].
    pub fn from_name(name: &str) -> Option<TreeBuild> {
        TreeBuild::ALL.iter().copied().find(|b| b.name() == name)
    }
}

/// The default workload RNG seed used by [`SimConfig::new`] (and therefore
/// by every driver that doesn't override `--seed`).
pub const DEFAULT_SEED: u64 = 1_234_567;

/// §6 subspace threshold factor α: a cell whose cost exceeds
/// α·Cost/THREADS is split (the paper's 2/3).
pub const SUBSPACE_ALPHA: f64 = 2.0 / 3.0;

/// Octree leaf capacity (SPLASH-2: one body per leaf).
pub const LEAF_CAPACITY: usize = 1;

/// Maximum octree depth; the shared-tree builders give up on coincident
/// bodies a fixed margin beyond it.
pub const MAX_DEPTH: usize = 48;

/// A configuration-validation failure.
///
/// Besides the human-readable message, every failure carries a **stable,
/// machine-readable code** (`ConfigError::code`), so programmatic callers —
/// the `bhserve` daemon relaying a rejection to a remote client, scripts
/// parsing `bhsim` stderr — can classify the failure without string-matching
/// the prose.  The codes are part of the public vocabulary: existing codes
/// never change meaning, new checks add new codes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConfigError {
    /// Stable machine-readable code (one of the `ConfigError::E_*` consts).
    pub code: &'static str,
    /// Human-readable description of the failure.
    pub message: String,
}

impl ConfigError {
    /// `nbodies` is zero.
    pub const E_NBODIES: &'static str = "E_NBODIES";
    /// `steps` is zero.
    pub const E_STEPS: &'static str = "E_STEPS";
    /// `measured_steps` lies outside `1..=steps`.
    pub const E_MEASURED_WINDOW: &'static str = "E_MEASURED_WINDOW";
    /// `dt` is non-positive or non-finite.
    pub const E_DT: &'static str = "E_DT";
    /// `theta` is non-positive or non-finite.
    pub const E_THETA: &'static str = "E_THETA";
    /// `eps` is non-positive or non-finite.
    pub const E_EPS: &'static str = "E_EPS";
    /// Reuse policy: `rebuild_every` is zero.
    pub const E_REUSE_EVERY: &'static str = "E_REUSE_EVERY";
    /// Reuse policy: `drift_threshold` is negative or non-finite.
    pub const E_REUSE_DRIFT: &'static str = "E_REUSE_DRIFT";
    /// The machine has zero nodes or zero threads per node.
    pub const E_MACHINE: &'static str = "E_MACHINE";
    /// The backend's capability row ([`crate::caps::Caps`]) rejects this
    /// combination of axes.
    pub const E_UNSUPPORTED: &'static str = "E_UNSUPPORTED";
    /// Sessions require the per-step rebuild tree policy (the policy under
    /// which chunked stepping is bit-identical to one long run).
    pub const E_SESSION_POLICY: &'static str = "E_SESSION_POLICY";

    pub(crate) fn new(code: &'static str, message: impl Into<String>) -> ConfigError {
        ConfigError { code, message: message.into() }
    }
}

impl std::fmt::Display for ConfigError {
    /// Renders as `message [code]`, so every existing caller that prints the
    /// error surfaces the code too.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.message, self.code)
    }
}

impl std::error::Error for ConfigError {}

/// `?` into a `Result<_, String>` keeps the rendered `message [code]`.
impl From<ConfigError> for String {
    fn from(e: ConfigError) -> String {
        e.to_string()
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of bodies.
    pub nbodies: usize,
    /// RNG seed for the initial conditions.
    pub seed: u64,
    /// Opening criterion θ (paper default 1.0).
    pub theta: f64,
    /// Softening ε (SPLASH-2 default 0.05).
    pub eps: f64,
    /// Time step (paper default 0.025).
    pub dt: f64,
    /// Total number of time steps (paper: 4).
    pub steps: usize,
    /// Number of trailing steps whose phase times are reported (paper: 2).
    pub measured_steps: usize,
    /// Tree lifecycle across steps (see [`TreePolicy`]; default
    /// [`TreePolicy::Rebuild`], the paper's per-step rebuild).
    pub tree_policy: TreePolicy,
    /// Force-phase traversal mode (see [`WalkMode`]; default
    /// [`WalkMode::PerBody`], the paper's walk).
    pub walk: WalkMode,
    /// Tree-construction algorithm on rebuild steps (see [`TreeBuild`];
    /// default [`TreeBuild::Insertion`], the paper's build).
    pub build: TreeBuild,
    /// Optimization level (UPC ladder only; other backends ignore it).
    pub opt: OptLevel,
    /// Emulated machine.
    pub machine: Machine,
    /// §5.5 framework parameters: number of working bodies processed
    /// concurrently (n1), maximum outstanding gathers (n2) and minimum
    /// request length before a gather is issued (n3).  Paper default: 4.
    pub n1: usize,
    /// See [`SimConfig::n1`].
    pub n2: usize,
    /// See [`SimConfig::n1`].
    pub n3: usize,
    /// §6: use one vector reduction per level (Figure 11) instead of one
    /// scalar reduction per subspace (Figure 10).
    pub vector_reduction: bool,
    /// Number of separate fine-grained field accesses charged when the
    /// literal translation reads a remote body or cell field-by-field
    /// (before the bulk-transfer/caching optimizations kick in).
    pub fine_grained_fields: u32,
    /// Use the §5.3.2 merged-local-tree cache (shadow pointers, remote cells
    /// only) instead of the §5.3.1 separate local tree during the cached
    /// force phase.  The paper found "little performance improvement" from
    /// this variant; the `tables cache_variants` experiment quantifies the
    /// difference.
    ///
    /// Covers the blocking cached force phase only (`cache-local-tree` and
    /// `merged-tree-build`, both walk modes).  From `async-aggregation` up
    /// the §5.5 engine always copies, so the flag is a no-op there (pinned
    /// by `tests/variants_equivalence.rs`).
    pub shadow_cache: bool,
    /// Deterministic fault-injection plan (the faultline plane; see
    /// [`crate::fault`]).  Default: empty, guaranteed inert.  Excluded from
    /// every persisted run identity — snapshot manifests and `bhsim --json`
    /// specs never encode it — because faults describe how a run is
    /// exercised, not what it computes.
    pub faults: crate::fault::FaultPlan,
    /// Route the baseline's shared-scalar reads (`tol`, `eps`, `rsize`)
    /// through a MuPC-style transparent software cache
    /// ([`pgas::swcache::CachedScalar`], invalidated at every barrier)
    /// instead of reading them remotely every time.  Only meaningful below
    /// [`OptLevel::ReplicateScalars`]; used by the software-caching ablation.
    pub software_scalar_cache: bool,
}

impl SimConfig {
    /// A configuration with the paper's algorithmic defaults for the given
    /// problem size, machine and optimization level.
    pub fn new(nbodies: usize, machine: Machine, opt: OptLevel) -> Self {
        SimConfig {
            nbodies,
            seed: DEFAULT_SEED,
            theta: nbody::DEFAULT_THETA,
            eps: nbody::DEFAULT_EPS,
            dt: nbody::DEFAULT_DT,
            steps: 4,
            measured_steps: 2,
            tree_policy: TreePolicy::Rebuild,
            walk: WalkMode::PerBody,
            build: TreeBuild::Insertion,
            opt,
            machine,
            n1: 4,
            n2: 4,
            n3: 4,
            vector_reduction: true,
            fine_grained_fields: 3,
            shadow_cache: false,
            software_scalar_cache: false,
            faults: crate::fault::FaultPlan::default(),
        }
    }

    /// A small, fast configuration used by unit and integration tests.
    pub fn test(nbodies: usize, ranks: usize, opt: OptLevel) -> Self {
        let mut cfg = SimConfig::new(nbodies, Machine::test_cluster(ranks), opt);
        cfg.steps = 2;
        cfg.measured_steps = 1;
        cfg
    }

    /// Number of ranks implied by the machine.
    pub fn ranks(&self) -> usize {
        self.machine.ranks()
    }

    /// Checks that the configuration describes a runnable, measurable
    /// simulation.
    ///
    /// [`crate::caps::Caps::check`] (every solver entry point, every
    /// `supports()`) runs this first, so invalid configurations fail with a
    /// clear error instead of producing garbage:
    /// `measured_steps > steps` makes [`crate::report::measurement_begins`]
    /// never fire (the phase tables silently report the warm-up window that
    /// was never reset), a non-positive or non-finite `dt`/`theta`/`eps`
    /// turns positions into NaNs, zero bodies or steps produce meaningless
    /// reports, and a machine without ranks has nowhere to put the bodies.
    ///
    /// Failures carry a stable machine-readable code ([`ConfigError::code`])
    /// alongside the message.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nbodies < 1 {
            return Err(ConfigError::new(ConfigError::E_NBODIES, "nbodies must be at least 1"));
        }
        if self.steps < 1 {
            return Err(ConfigError::new(ConfigError::E_STEPS, "steps must be at least 1"));
        }
        if self.machine.nodes < 1 || self.machine.threads_per_node < 1 {
            return Err(ConfigError::new(
                ConfigError::E_MACHINE,
                format!(
                    "the machine needs at least one node and one thread per node: got {} \
                     node(s) x {} thread(s)",
                    self.machine.nodes, self.machine.threads_per_node
                ),
            ));
        }
        if self.measured_steps < 1 || self.measured_steps > self.steps {
            return Err(ConfigError::new(
                ConfigError::E_MEASURED_WINDOW,
                format!(
                    "measured_steps must lie in 1..=steps: got measured_steps = {} with steps = \
                     {} (the measurement window would never start and every phase table would \
                     report the un-reset warm-up accumulators)",
                    self.measured_steps, self.steps
                ),
            ));
        }
        let positive_finite = |code: &'static str, name: &str, v: f64| -> Result<(), ConfigError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(ConfigError::new(
                    code,
                    format!("{name} must be positive and finite, got {v}"),
                ));
            }
            Ok(())
        };
        positive_finite(ConfigError::E_DT, "dt", self.dt)?;
        positive_finite(ConfigError::E_THETA, "theta", self.theta)?;
        positive_finite(ConfigError::E_EPS, "eps", self.eps)?;
        if let TreePolicy::Reuse { rebuild_every, drift_threshold } = self.tree_policy {
            if rebuild_every < 1 {
                return Err(ConfigError::new(
                    ConfigError::E_REUSE_EVERY,
                    "tree_policy reuse: rebuild_every must be at least 1",
                ));
            }
            if !drift_threshold.is_finite() || drift_threshold < 0.0 {
                return Err(ConfigError::new(
                    ConfigError::E_REUSE_DRIFT,
                    format!(
                        "tree_policy reuse: drift_threshold must be finite and non-negative, got \
                         {drift_threshold}"
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ordered_and_cumulative() {
        assert!(OptLevel::Baseline < OptLevel::ReplicateScalars);
        assert!(OptLevel::ReplicateScalars < OptLevel::Subspace);
        assert!(!OptLevel::Baseline.replicates_scalars());
        assert!(OptLevel::ReplicateScalars.replicates_scalars());
        assert!(OptLevel::Subspace.replicates_scalars());
        assert!(OptLevel::Redistribute.redistributes_bodies());
        assert!(!OptLevel::Redistribute.caches_cells());
        assert!(OptLevel::CacheLocalTree.caches_cells());
        assert!(OptLevel::MergedTreeBuild.merged_tree_build());
        assert!(!OptLevel::Subspace.merged_tree_build());
        assert!(OptLevel::Subspace.subspace_tree_build());
        assert!(OptLevel::Subspace.async_aggregation());
        assert!(OptLevel::AsyncAggregation.async_aggregation());
        assert!(!OptLevel::MergedTreeBuild.async_aggregation());
    }

    #[test]
    fn names_roundtrip() {
        for l in OptLevel::ALL {
            assert_eq!(OptLevel::from_name(l.name()), Some(l));
        }
        assert_eq!(OptLevel::from_name("nope"), None);
    }

    #[test]
    fn tree_policy_names_roundtrip() {
        for name in TreePolicy::NAMES {
            let policy = TreePolicy::from_name(name).unwrap();
            assert_eq!(policy.name(), name);
            assert!(TreePolicy::description(name).is_some());
        }
        assert_eq!(TreePolicy::description("nope"), None);
        assert_eq!(TreePolicy::from_name("nope"), None);
        assert!(!TreePolicy::Rebuild.reuses_tree());
        assert!(TreePolicy::from_name("reuse").unwrap().reuses_tree());
    }

    #[test]
    fn walk_mode_names_roundtrip_and_default_is_per_body() {
        for m in WalkMode::ALL {
            assert_eq!(WalkMode::from_name(m.name()), Some(m));
            assert!(!m.description().is_empty());
        }
        assert_eq!(WalkMode::from_name("nope"), None);
        let cfg = SimConfig::test(64, 2, OptLevel::CacheLocalTree);
        assert_eq!(cfg.walk, WalkMode::PerBody, "the paper's walk must stay the default");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn tree_build_names_roundtrip_and_default_is_insertion() {
        for b in TreeBuild::ALL {
            assert_eq!(TreeBuild::from_name(b.name()), Some(b));
            assert!(!b.description().is_empty());
        }
        assert_eq!(TreeBuild::from_name("nope"), None);
        let cfg = SimConfig::test(64, 2, OptLevel::Redistribute);
        assert_eq!(cfg.build, TreeBuild::Insertion, "the paper's build must stay the default");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_accepts_the_defaults_and_rejects_garbage() {
        let good = SimConfig::test(64, 2, OptLevel::Subspace);
        assert!(good.validate().is_ok());

        let mut cfg = good.clone();
        cfg.measured_steps = cfg.steps + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.message.contains("measured_steps"), "{err}");
        assert_eq!(err.code, ConfigError::E_MEASURED_WINDOW);
        let shown = err.to_string();
        assert!(
            shown.contains("measured_steps") && shown.contains("E_MEASURED_WINDOW"),
            "Display must carry both the message and the code: {shown}"
        );

        let mut cfg = good.clone();
        cfg.measured_steps = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = good.clone();
        cfg.steps = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = good.clone();
        cfg.nbodies = 0;
        assert!(cfg.validate().is_err());

        for (nodes, threads_per_node) in [(0, 1), (2, 0)] {
            let mut cfg = good.clone();
            cfg.machine = Machine::power5(nodes, threads_per_node, false);
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.code, ConfigError::E_MACHINE, "{nodes} x {threads_per_node}: {err}");
        }

        for (field, value, code) in [
            ("dt", 0.0, ConfigError::E_DT),
            ("dt", -0.1, ConfigError::E_DT),
            ("theta", f64::NAN, ConfigError::E_THETA),
            ("eps", f64::INFINITY, ConfigError::E_EPS),
        ] {
            let mut cfg = good.clone();
            match field {
                "dt" => cfg.dt = value,
                "theta" => cfg.theta = value,
                _ => cfg.eps = value,
            }
            let err = cfg.validate().unwrap_err();
            assert!(err.message.contains(field), "{field}: {err}");
            assert_eq!(err.code, code, "{field}: {err}");
        }

        let mut cfg = good.clone();
        cfg.tree_policy = TreePolicy::Reuse { rebuild_every: 0, drift_threshold: 0.1 };
        assert_eq!(cfg.validate().unwrap_err().code, ConfigError::E_REUSE_EVERY);
        cfg.tree_policy = TreePolicy::Reuse { rebuild_every: 4, drift_threshold: -1.0 };
        assert_eq!(cfg.validate().unwrap_err().code, ConfigError::E_REUSE_DRIFT);
        cfg.tree_policy = TreePolicy::Reuse { rebuild_every: 4, drift_threshold: 0.0 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn error_codes_are_stable() {
        // The codes are a public vocabulary (bhserve relays them to remote
        // clients); renaming one is a protocol break and must fail here.
        assert_eq!(ConfigError::E_NBODIES, "E_NBODIES");
        assert_eq!(ConfigError::E_STEPS, "E_STEPS");
        assert_eq!(ConfigError::E_MEASURED_WINDOW, "E_MEASURED_WINDOW");
        assert_eq!(ConfigError::E_DT, "E_DT");
        assert_eq!(ConfigError::E_THETA, "E_THETA");
        assert_eq!(ConfigError::E_EPS, "E_EPS");
        assert_eq!(ConfigError::E_REUSE_EVERY, "E_REUSE_EVERY");
        assert_eq!(ConfigError::E_REUSE_DRIFT, "E_REUSE_DRIFT");
        assert_eq!(ConfigError::E_MACHINE, "E_MACHINE");
        assert_eq!(ConfigError::E_UNSUPPORTED, "E_UNSUPPORTED");
        assert_eq!(ConfigError::E_SESSION_POLICY, "E_SESSION_POLICY");
        let mut cfg = SimConfig::test(64, 1, OptLevel::Baseline);
        cfg.nbodies = 0;
        assert_eq!(cfg.validate().unwrap_err().code, ConfigError::E_NBODIES);
        cfg.nbodies = 64;
        cfg.steps = 0;
        assert_eq!(cfg.validate().unwrap_err().code, ConfigError::E_STEPS);
    }

    #[test]
    fn defaults_match_the_paper() {
        let cfg = SimConfig::new(1024, Machine::test_cluster(2), OptLevel::Baseline);
        assert_eq!(cfg.theta, 1.0);
        assert_eq!(cfg.dt, 0.025);
        assert_eq!(cfg.steps, 4);
        assert_eq!(cfg.measured_steps, 2);
        assert_eq!(cfg.n1, 4);
        assert_eq!(cfg.n2, 4);
        assert_eq!(cfg.n3, 4);
        assert!((SUBSPACE_ALPHA - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!((LEAF_CAPACITY, MAX_DEPTH), (1, 48));
        assert_eq!(cfg.ranks(), 2);
    }
}

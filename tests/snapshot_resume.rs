//! Checkpoint/restore round-trips through `snapstore`: a run interrupted at
//! an arbitrary step and resumed from its serialized checkpoint must land on
//! the same trajectory — positions and velocities bit-for-bit — as the run
//! that was never interrupted, across every backend, every scenario family,
//! both tree builds, both lifecycle policies, and both walk modes.  The
//! suite also pins the one piece of state that is easy to drop on the
//! floor: the mid-cadence rebuild phase of a persistent tree.

use barnes_hut_upc::prelude::*;
use proptest::prelude::*;
use snapstore::{Recorder, SimState, Store};

const RANKS: usize = 2;
const NBODIES: usize = 64;

/// Builds the config one checkpoint/resume case runs under.
fn case_config(
    scenario: &dyn Scenario,
    steps: usize,
    seed: u64,
    policy: TreePolicy,
    walk: WalkMode,
    build: TreeBuild,
) -> SimConfig {
    let tuning = scenario.recommended_config();
    let mut cfg = SimConfig::new(NBODIES, Machine::test_cluster(RANKS), OptLevel::CacheLocalTree);
    cfg.steps = steps;
    cfg.measured_steps = steps;
    cfg.seed = seed;
    cfg.theta = tuning.theta;
    cfg.eps = tuning.eps;
    cfg.dt = tuning.dt;
    cfg.tree_policy = policy;
    cfg.walk = walk;
    cfg.build = build;
    cfg
}

/// Runs the uninterrupted trajectory while recording checkpoints, and
/// returns its final bodies plus the checkpoint taken at `checkpoint_step`.
fn run_and_checkpoint(
    scenario_name: &str,
    cfg: &SimConfig,
    checkpoint_step: usize,
) -> (Vec<Body>, SimState) {
    run_and_checkpoint_on("upc", scenario_name, cfg, checkpoint_step)
}

/// [`run_and_checkpoint`] on the named backend.
fn run_and_checkpoint_on(
    backend_name: &str,
    scenario_name: &str,
    cfg: &SimConfig,
    checkpoint_step: usize,
) -> (Vec<Body>, SimState) {
    let registry = scenario_registry();
    let family = registry.get(scenario_name).expect("scenario registered");
    let bodies = family.generate(cfg.nbodies, cfg.seed);
    let backends = backend_registry();
    let backend = backends.get(backend_name).expect("backend registered");

    let mut recorder = Recorder::new(scenario_name, backend_name, cfg, bodies.clone(), 0);
    let mut checkpoint: Option<SimState> = None;
    let full = backend
        .run_tracked(cfg, bodies, &mut |record| {
            let state = recorder.observe(&record);
            if state.step == checkpoint_step {
                checkpoint = Some(state);
            }
        })
        .expect("uninterrupted run succeeds");
    let state = checkpoint.unwrap_or_else(|| {
        panic!("no checkpoint was recorded at step {checkpoint_step} of {}", cfg.steps)
    });
    (full.bodies, state)
}

/// Serializes the checkpoint into a fresh content-addressed store, loads it
/// back, and resumes — the full persistence pathway, not an in-memory
/// shortcut.
fn store_roundtrip_and_resume(state: &SimState) -> Vec<Body> {
    let dir = std::env::temp_dir().join(format!(
        "bh-snapresume-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let backends = backend_registry();
    let backend = backends.get(&state.backend).expect("backend registered");
    let resumed = (|| {
        let store = Store::open(&dir).map_err(|e| e.to_string())?;
        let saved = store.save_token(state).map_err(|e| e.to_string())?;
        let state = store.load(&saved.manifest_hash).map_err(|e| e.to_string())?;
        snapstore::resume(&state, backend, |_| {})
    })();
    let _ = std::fs::remove_dir_all(&dir);
    resumed.expect("store round-trip and resume succeed").bodies
}

fn assert_bodies_bit_equal(a: &[Body], b: &[Body], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: body counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{label}: body order differs");
        for (p, q) in [(x.pos, y.pos), (x.vel, y.vel)] {
            for (u, v) in [(p.x, q.x), (p.y, q.y), (p.z, q.z)] {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{label}: body {} diverged ({u:e} vs {v:e})",
                    x.id
                );
            }
        }
    }
}

fn bodies_differ(a: &[Body], b: &[Body]) -> bool {
    a.iter().zip(b).any(|(x, y)| {
        x.pos.x.to_bits() != y.pos.x.to_bits()
            || x.pos.y.to_bits() != y.pos.y.to_bits()
            || x.pos.z.to_bits() != y.pos.z.to_bits()
    })
}

proptest! {
    // Each case runs two emulated multi-rank simulations plus a store
    // round-trip; keep the case count modest — the matrix below still gets
    // full coverage from the deterministic test that follows.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline contract: checkpoint anywhere, resume, and the final
    /// positions and velocities are bit-for-bit those of the uninterrupted
    /// run — whatever the scenario family, build, lifecycle, or walk.
    #[test]
    fn resumed_runs_are_bit_identical_to_uninterrupted_runs(
        family_idx in 0usize..6,
        seed in 1u64..1000,
        steps in 4usize..7,
        checkpoint_step in 1usize..6,
        reuse in any::<bool>(),
        rebuild_every in 2usize..4,
        sorted_build in any::<bool>(),
        group_walk in any::<bool>(),
    ) {
        prop_assume!(checkpoint_step < steps);
        let scenario_name = scenarios::BUILTIN_NAMES[family_idx];
        let registry = scenario_registry();
        let family = registry.get(scenario_name).expect("scenario registered");
        let policy = if reuse {
            TreePolicy::Reuse {
                rebuild_every,
                drift_threshold: TreePolicy::DEFAULT_DRIFT_THRESHOLD,
            }
        } else {
            TreePolicy::Rebuild
        };
        let walk = if group_walk { WalkMode::Group } else { WalkMode::PerBody };
        let build = if sorted_build { TreeBuild::Sorted } else { TreeBuild::Insertion };
        let cfg = case_config(family, steps, seed, policy, walk, build);
        let (uninterrupted, state) = run_and_checkpoint(scenario_name, &cfg, checkpoint_step);
        let resumed = store_roundtrip_and_resume(&state);
        assert_bodies_bit_equal(
            &uninterrupted,
            &resumed,
            &format!("{scenario_name}/{policy:?}/{walk:?}/{build:?} @ step {checkpoint_step}"),
        );
    }
}

/// Deterministic sweep of the full 6 × 2 × 2 × 2 matrix (family × build ×
/// policy × walk) at a fixed mid-run checkpoint, so every cell is exercised
/// on every test run rather than only in expectation.
#[test]
fn every_family_build_policy_walk_cell_resumes_bit_exact() {
    for scenario_name in scenarios::BUILTIN_NAMES {
        let registry = scenario_registry();
        let family = registry.get(scenario_name).expect("scenario registered");
        for build in [TreeBuild::Insertion, TreeBuild::Sorted] {
            for policy in [
                TreePolicy::Rebuild,
                TreePolicy::Reuse {
                    rebuild_every: 3,
                    drift_threshold: TreePolicy::DEFAULT_DRIFT_THRESHOLD,
                },
            ] {
                for walk in [WalkMode::PerBody, WalkMode::Group] {
                    let cfg = case_config(family, 5, 11, policy, walk, build);
                    let (uninterrupted, state) = run_and_checkpoint(scenario_name, &cfg, 2);
                    let resumed = store_roundtrip_and_resume(&state);
                    assert_bodies_bit_equal(
                        &uninterrupted,
                        &resumed,
                        &format!("{scenario_name}/{build:?}/{policy:?}/{walk:?}"),
                    );
                }
            }
        }
    }
}

/// The backends without a tree to carry across steps checkpoint and resume
/// through the same driver: every family, resumed from a store round-trip,
/// lands on the uninterrupted trajectory bit for bit.
#[test]
fn mpi_and_direct_resume_bit_exact_on_every_family() {
    let registry = scenario_registry();
    for backend in ["mpi", "direct"] {
        for scenario_name in scenarios::BUILTIN_NAMES {
            let family = registry.get(scenario_name).expect("scenario registered");
            let policy = TreePolicy::Rebuild;
            let cfg = case_config(family, 5, 11, policy, WalkMode::PerBody, TreeBuild::Insertion);
            let (uninterrupted, state) = run_and_checkpoint_on(backend, scenario_name, &cfg, 2);
            assert_eq!(state.anchor_step, state.step, "{backend} keeps no cross-step state");
            let resumed = store_roundtrip_and_resume(&state);
            assert_bodies_bit_equal(
                &uninterrupted,
                &resumed,
                &format!("{backend}/{scenario_name}"),
            );
        }
    }
}

/// The regression the recorder exists to prevent: a checkpoint taken
/// mid-cadence under `TreePolicy::Reuse` must carry the rebuild phase
/// (via its anchor), not just the bodies.  A resume that drops the phase —
/// pretending the checkpointed bodies are a fresh anchor, so the tail
/// starts with a rebuild instead of reusing the step-4 tree — lands on a
/// measurably different trajectory, while the phase-preserving resume is
/// bit-exact.
#[test]
fn dropping_the_reuse_cadence_phase_changes_the_trajectory() {
    let scenario_name = "plummer";
    let registry = scenario_registry();
    let family = registry.get(scenario_name).expect("scenario registered");
    // Pure cadence-driven rebuilds: the drift trigger is disabled (a
    // triggered rebuild would resynchronize the forged run with the true
    // one and mask the dropped phase).
    let policy = TreePolicy::Reuse { rebuild_every: 4, drift_threshold: 1.0 };
    // The tree is built entering step 1 (from the step-0 bodies) and again
    // entering step 5; checkpointing at step 2 puts the run two steps into
    // the four-step cadence, with the next rebuild due at step 5.  A resume
    // that forgets the phase restarts the cadence at step 3 and rebuilds at
    // steps 3 and 7 instead — structurally different trees for most of the
    // tail.
    let cfg = case_config(family, 8, 23, policy, WalkMode::PerBody, TreeBuild::Insertion);
    let (uninterrupted, state) = run_and_checkpoint(scenario_name, &cfg, 2);
    assert_eq!(state.anchor_step, 0, "the step-0 bodies anchor the current tree");
    assert_eq!(state.steps_since_rebuild(), 2, "checkpoint is mid-cadence");

    let correct = store_roundtrip_and_resume(&state);
    assert_bodies_bit_equal(&uninterrupted, &correct, "phase-preserving resume");

    // Forge the phase-dropped checkpoint an anchor-less snapshotter would
    // have written: current bodies promoted to the anchor, cadence reset.
    let forged =
        SimState { anchor: state.bodies.clone(), anchor_step: state.step, ..state.clone() };
    assert_eq!(forged.steps_since_rebuild(), 0, "forged checkpoint lost the phase");
    let backends = backend_registry();
    let backend = backends.get("upc").expect("upc backend registered");
    let phase_dropped =
        snapstore::resume(&forged, backend, |_| {}).expect("phase-dropped resume still runs");
    assert!(
        bodies_differ(&uninterrupted, &phase_dropped.bodies),
        "dropping the cadence phase silently changed nothing — the regression \
         guard is vacuous (did the tail stop reusing the tree?)"
    );
}

/// Format pin: a store the loose-object version of `snapstore` wrote
/// (`tests/fixtures/store-v1/`, see its `EXPECTED.json`) still loads, and
/// resuming its mid-cadence checkpoint lands on the digest that version's
/// uninterrupted run reported.  Reading it creates nothing in the fixture.
#[test]
fn stores_written_before_packs_still_load_and_resume() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v1");
    let expected = std::fs::read_to_string(fixture.join("EXPECTED.json")).expect("EXPECTED.json");
    let expected: serde::Value = serde_json::from_str(&expected).expect("EXPECTED.json parses");
    let expected = expected.get("state_digest").and_then(|v| v.as_str()).expect("state_digest");

    let mid = snapstore::load_state(&fixture.join("step-0002.json")).expect("step 2 loads");
    assert_eq!((mid.step, mid.anchor_step), (2, 0), "a mid-cadence checkpoint");
    assert!(!engine::snap::bodies_bits_equal(&mid.anchor, &mid.bodies));
    let end = snapstore::load_state(&fixture.join("step-0004.json")).expect("step 4 loads");
    assert_eq!((end.step, end.anchor_step), (4, 3));
    assert_eq!(snapstore::digest_bodies(&end.bodies), expected);

    let backends = backend_registry();
    let backend = backends.get(&mid.backend).expect("backend registered");
    let resumed = snapstore::resume(&mid, backend, |_| {}).expect("resume");
    assert_eq!(snapstore::digest_bodies(&resumed.bodies), expected);
    assert!(engine::snap::bodies_bits_equal(&resumed.bodies, &end.bodies));
    assert!(!fixture.join("packs").exists(), "reading must not write into the fixture");
}

//! The capability matrix: every (backend, opt, walk, build, policy, ranks,
//! bodies, measurement window, mode) point gets exactly the verdict the
//! rules below spell out — written here independently of `engine::caps` —
//! and every accepted point small enough for a test machine runs to
//! completion.  Every such run that repeats is pinned bit for bit: its
//! fingerprint is one line of `tests/fixtures/fingerprints.txt`, the test
//! files' only record of what a run computed.  Every backend runs tracked,
//! through the one step driver, with the same fingerprint as untracked, and
//! refuses bad bodies with an error.  README's "Valid configurations" block
//! is pinned to the `bhsim --list` section rendered from the same rows, and
//! its "Knobs" block to the knob table.

use std::collections::{BTreeMap, BTreeSet};

use barnes_hut_upc::bh_mpi::PSEUDO_ID_BASE;
use barnes_hut_upc::engine::{self, ConfigError, SimConfig, TreeBuild, TreePolicy, WalkMode};
use barnes_hut_upc::prelude::*;
use pgas::RankStats;
use snapstore::sha256::hex_digest;

const MODES: [&str; 2] = ["run", "session"];

/// The expected code of one point (`None`: accepted).
fn expected(backend: &str, cfg: &SimConfig, mode: &str) -> Option<&'static str> {
    let reuses = cfg.tree_policy.reuses_tree();
    if mode == "session" && reuses {
        return Some(ConfigError::E_SESSION_POLICY);
    }
    if cfg.measured_steps > cfg.steps {
        return Some(ConfigError::E_MEASURED_WINDOW);
    }
    let (group, sorted) = (cfg.walk == WalkMode::Group, cfg.build == TreeBuild::Sorted);
    let rejected = match backend {
        "upc" => {
            (reuses && cfg.opt > OptLevel::CacheLocalTree)
                || (group && cfg.opt < OptLevel::CacheLocalTree)
                || (sorted
                    && !(OptLevel::Redistribute..=OptLevel::AsyncAggregation).contains(&cfg.opt))
                || (sorted && cfg.ranks() > 255)
        }
        "mpi" => cfg.nbodies >= PSEUDO_ID_BASE as usize || reuses || group || sorted,
        _ => false,
    };
    rejected.then_some(ConfigError::E_UNSUPPORTED)
}

type Point = (&'static str, SimConfig);

/// Every point's (backend, configuration): each axis multiplies the points
/// before it.
fn points() -> Vec<Point> {
    fn expand<T: Copy>(
        points: Vec<Point>,
        values: &[T],
        set: impl Fn(&mut SimConfig, T),
    ) -> Vec<Point> {
        let mut out = Vec::new();
        for (name, cfg) in points {
            for &value in values {
                let mut cfg = cfg.clone();
                set(&mut cfg, value);
                out.push((name, cfg));
            }
        }
        out
    }
    let base = SimConfig::test(48, 1, OptLevel::Baseline);
    let points = ["upc", "mpi", "direct"].map(|name| (name, base.clone())).to_vec();
    let points = expand(points, &OptLevel::ALL, |c, opt| c.opt = opt);
    let points = expand(points, &WalkMode::ALL, |c, walk| c.walk = walk);
    let points = expand(points, &TreeBuild::ALL, |c, build| c.build = build);
    let points = expand(points, &TreePolicy::NAMES, |c, name| {
        c.tree_policy = TreePolicy::from_name(name).unwrap()
    });
    let points =
        expand(points, &[1, 2, 4, 255, 256], |c, ranks| c.machine = Machine::test_cluster(ranks));
    let cap = PSEUDO_ID_BASE as usize;
    let points = expand(points, &[48, cap - 1, cap], |c, n| c.nbodies = n);
    let mut points = expand(points, &[1, 3], |c, measured| c.measured_steps = measured);
    // One named extra point: the baseline's shared scalars through the
    // software cache, the only rung where the cache changes what is billed.
    let mut cached = base;
    cached.software_scalar_cache = true;
    points.push(("upc", cached));
    points
}

/// A point's axes, as its fingerprint row and its failure messages name it.
fn axes(backend: &str, cfg: &SimConfig) -> String {
    format!(
        "{backend} {} {} {} {} ranks={} n={} measured={}{}",
        cfg.opt.name(),
        cfg.walk.name(),
        cfg.build.name(),
        cfg.tree_policy.name(),
        cfg.ranks(),
        cfg.nbodies,
        cfg.measured_steps,
        if cfg.software_scalar_cache { " scalar-cache" } else { "" }
    )
}

/// What a run computed, as `name=value` fields: the simulated total and the
/// six phase times as f64 bits, the integer counters and the three ledgers
/// summed over ranks, the first 16 hex digits of a SHA-256 of every rank's
/// own counters, and the state digest of the final bodies.
fn fingerprint(result: &SimResult) -> String {
    let bits = |x: f64| format!("{:016x}", x.to_bits());
    let counters = |s: &RankStats| {
        format!(
            "gets={} puts={} local={} messages={} in={} out={} locks={} vlists={} single={} \
             interactions={} tree_ops={} macs={} compute={} comm={} sync={}",
            s.remote_gets,
            s.remote_puts,
            s.local_accesses,
            s.messages,
            s.bytes_in,
            s.bytes_out,
            s.lock_acquires,
            s.vlist_requests,
            s.vlist_single_source,
            s.interactions,
            s.tree_ops,
            s.macs,
            bits(s.compute_seconds),
            bits(s.comm_seconds),
            bits(s.sync_seconds)
        )
    };
    let per_rank: String = result.ranks.iter().map(|r| counters(&r.stats) + "\n").collect();
    let p = &result.phases;
    format!(
        "total={} tree={} cofm={} partition={} redistribute={} force={} advance={} {} \
         per_rank={} digest={}",
        bits(result.total),
        bits(p.tree),
        bits(p.cofm),
        bits(p.partition),
        bits(p.redistribute),
        bits(p.force),
        bits(p.advance),
        counters(&result.total_stats()),
        &hex_digest(per_rank.as_bytes())[..16],
        snapstore::digest_bodies(&result.bodies)
    )
}

/// Whether `backend`'s run repeats bit for bit.  Two host races reach the
/// simulated clock: the insertion build's cell locks decide cell affinity,
/// and the re-fold of a persistent tree's cell summaries (upc's alone)
/// re-reads and re-bills a cell on every host-side retry.  One rank has
/// neither.
fn repeats(backend: &str, cfg: &SimConfig, result: &SimResult) -> bool {
    let refolds = backend == "upc" && cfg.tree_policy.reuses_tree();
    cfg.ranks() == 1 || (result.total_stats().lock_acquires == 0 && !refolds)
}

/// `text`'s rows, `axes | fields` each, keyed by their axes.
fn rows(text: &str) -> BTreeMap<&str, Vec<(&str, &str)>> {
    text.lines()
        .filter_map(|line| line.split_once(" | "))
        .map(|(axes, fields)| {
            (axes, fields.split(' ').filter_map(|field| field.split_once('=')).collect())
        })
        .collect()
}

/// Every row of `new` that differs from `old`'s, field by field.
fn diff(old: &str, new: &str) -> Vec<String> {
    let (old, new) = (rows(old), rows(new));
    let keys: BTreeSet<&str> = old.keys().chain(new.keys()).copied().collect();
    keys.into_iter()
        .filter_map(|key| match (old.get(key), new.get(key)) {
            (Some(_), None) => Some(format!("{key}: row vanished")),
            (None, Some(_)) => Some(format!("{key}: new row")),
            (Some(old), Some(new)) if old != new => {
                let moved: Vec<String> = old
                    .iter()
                    .zip(new)
                    .filter(|(a, b)| a != b)
                    .map(|((name, a), (_, b))| format!("{name} {a} -> {b}"))
                    .collect();
                Some(format!("{key}: {}", moved.join(", ")))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn every_point_gets_its_verdict_and_every_accepted_point_runs() {
    let backends = backend_registry();
    let points = points();
    assert_eq!(points.len(), 3 * 7 * 2 * 2 * 2 * 5 * 3 * 2 + 1);
    assert_eq!(points.len(), 5041);
    let bodies = generate(&PlummerConfig::new(48, points[0].1.seed));
    let mut pinned = vec![format!("input | digest={}", snapstore::digest_bodies(&bodies))];
    let mut runs = 0;
    for (name, cfg) in &points {
        let label = axes(name, cfg);
        let backend = backends.get(name).expect("builtin backend");
        for mode in MODES {
            let verdict = match mode {
                "run" => backend.supports(cfg),
                _ => backend.caps().check_session(cfg),
            };
            let got = verdict.as_ref().err().map(|e| e.code);
            assert_eq!(got, expected(name, cfg, mode), "{label} {mode}: {verdict:?}");
        }
        if cfg.nbodies != 48 || cfg.ranks() > 4 {
            continue;
        }
        // Small enough to run: accepted points complete, rejected ones fail
        // in the comparison driver before any work, with their code.
        let ran = engine::run_backends(&backends, &[name.to_string()], cfg, &bodies);
        match (expected(name, cfg, "run"), ran) {
            (None, Ok(ran)) => {
                let result = &ran[0].result;
                let (bodies, total) = (&result.bodies, result.phases.total());
                assert!(bodies.len() == 48 && total > 0.0, "{label}");
                assert!(bodies.iter().all(|b| b.pos.is_finite() && b.vel.is_finite()), "{label}");
                if repeats(name, cfg, result) {
                    pinned.push(format!("{label} | {}", fingerprint(result)));
                }
                runs += 1;
            }
            (Some(code), Err(e)) => assert!(e.contains(code), "{label}: {e}"),
            (want, ran) => panic!("{label}: expected {want:?}, got {:?}", ran.err()),
        }
    }
    // upc: 18 accepted (opt, walk, build) triples under rebuild, the 8 of
    // them on baseline..cache-local-tree under reuse; mpi: 7 opts; direct:
    // everything — each on 1, 2 and 4 ranks; and the scalar-cache point.
    assert_eq!(runs, (18 + 8 + 7 + 7 * 2 * 2 * 2) * 3 + 1);

    // The pins: every repeating run's line, and no other, is the fixture's.
    pinned[1..].sort();
    let text = pinned.join("\n") + "\n";
    let fixture = include_str!("fixtures/fingerprints.txt");
    if text != fixture {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fingerprints.txt");
        std::fs::write(&path, &text).expect("the regenerated fixture is written");
        let moved = diff(fixture, &text);
        panic!(
            "{} of {} pinned rows moved off tests/fixtures/fingerprints.txt (the first 20; \
             `input` is the generated bodies):\n{}\nthe regenerated fixture is {}; copy it \
             over tests/fixtures/fingerprints.txt if the change is meant",
            moved.len(),
            pinned.len() - 1,
            moved[..moved.len().min(20)].join("\n"),
            path.display()
        );
    }
}

#[test]
fn every_backend_runs_tracked_exactly_as_untracked() {
    // `subspace` is lock-free, so the upc run repeats bit for bit.
    let cfg = SimConfig::test(48, 2, OptLevel::Subspace);
    let bodies = generate(&PlummerConfig::new(48, cfg.seed));
    for backend in backend_registry().iter() {
        let name = backend.name();
        let mut steps = Vec::new();
        let tracked = backend
            .run_tracked(&cfg, bodies.clone(), &mut |record| {
                assert!(record.bodies.iter().enumerate().all(|(i, b)| b.id as usize == i));
                steps.push(record.step);
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(steps, (0..cfg.steps).collect::<Vec<_>>(), "{name}: one record per step");
        let plain = backend.run(&cfg, bodies.clone());
        assert_eq!(fingerprint(&tracked), fingerprint(&plain), "{name}");
    }

    // A persistent tree is the one case whose records anchor behind the
    // step: a resume replays from the last rebuild (steps 0 and 2 here).
    let mut cfg = SimConfig::test(96, 2, OptLevel::CacheLocalTree);
    cfg.steps = 4;
    cfg.measured_steps = 2;
    cfg.tree_policy = TreePolicy::Reuse { rebuild_every: 2, drift_threshold: 0.5 };
    let bodies = generate(&PlummerConfig::new(96, cfg.seed));
    let registry = backend_registry();
    let upc = registry.get("upc").expect("upc is registered");
    let mut anchors = Vec::new();
    let tracked = upc
        .run_tracked(&cfg, bodies.clone(), &mut |record| anchors.push(record.anchor_step))
        .unwrap();
    assert_eq!(anchors, [0, 0, 2, 2]);
    // The incremental tree update races for cell locks, so its simulated
    // time follows the host interleaving; the physics does not.
    let plain = upc.run(&cfg, bodies);
    assert!(engine::snap::bodies_bits_equal(&tracked.bodies, &plain.bodies));
}

#[test]
fn run_tracked_refuses_bad_bodies_with_an_error() {
    let cfg = SimConfig::test(48, 2, OptLevel::Subspace);
    let bodies = generate(&PlummerConfig::new(48, cfg.seed));
    let mut misnumbered = bodies.clone();
    misnumbered[5].id = 7;
    let cases = [
        (bodies[..47].to_vec(), "got 47 bodies for nbodies = 48"),
        (misnumbered, "body 5 has id 7"),
    ];
    for backend in backend_registry().iter() {
        for (bodies, expected) in &cases {
            let err = backend.run_tracked(&cfg, bodies.clone(), &mut |_| {}).unwrap_err();
            assert!(err.contains(expected), "{}: {err}", backend.name());
        }
    }
}

#[test]
fn step_faults_abort_once_then_replay_clean() {
    let mut cfg = SimConfig::test(48, 2, OptLevel::Subspace);
    cfg.steps = 4;
    let bodies = generate(&PlummerConfig::new(48, cfg.seed));
    for backend in backend_registry().iter() {
        let name = backend.name();
        cfg.faults = engine::fault::FaultPlan::parse("engine.step@n2").unwrap();
        let mut records = Vec::new();
        let err = backend
            .run_tracked(&cfg, bodies.clone(), &mut |r| records.push(r.step))
            .expect_err("the armed step fault must abort the run");
        assert!(err.contains(engine::fault::STEP_FAULT) && err.contains("step 2"), "{name}: {err}");
        assert_eq!(records, [0, 1], "{name}: the steps before the fault ran and were observed");

        // The abort consumed the trigger (shared across clones), so the
        // retry with the same plan runs clean and matches a fault-free run.
        let retry = backend.run_tracked(&cfg, bodies.clone(), &mut |_| {}).unwrap();
        let clean =
            backend.run(&SimConfig { faults: Default::default(), ..cfg.clone() }, bodies.clone());
        assert!(engine::snap::bodies_bits_equal(&retry.bodies, &clean.bodies), "{name}");
    }
}

#[test]
fn observer_time_is_billed_to_no_phase() {
    // The window is step 1 alone; the observer stalls rank 0 after step 0.
    // A rank let into step 1 early would wait out the stall inside step 1's
    // first phase.
    let cfg = SimConfig::test(48, 2, OptLevel::Subspace);
    let bodies = generate(&PlummerConfig::new(48, cfg.seed));
    let stall = std::time::Duration::from_millis(300);
    for backend in backend_registry().iter() {
        let result = backend
            .run_tracked(&cfg, bodies.clone(), &mut |r| {
                if r.step == 0 {
                    std::thread::sleep(stall);
                }
            })
            .unwrap();
        let host_ms = result.phases_host_ms.total();
        assert!(host_ms < stall.as_secs_f64() * 1e3, "{}: {host_ms} ms in step 1", backend.name());
    }
}

#[test]
fn readme_carries_the_rendered_table_verbatim() {
    let readme = include_str!("../README.md");
    let rendered = engine::caps::render(&backend_registry());
    assert!(
        readme.contains(&rendered),
        "README's \"Valid configurations\" block drifted from `bhsim --list`; paste:\n{rendered}"
    );
    let knobs = engine::knobs::render();
    assert!(
        readme.contains(&knobs),
        "README's \"Knobs\" block drifted from `engine::knobs::render`; paste:\n{knobs}"
    );
}

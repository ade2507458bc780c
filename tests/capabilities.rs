//! The capability matrix: every (backend, opt, walk, build, policy, ranks,
//! bodies, measurement window, mode) point gets exactly the verdict the
//! rules below spell out — written here independently of `engine::caps` —
//! and every accepted point small enough for a test machine runs to
//! completion; `run_tracked` succeeds exactly on the rows that say
//! `tracked`.  README's "Valid configurations" block is pinned to the
//! `bhsim --list` section rendered from the same rows.

use barnes_hut_upc::bh_mpi::PSEUDO_ID_BASE;
use barnes_hut_upc::engine::{self, ConfigError, SimConfig, TreeBuild, TreePolicy, WalkMode};
use barnes_hut_upc::prelude::*;

const MODES: [&str; 3] = ["run", "session", "tracked"];

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
            (group && cfg.opt < OptLevel::CacheLocalTree)
                || (sorted
                    && !(OptLevel::Redistribute..=OptLevel::AsyncAggregation).contains(&cfg.opt))
                || (sorted && cfg.ranks() > 255)
        }
        "mpi" => cfg.nbodies >= PSEUDO_ID_BASE as usize || reuses || group || sorted,
        _ => false,
    };
    let untracked = mode == "tracked" && backend != "upc";
    (rejected || untracked).then_some(ConfigError::E_UNSUPPORTED)
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
        expand(points, &[1, 2, 255, 256], |c, ranks| c.machine = Machine::test_cluster(ranks));
    let cap = PSEUDO_ID_BASE as usize;
    let points = expand(points, &[48, cap - 1, cap], |c, n| c.nbodies = n);
    expand(points, &[1, 3], |c, measured| c.measured_steps = measured)
}

#[test]
fn every_point_gets_its_verdict_and_every_accepted_point_runs() {
    let backends = backend_registry();
    let points = points();
    assert_eq!(points.len(), 3 * 7 * 2 * 2 * 3 * 4 * 3 * 2);
    let bodies = generate(&PlummerConfig::new(48, points[0].1.seed));
    let mut runs = 0;
    for (name, cfg) in &points {
        let axes = (cfg.opt, cfg.walk, cfg.build, cfg.tree_policy.name(), cfg.ranks());
        let label = format!("{name} {axes:?} n {} measured {}", cfg.nbodies, cfg.measured_steps);
        let backend = backends.get(name).expect("builtin backend");
        for mode in MODES {
            let verdict = match mode {
                "run" => backend.supports(cfg),
                "session" => backend.caps().check_session(cfg),
                _ => backend.caps().check_tracked(cfg),
            };
            let got = verdict.as_ref().err().map(|e| e.code);
            assert_eq!(got, expected(name, cfg, mode), "{label} {mode}: {verdict:?}");
        }
        if cfg.nbodies != 48 || cfg.ranks() > 2 {
            continue;
        }
        // Small enough to run: accepted points complete, rejected ones fail
        // in the comparison driver before any work, with their code.
        let ran = engine::run_backends(&backends, &[name.to_string()], cfg, &bodies);
        match (expected(name, cfg, "run"), ran) {
            (None, Ok(ran)) => {
                let (bodies, total) = (&ran[0].result.bodies, ran[0].result.phases.total());
                assert!(bodies.len() == 48 && total > 0.0, "{label}");
                assert!(bodies.iter().all(|b| b.pos.is_finite() && b.vel.is_finite()), "{label}");
                runs += 1;
            }
            (Some(code), Err(e)) => assert!(e.contains(code), "{label}: {e}"),
            (want, ran) => panic!("{label}: expected {want:?}, got {:?}", ran.err()),
        }
    }
    // upc: 18 accepted (opt, walk, build) triples × 3 policies; mpi: 7
    // opts; direct: everything — each on 1 and 2 ranks.
    assert_eq!(runs, (18 * 3 + 7 + 7 * 2 * 2 * 3) * 2);
}

#[test]
fn run_tracked_succeeds_exactly_where_the_row_says_tracked() {
    let cfg = SimConfig::test(48, 2, OptLevel::Baseline);
    let bodies = generate(&PlummerConfig::new(48, cfg.seed));
    for backend in backend_registry().iter() {
        let mut steps = 0;
        let ran = backend.run_tracked(&cfg, bodies.clone(), &mut |_| steps += 1);
        let name = backend.name();
        assert_eq!(ran.is_ok(), backend.caps().tracked, "{name}: {:?}", ran.err());
        if ran.is_ok() {
            assert_eq!(steps, cfg.steps, "{name}");
        }
    }
}

#[test]
fn readme_carries_the_rendered_table_verbatim() {
    let rendered = engine::caps::render(&backend_registry());
    assert!(
        include_str!("../README.md").contains(&rendered),
        "README's \"Valid configurations\" block drifted from `bhsim --list`; paste:\n{rendered}"
    );
}

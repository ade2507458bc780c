//! Probes: fixed-size calls into one layer's public functions, timed from
//! outside.  They are the same whatever workload is being traced, so a
//! layer's own cost can be read apart from any mix — and set beside the
//! end-to-end metric it is predicted to move (see `benchmark/README.md`).
//!
//! Each probe runs a few repetitions and reports the median.  Inputs come
//! from the benchmark seed.

use std::hint::black_box;
use std::time::Instant;

use barnes_hut_upc::engine::{Backend, DirectBackend};
use barnes_hut_upc::nbody::{self, Body, SoaBodies, Vec3};
use barnes_hut_upc::octree::{self, Octree, TreeParams};
use barnes_hut_upc::pgas::{Ctx, GlobalLock, Machine, Runtime, SharedVec};
use bhmark::metrics::PAIRS;
use bhmark::report::Tally;
use bhmark::script::derive_seed;
use bhmark::stats;
use bhmark::workload::{SimSpec, NODES};
use serde::Value;

use crate::sim::Layers;
use crate::traced::Values;

/// Median seconds of `reps` calls of `f`.
fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

struct Probe<'a> {
    layers: &'a Layers,
    seed: u64,
    /// Divides every problem size (`--quick`).
    shrink: usize,
    values: Values,
    tally: Tally,
}

impl Probe<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.values.insert(format!("probe.{name}"), value);
    }

    fn bodies(&self, scenario: &str, n: usize) -> Vec<Body> {
        let scenario = self.layers.scenario(scenario).expect("builtin scenario");
        scenario.generate(n / self.shrink, derive_seed(self.seed, &[n as u64]))
    }

    /// `pgas`: what the emulator itself costs per primitive, on 2 ranks.
    fn pgas(&mut self) {
        let runtime = Runtime::new(Machine::power5(NODES, 1, false));
        self.put("pgas.spawn_join_us", median_s(200 / self.shrink, || runtime.run(|_| ())) * 1e6);

        // Each probe times `ops` calls inside one SPMD run on rank 0.
        let per_op = |ops: usize, body: &(dyn Fn(&Ctx, usize) + Sync)| {
            let report = runtime.run(|ctx| {
                ctx.barrier();
                let start = Instant::now();
                body(ctx, ops);
                let elapsed = start.elapsed().as_secs_f64();
                ctx.barrier();
                elapsed
            });
            report.ranks[0].result / ops as f64
        };
        let ops = 20_000 / self.shrink;
        self.put(
            "pgas.barrier_us",
            per_op(ops, &|ctx, ops| (0..ops).for_each(|_| ctx.barrier())) * 1e6,
        );
        let gather =
            |ctx: &Ctx, ops: usize| (0..ops).for_each(|i| drop(black_box(ctx.allgather(i as u64))));
        self.put("pgas.allgather_us", per_op(ops / 4, &gather) * 1e6);

        let len = 1 << 16;
        let shared = SharedVec::from_fn(NODES, len, |i| i as u64);
        let remote: Vec<usize> = (0..len).filter(|&i| shared.owner_of(i) != 0).collect();
        let read = |ctx: &Ctx, ops: usize| {
            // Only rank 0 reads, and only elements rank 1 owns.
            if ctx.rank() == 0 {
                let sum: u64 = (0..ops).map(|i| shared.read(ctx, remote[i % remote.len()])).sum();
                black_box(sum);
            }
        };
        self.put("pgas.remote_read_ns", per_op(50 * ops, &read) * 1e9);

        let lock = GlobalLock::new(1);
        let acquire = |ctx: &Ctx, ops: usize| {
            if ctx.rank() == 0 {
                (0..ops).for_each(|_| drop(lock.lock(ctx)));
            }
        };
        self.put("pgas.lock_ns", per_op(50 * ops, &acquire) * 1e9);
    }

    /// `nbody`: the SoA interaction kernel, direct summation, Morton keys.
    fn nbody(&mut self) {
        let sources = self.bodies("plummer", 4096);
        let soa = SoaBodies::from_bodies(&sources);
        let targets = &sources[..(1024 / self.shrink).min(sources.len())];
        let mut interactions = 0u64;
        let seconds = median_s(3, || {
            interactions = 0;
            for t in targets {
                let (mut acc, mut phi) = (Vec3::ZERO, 0.0);
                interactions += soa.accumulate_excluding_id(
                    0,
                    soa.len(),
                    t.pos,
                    t.id,
                    0.05,
                    &mut acc,
                    &mut phi,
                ) as u64;
                black_box((acc, phi));
            }
        });
        self.put("nbody.soa_ns_per_interaction", seconds * 1e9 / interactions.max(1) as f64);

        let small = self.bodies("plummer", 2048);
        self.put(
            "nbody.direct_ms",
            median_s(3, || nbody::direct::compute_forces(&small, 0.05)) * 1e3,
        );

        let keys = 1 << 18;
        let seconds = median_s(3, || {
            let mut mix = 0u64;
            for i in 0..keys {
                let p = sources[i % sources.len()].pos;
                mix ^= nbody::morton::encode(p, Vec3::ZERO, 64.0);
            }
            mix
        });
        self.put("nbody.morton_ns", seconds * 1e9 / keys as f64);
    }

    /// `octree`: the sequential tree the distributed builds are checked against.
    fn octree(&mut self) {
        let large = self.bodies("plummer", 32768);
        self.put(
            "octree.build_ms",
            median_s(3, || Octree::build(&large, TreeParams::default()).len()) * 1e3,
        );
        let medium = self.bodies("plummer", 8192);
        self.put(
            "octree.forces_ms",
            median_s(3, || octree::compute_forces(&medium, 1.0, 0.05)) * 1e3,
        );
    }

    /// `scenarios`: what a job pays before its first step.
    fn scenarios(&mut self) {
        for name in ["plummer", "king", "hernquist"] {
            let ms = median_s(3, || self.bodies(name, 32768).len()) * 1e3;
            self.put(&format!("scenarios.generate_ms.{name}"), ms);
        }
    }

    /// `engine`: the exact reference backend, and how far the tree codes
    /// are from it.  The error is a check, with the bound
    /// `tests/backend_equivalence.rs` uses.
    fn engine(&mut self) {
        let (layers, shrink) = (self.layers, self.shrink);
        let one_step = |n: usize, opt: &'static str, walk: &'static str| SimSpec {
            steps: 1,
            measured: 1,
            walk,
            ..SimSpec::paper(n / shrink, opt)
        };
        let seed = derive_seed(self.seed, &[2048]);
        match layers.config(&one_step(2048, "subspace", "per-body"), seed) {
            Ok(cfg) => {
                let bodies = self.bodies("plummer", 2048);
                let ms = median_s(3, || DirectBackend.run(&cfg, bodies.clone())) * 1e3;
                self.put("engine.direct_ms", ms);
            }
            Err(e) => self.tally.fail(e),
        }

        // One step, so every solver computes accelerations at the same
        // (initial) positions.
        let bodies = self.bodies("plummer", 4096);
        let mut worst: f64 = 0.0;
        for (opt, walk) in [("subspace", "per-body"), ("cache-local-tree", "group")] {
            let run = layers.config(&one_step(4096, opt, walk), seed).and_then(|cfg| {
                let upc = layers.backend("upc")?;
                upc.supports(&cfg)?;
                let exact = nbody::direct::compute_forces(&bodies, cfg.eps);
                Ok((upc.run(&cfg, bodies.clone()), exact))
            });
            match run {
                Ok((result, exact)) => {
                    let err = result
                        .bodies
                        .iter()
                        .zip(&exact)
                        .map(|(a, b)| (a.acc - b.acc).norm() / b.acc.norm().max(1e-12))
                        .sum::<f64>()
                        / exact.len().max(1) as f64;
                    self.tally.check(err < 0.12, || {
                        format!("{opt}/{walk}: mean acceleration error vs direct is {err}")
                    });
                    worst = worst.max(err);
                }
                Err(e) => self.tally.fail(e),
            }
        }
        self.put("engine.force_err_mean", worst);
    }

    /// `bhmpi`: the message-passing comparator on the paper's protocol.
    fn bhmpi(&mut self) {
        let seed = derive_seed(self.seed, &[16384]);
        let layers = self.layers;
        let run =
            layers.config(&SimSpec::paper(16384 / self.shrink, "subspace"), seed).and_then(|cfg| {
                let mpi = layers.backend("mpi")?;
                mpi.supports(&cfg)?;
                let bodies = self.bodies("plummer", 16384);
                let start = Instant::now();
                let result = mpi.run(&cfg, bodies);
                Ok((start.elapsed().as_secs_f64(), result.total))
            });
        match run {
            Ok((wall_s, sim_s)) => {
                self.put("bhmpi.wall_ms", wall_s * 1e3);
                self.put("bhmpi.sim_s", sim_s);
            }
            Err(e) => self.tally.fail(e),
        }
    }

    /// `snapstore`: hashing and hex-encoding throughput (the store's own
    /// paths are traced in `checkpoint-cycle`).
    fn snapstore(&mut self) {
        let megabytes = 8 / self.shrink.min(8);
        let data: Vec<u8> = (0..megabytes << 20).map(|i| (i * 31 + 7) as u8).collect();
        let seconds = median_s(3, || snapstore::sha256::digest(&data));
        self.put("snapstore.sha256_mb_per_s", megabytes as f64 / seconds);

        let floats: Vec<f64> = (0..1 << 18).map(|i| i as f64 * 0.37).collect();
        let seconds =
            median_s(3, || floats.iter().map(|&v| snapstore::hex_f64(v).len()).sum::<usize>());
        self.put("snapstore.hex_mb_per_s", (floats.len() * 8) as f64 / (1 << 20) as f64 / seconds);
    }

    /// `bhserve`: the per-request work outside the engine.
    fn bhserve(&mut self) {
        let request: Value = serde_json::from_str(
            r#"{"op": "run", "tenant": "t", "scenario": "king", "n": 256, "seed": 9,
                "steps": 4, "measured": 2}"#,
        )
        .expect("literal request");
        let jobs = 2000 / self.shrink;
        let layers = self.layers;
        let (scenarios, backends) = (&layers.scenarios, &layers.backends);
        let mut decoded = 0;
        let seconds = median_s(3, || {
            decoded = (0..jobs)
                .filter(|_| {
                    bhserve::proto::decode_job(black_box(&request), scenarios, backends).is_ok()
                })
                .count();
        });
        self.tally.check(decoded == jobs, || "decode_job refused the probe request".to_string());
        self.put("bhserve.decode_job_us", seconds * 1e6 / jobs as f64);

        let session = self.bodies("plummer", 1024);
        let encode = || {
            let bodies = bhserve::proto::snapshot_bodies(&session);
            serde_json::to_string(&bodies).map(|s| s.len()).ok()
        };
        self.put("bhserve.snapshot_encode_ms", median_s(5, encode) * 1e3);

        let payload = vec![b'x'; 1 << 20];
        let frames = 64 / self.shrink.min(8);
        let seconds = median_s(3, || {
            let mut wire = Vec::with_capacity(frames * (payload.len() + 4));
            for _ in 0..frames {
                bhserve::frame::write_frame(&mut wire, &payload).expect("in-memory write");
            }
            let mut reader = wire.as_slice();
            let mut total = 0;
            while let Ok(Some(frame)) = bhserve::frame::read_frame(&mut reader) {
                total += frame.len();
            }
            total
        });
        self.put("bhserve.frame_mb_per_s", frames as f64 / seconds);
    }

    /// `bh`: same-host A-B pairs at plummer n = 8192 on `cache-local-tree`,
    /// the sides run alternately seconds apart.  Each ratio is first side
    /// over second, on both clocks.
    fn pairs(&mut self) {
        const REPS: usize = 3;
        let n = 8192 / self.shrink;
        let base = SimSpec::paper(n, "cache-local-tree");
        let long = SimSpec { steps: 8, measured: 6, ..base.clone() };
        // (first side, second side, shadow cache on the first side)
        let sides: [(SimSpec, SimSpec, bool); 4] = [
            (SimSpec { walk: "group", ..base.clone() }, base.clone(), false),
            (SimSpec { build: "sorted", ..base.clone() }, base.clone(), false),
            (SimSpec { reuse: Some((8, 0.25)), ..long.clone() }, long, false),
            (base.clone(), base.clone(), true),
        ];
        let seed = derive_seed(self.seed, &[8192]);
        let bodies = self.bodies("plummer", 8192);
        let layers = self.layers;
        for (pair, (first, second, shadow)) in PAIRS.iter().zip(&sides) {
            let time = |spec: &SimSpec, shadow: bool| -> Result<(f64, f64), String> {
                let mut cfg = layers.config(spec, seed)?;
                cfg.shadow_cache = shadow;
                let upc = layers.backend("upc")?;
                upc.supports(&cfg)?;
                let start = Instant::now();
                let result = upc.run(&cfg, bodies.clone());
                Ok((start.elapsed().as_secs_f64(), result.total))
            };
            let mut ratios = (Vec::new(), Vec::new());
            for rep in 0..REPS {
                // Alternate which side goes first.
                let order = if rep % 2 == 0 { [true, false] } else { [false, true] };
                let mut a = None;
                let mut b = None;
                for is_first in order {
                    let spec = if is_first { first } else { second };
                    match time(spec, *shadow && is_first) {
                        Ok(t) if is_first => a = Some(t),
                        Ok(t) => b = Some(t),
                        Err(e) => self.tally.fail(e),
                    }
                }
                if let (Some(a), Some(b)) = (a, b) {
                    ratios.0.push(a.0 / b.0);
                    ratios.1.push(a.1 / b.1);
                }
            }
            if !ratios.0.is_empty() {
                self.put(&format!("bh.pair.{pair}.host"), stats::median(&ratios.0));
                self.put(&format!("bh.pair.{pair}.sim"), stats::median(&ratios.1));
            }
        }
    }
}

/// Runs every probe once.
pub fn run(layers: &Layers, seed: u64, quick: bool) -> (Values, Tally) {
    let mut probe = Probe {
        layers,
        seed,
        shrink: if quick { 8 } else { 1 },
        values: Values::new(),
        tally: Tally::default(),
    };
    probe.pgas();
    probe.nbody();
    probe.octree();
    probe.scenarios();
    probe.engine();
    probe.bhmpi();
    probe.snapstore();
    probe.bhserve();
    probe.pairs();
    (probe.values, probe.tally)
}

//! The serializable simulation state and the capture/resume machinery
//! around it.
//!
//! [`SimState`] owns everything a bit-exact resume needs: the run's
//! identity (scenario, backend, full [`SimConfig`]), the step counter, the
//! tree generation, and *two* body sets — the current bodies and the
//! **anchor** bodies, the state that entered the last full tree rebuild.
//! Under a persistent [`engine::TreePolicy`] the reused tree's structure is
//! a function of the body history since that rebuild, so resuming from the
//! current bodies alone would hand the solver a freshly rebuilt tree where
//! the uninterrupted run had an incrementally updated one, silently
//! shifting the rebuild cadence and breaking bit-equality.  Resume instead
//! replays from the anchor: the first replayed step rebuilds from scratch
//! exactly as the uninterrupted run's anchor step did (rebuilt trees are a
//! pure function of the bodies entering the step), so the replay reproduces
//! the interrupted trajectory bit for bit — and verifies that claim against
//! the checkpoint's stored current bodies before continuing.

use std::time::{Duration, Instant};

use engine::snap::{
    bodies_bits_equal, hex_string, parse_hex_u32, parse_hex_u64, push_hex_u32, push_hex_u64,
    StepRecord,
};
use engine::{Backend, SimConfig, SimResult};
use nbody::Body;

use crate::store::CHUNK_BODIES;

/// Everything a resume needs, in one serializable value.
///
/// Invariants: `bodies` is the state after `step` completed time steps,
/// sorted by id; `anchor` is the state after `anchor_step` completed steps
/// (`anchor_step <= step`, equal exactly when the configuration keeps no
/// cross-step tree state — then `anchor` and `bodies` are the same bodies
/// and their chunks share storage by content addressing).
#[derive(Debug, Clone)]
pub struct SimState {
    /// Workload family name (`scenarios` registry key).
    pub scenario: String,
    /// Solver name (`engine::BackendRegistry` key).
    pub backend: String,
    /// The full configuration of the (whole) run, including `steps` — the
    /// total the run is heading for, not the portion already executed.
    pub cfg: SimConfig,
    /// Completed time steps (`bodies` is the state after this many steps).
    pub step: usize,
    /// The step a bit-exact resume replays from (the last full rebuild).
    pub anchor_step: usize,
    /// Tree generation at capture (0 when the solver keeps no persistent
    /// tree); diagnostic, surfaced by `snapdiff`.
    pub tree_generation: u64,
    /// Body states after `step` steps, sorted by id.
    pub bodies: Vec<Body>,
    /// Body states after `anchor_step` steps, sorted by id.
    pub anchor: Vec<Body>,
}

impl SimState {
    /// Steps of rebuild cadence already consumed at capture — the phase the
    /// ISSUE's regression test guards: dropping it (resuming from `bodies`
    /// with a fresh tree) silently shifts every later rebuild.
    pub fn steps_since_rebuild(&self) -> usize {
        self.step - self.anchor_step
    }

    /// `true` when the run this state was captured from has already
    /// executed all its configured steps.
    pub fn complete(&self) -> bool {
        self.step >= self.cfg.steps
    }
}

/// Folds the per-step [`StepRecord`] stream of a tracked run into
/// [`SimState`] values.
///
/// The recorder keeps the one piece of history a record alone cannot
/// provide: the anchor bodies.  A record says *where* the anchor is
/// (`anchor_step`); the bodies that entered that step were the *previous*
/// record's bodies, which the recorder retains across observations.
pub struct Recorder {
    scenario: String,
    backend: String,
    cfg: SimConfig,
    /// Absolute step offset: 0 for a from-scratch run, `anchor_step` of the
    /// checkpoint when replaying a resumed run (whose records count from 0).
    base: usize,
    /// Bodies entering the next observed step (S_t for the upcoming record
    /// of step t).
    prev: Vec<Body>,
    anchor: Vec<Body>,
    anchor_step: usize,
}

impl Recorder {
    /// A recorder for a run starting from `initial` bodies at absolute step
    /// `base` (0 unless replaying a resume).
    pub fn new(
        scenario: &str,
        backend: &str,
        cfg: &SimConfig,
        initial: Vec<Body>,
        base: usize,
    ) -> Recorder {
        Recorder {
            scenario: scenario.to_string(),
            backend: backend.to_string(),
            cfg: cfg.clone(),
            base,
            prev: initial.clone(),
            anchor: initial,
            anchor_step: base,
        }
    }

    /// Folds one observation into the running anchor state and returns the
    /// complete resumable state after that step.
    pub fn observe(&mut self, record: &StepRecord) -> SimState {
        let abs_step = self.base + record.step;
        let abs_anchor = self.base + record.anchor_step;
        if abs_anchor == abs_step {
            // A full rebuild ran during this step: the anchor bodies are
            // the ones that entered it.
            self.anchor = std::mem::replace(&mut self.prev, record.bodies.clone());
            self.anchor_step = abs_anchor;
        } else if abs_anchor == abs_step + 1 {
            // No cross-step tree state: resume restarts from the current
            // bodies directly.
            self.anchor = record.bodies.clone();
            self.anchor_step = abs_anchor;
            self.prev = record.bodies.clone();
        } else {
            debug_assert!(
                abs_anchor == self.anchor_step,
                "anchor moved without a rebuild observation ({} -> {abs_anchor})",
                self.anchor_step
            );
            self.prev = record.bodies.clone();
        }
        SimState {
            scenario: self.scenario.clone(),
            backend: self.backend.clone(),
            cfg: self.cfg.clone(),
            step: abs_step + 1,
            anchor_step: self.anchor_step,
            tree_generation: record.tree_generation,
            bodies: record.bodies.clone(),
            anchor: self.anchor.clone(),
        }
    }
}

/// Resumes an interrupted run from `state`, replaying from the anchor and
/// verifying the replay against the checkpoint before continuing to the
/// configured total `state.cfg.steps`.
///
/// `on_state` fires with the resumable state after every step *beyond* the
/// checkpoint (absolute step numbering), so callers can keep checkpointing
/// the continued run.  Returns the tail run's [`SimResult`] — its phase
/// tables cover the trailing measured window exactly as the uninterrupted
/// run's would (the window depends only on work done, which replays
/// identically), and its bodies are the final state of the whole run.
///
/// Fails when the backend refuses the configuration or the bodies, when
/// the run is already complete, or — the load-bearing check — when the
/// replayed trajectory diverges from the checkpoint's stored bodies, which
/// means the store and the solver disagree and continuing would corrupt
/// the run.
pub fn resume(
    state: &SimState,
    backend: &dyn Backend,
    mut on_state: impl FnMut(SimState) + Send,
) -> Result<SimResult, String> {
    if state.complete() {
        return Err(format!(
            "checkpoint is already complete ({} of {} steps executed)",
            state.step, state.cfg.steps
        ));
    }
    let mut cfg_tail = state.cfg.clone();
    cfg_tail.steps = state.cfg.steps - state.anchor_step;
    cfg_tail.measured_steps = state.cfg.measured_steps.min(cfg_tail.steps);

    let mut recorder = Recorder::new(
        &state.scenario,
        &state.backend,
        &state.cfg,
        state.anchor.clone(),
        state.anchor_step,
    );
    let mut replay_error: Option<String> = None;
    let mut observer = |record: StepRecord| {
        let observed = recorder.observe(&record);
        if observed.step == state.step
            && !bodies_bits_equal(&observed.bodies, &state.bodies)
            && replay_error.is_none()
        {
            replay_error = Some(format!(
                "replay diverged from the checkpoint at step {}: the replayed bodies are not \
                 bit-identical to the stored ones (store and solver disagree)",
                state.step
            ));
        }
        if observed.step > state.step {
            on_state(observed);
        }
    };
    let result = backend.run_tracked(&cfg_tail, state.anchor.clone(), &mut observer)?;
    if let Some(e) = replay_error {
        return Err(e);
    }
    Ok(result)
}

/// Bit-exact hex encoding of one `f64` (16 lowercase hex digits of its IEEE
/// bits) — the same encoding the `bhserve` wire protocol uses for bodies.
/// One value, one `String`; bulk encoders call [`engine::snap::push_hex_u64`]
/// on a buffer of their own.
pub fn hex_f64(v: f64) -> String {
    hex_string(&v.to_bits().to_be_bytes())
}

/// Decodes [`hex_f64`]: exactly 16 hex digits (either case), nothing else —
/// no sign, which `u64::from_str_radix` would take.
pub fn unhex_f64(text: &str) -> Option<f64> {
    parse_hex_u64(text.as_bytes()).map(f64::from_bits)
}

/// Bit-exact hex encoding of one `u32` (8 lowercase hex digits).
pub fn hex_u32(v: u32) -> String {
    hex_string(&v.to_be_bytes())
}

/// Decodes [`hex_u32`]: exactly 8 hex digits (either case), nothing else.
pub fn unhex_u32(text: &str) -> Option<u32> {
    parse_hex_u32(text.as_bytes())
}

/// Host time a [`crate::Store::save`] spent turning values into hex text
/// and hashing that text — measured around the calls, one clock read per
/// [`crate::CHUNK_BODIES`] bodies.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CpuTime {
    pub encode: Duration,
    pub hash: Duration,
}

impl CpuTime {
    /// SHA-256 of `data` as 64 hex digits, on the hash clock.
    pub fn hex_digest(&mut self, data: &[u8]) -> String {
        let begin = Instant::now();
        let hash = crate::sha256::hex_digest(data);
        self.hash += begin.elapsed();
        hash
    }
}

/// Canonical digest of a body set: SHA-256 over the bit-exact hex encoding
/// of every field of every body, in id order.  Two body sets digest equal
/// iff [`bodies_bits_equal`] holds, so drivers can compare end states
/// across process boundaries (the CI checkpoint smoke compares the resumed
/// run's digest against the uninterrupted run's).
pub fn digest_bodies(bodies: &[Body]) -> String {
    digest_bodies_timed(bodies, &mut CpuTime::default())
}

/// [`digest_bodies`] with its encode and hash time added to `cpu`.
pub(crate) fn digest_bodies_timed(bodies: &[Body], cpu: &mut CpuTime) -> String {
    let mut hasher = crate::sha256::Sha256::new();
    // One line per body: 13 fields, space-separated.  The buffer holds one
    // run of lines and is reused for the next.
    let mut lines = Vec::with_capacity(CHUNK_BODIES * 200);
    for run in bodies.chunks(CHUNK_BODIES) {
        let begin = Instant::now();
        lines.clear();
        for b in run {
            push_hex_u32(&mut lines, b.id);
            lines.push(b' ');
            push_hex_u32(&mut lines, b.cost);
            let (pos, vel, acc) = (b.pos, b.vel, b.acc);
            for v in [b.mass, b.phi, pos.x, pos.y, pos.z, vel.x, vel.y, vel.z, acc.x, acc.y, acc.z]
            {
                lines.push(b' ');
                push_hex_u64(&mut lines, v.to_bits());
            }
            lines.push(b'\n');
        }
        let encoded = Instant::now();
        hasher.update(&lines);
        cpu.encode += encoded - begin;
        cpu.hash += encoded.elapsed();
    }
    hex_string(&hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::Vec3;

    fn body(id: u32, x: f64) -> Body {
        Body::at_rest(id, Vec3::new(x, 0.0, 0.0), 1.0)
    }

    #[test]
    fn hex_roundtrips_are_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, -3.25e300, f64::NAN] {
            let decoded = unhex_f64(&hex_f64(v)).expect("roundtrip");
            assert_eq!(decoded.to_bits(), v.to_bits());
        }
        assert_eq!(unhex_u32(&hex_u32(u32::MAX)), Some(u32::MAX));
        assert_eq!(unhex_f64("abc"), None);
        assert_eq!(unhex_u32("zzzzzzzz"), None);
    }

    #[test]
    fn decoders_refuse_what_from_str_radix_let_through() {
        assert_eq!(unhex_f64("+fffffffffffffff"), None, "a sign is not a hex digit");
        assert_eq!(unhex_f64("-fffffffffffffff"), None);
        assert_eq!(unhex_u32("+fffffff"), None);
        assert_eq!(unhex_f64("3FF8000000000000"), Some(1.5), "either case decodes");
    }

    #[test]
    fn digest_is_the_sha256_of_the_documented_lines() {
        // The encoding as the `format!`-per-field version wrote it.
        let reference = |bodies: &[Body]| {
            let mut text = String::new();
            for b in bodies {
                text.push_str(&format!("{:08x} {:08x}", b.id, b.cost));
                for v in [b.mass, b.phi] {
                    text.push_str(&format!(" {:016x}", v.to_bits()));
                }
                for v in [b.pos, b.vel, b.acc] {
                    let (x, y, z) = (v.x.to_bits(), v.y.to_bits(), v.z.to_bits());
                    text.push_str(&format!(" {x:016x} {y:016x} {z:016x}"));
                }
                text.push('\n');
            }
            crate::sha256::hex_digest(text.as_bytes())
        };
        let mut bodies = vec![body(7, 1.0), body(9, -2.5)];
        bodies[0].cost = 3;
        bodies[1].vel = Vec3::new(0.5, -0.0, f64::MIN_POSITIVE);
        bodies[1].acc = Vec3::new(1e300, 2.0, -3.0);
        bodies[1].phi = -0.125;
        assert_eq!(digest_bodies(&bodies), reference(&bodies));
        // More bodies than one encode run holds: runs only batch the lines.
        let many: Vec<Body> = (0..CHUNK_BODIES as u32 + 3).map(|i| body(i, i as f64)).collect();
        assert_eq!(digest_bodies(&many), reference(&many));
        assert_eq!(digest_bodies(&[]), crate::sha256::hex_digest(b""));
    }

    #[test]
    fn digest_tracks_bit_equality() {
        let a = vec![body(0, 1.0), body(1, 2.0)];
        let mut b = a.clone();
        assert_eq!(digest_bodies(&a), digest_bodies(&b));
        b[1].vel.y = f64::from_bits(1);
        assert_ne!(digest_bodies(&a), digest_bodies(&b));
    }

    #[test]
    fn recorder_tracks_the_anchor_through_rebuilds() {
        let cfg = SimConfig::test(2, 1, engine::OptLevel::CacheLocalTree);
        let s0 = vec![body(0, 0.0), body(1, 1.0)];
        let s1 = vec![body(0, 0.1), body(1, 1.1)];
        let s2 = vec![body(0, 0.2), body(1, 1.2)];
        let s3 = vec![body(0, 0.3), body(1, 1.3)];
        let mut rec = Recorder::new("plummer", "upc", &cfg, s0.clone(), 0);

        // Step 0 rebuilds (anchor_step == step): anchor is the initial set.
        let st = rec.observe(&StepRecord {
            step: 0,
            anchor_step: 0,
            tree_generation: 1,
            bodies: s1.clone(),
        });
        assert_eq!((st.step, st.anchor_step), (1, 0));
        assert!(bodies_bits_equal(&st.anchor, &s0));

        // Step 1 reuses the tree: anchor unchanged.
        let st = rec.observe(&StepRecord {
            step: 1,
            anchor_step: 0,
            tree_generation: 1,
            bodies: s2.clone(),
        });
        assert_eq!((st.step, st.anchor_step), (2, 0));
        assert_eq!(st.steps_since_rebuild(), 2);
        assert!(bodies_bits_equal(&st.anchor, &s0));
        assert!(bodies_bits_equal(&st.bodies, &s2));

        // Step 2 rebuilds: the anchor becomes the bodies that entered it.
        let st = rec.observe(&StepRecord {
            step: 2,
            anchor_step: 2,
            tree_generation: 2,
            bodies: s3.clone(),
        });
        assert_eq!((st.step, st.anchor_step), (3, 2));
        assert!(bodies_bits_equal(&st.anchor, &s2));
    }

    #[test]
    fn recorder_handles_stateless_configurations() {
        let cfg = SimConfig::test(1, 1, engine::OptLevel::Subspace);
        let s0 = vec![body(0, 0.0)];
        let s1 = vec![body(0, 0.5)];
        let mut rec = Recorder::new("plummer", "upc", &cfg, s0, 0);
        // anchor_step == step + 1 marks "resume from current directly".
        let st = rec.observe(&StepRecord {
            step: 0,
            anchor_step: 1,
            tree_generation: 0,
            bodies: s1.clone(),
        });
        assert_eq!((st.step, st.anchor_step), (1, 1));
        assert_eq!(st.steps_since_rebuild(), 0);
        assert!(bodies_bits_equal(&st.anchor, &s1));
    }
}

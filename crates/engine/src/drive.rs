//! The one step driver every backend runs through.
//!
//! The paper's protocol is the same for every solver: run `cfg.steps` time
//! steps, time the trailing `cfg.measured_steps`, report per-phase maxima
//! over ranks and the final bodies in id order.  [`drive`] owns it once,
//! with the `engine.step` fault site and the per-step observer checkpoints
//! hang off, so every backend checkpoints, resumes and recovers alike.  A
//! backend supplies only what differs, as a [`Solver`].

use crate::caps::Caps;
use crate::config::SimConfig;
use crate::fault::STEP_FAULT;
use crate::report::{measurement_begins, RankOutcome, SimResult};
use crate::snap::StepRecord;
use nbody::Body;
use pgas::{Ctx, Runtime};
use std::sync::Mutex;

/// The fault site consulted before every step.
const STEP_SITE: &str = "engine.step";

/// What a tracked run calls after every completed step.
pub type Observer<'a> = &'a mut (dyn FnMut(StepRecord) + Send);

/// One backend's solver for one run: the state every rank shares, built
/// from the initial bodies, plus the per-rank hooks [`drive`] calls.
pub trait Solver: Sync + Sized {
    /// One rank's private state.
    type Rank;

    /// The run's shared state over the checked initial bodies (`cfg.nbodies`
    /// of them, ids `0..n` in order).
    fn new(cfg: &SimConfig, bodies: Vec<Body>) -> Self;

    /// Rank `ctx.rank()`'s state before the first step.
    fn start(&self, ctx: &Ctx, cfg: &SimConfig) -> Self::Rank;

    /// Runs time step `step` on this rank.  Every rank has passed a barrier
    /// by the time it returns, so the bodies are the between-steps state.
    fn step(&self, ctx: &Ctx, cfg: &SimConfig, rank: &mut Self::Rank, step: usize);

    /// Zeroes the rank's accumulators: the measured window begins.
    fn reset_window(&self, rank: &mut Self::Rank);

    /// The rank's report over the measured window; the driver fills in its
    /// [`RankOutcome::stats`].
    fn outcome(&self, rank: &Self::Rank) -> RankOutcome;

    /// This rank's share of the between-steps bodies, unbilled.  The shares
    /// of all ranks hold every body exactly once, in any order.
    fn bodies(&self, ctx: &Ctx, rank: &Self::Rank) -> Vec<Body>;

    /// The record's `(anchor_step, tree_generation)` after `step`: where a
    /// bit-exact resume replays from ([`StepRecord`]).  A solver that keeps
    /// nothing across steps resumes from the current bodies.
    fn anchor(&self, _rank: &Self::Rank, step: usize) -> (usize, u64) {
        (step + 1, 0)
    }

    /// Sets the result fields only this solver knows.
    fn finish(&self, _cfg: &SimConfig, _result: &mut SimResult) {}
}

/// Runs `cfg` over `bodies` with solver `S`, calling `observer` (when
/// given) after every completed step with all ranks quiesced: host barriers
/// around it, off the simulated clock and outside every phase timer, so the
/// observer's time is billed to no phase and a tracked run matches an
/// untracked one bit for bit, `total_sim` and every counter included.
///
/// Fails before any work when `caps` rejects `cfg` or the bodies are not
/// `cfg.nbodies` bodies with ids `0..n` in order; fails after the steps
/// before it when an `engine.step` fault is pending in `cfg.faults` (the
/// error carries [`STEP_FAULT`], and the fault is consumed so a
/// supervisor's replay passes the step).
pub fn drive<S: Solver>(
    caps: Caps,
    cfg: &SimConfig,
    bodies: Vec<Body>,
    observer: Option<Observer>,
) -> Result<SimResult, String> {
    caps.check(cfg)?;
    check_bodies(cfg, &bodies)?;
    let solver = S::new(cfg, bodies);
    let step_faults = cfg.faults.targets(STEP_SITE);
    let observer = observer.map(Mutex::new);
    // Each rank's hand-over of the observed bodies.
    let board: Vec<Mutex<Vec<Body>>> = (0..cfg.ranks()).map(|_| Mutex::default()).collect();

    let report = Runtime::new(cfg.machine.clone()).run(|ctx| {
        let mut rank = solver.start(ctx, cfg);
        for step in 0..cfg.steps {
            if step_faults && cfg.faults.step_fault_pending(STEP_SITE, step) {
                // A pure read: every rank breaks at the same step, so no
                // barrier is left hanging.  The trigger is consumed below,
                // once, after every rank has returned.
                break;
            }
            if measurement_begins(cfg, step) {
                solver.reset_window(&mut rank);
            }
            solver.step(ctx, cfg, &mut rank, step);
            if let Some(observer) = &observer {
                *board[ctx.rank()].lock().expect("hand-over board poisoned") =
                    solver.bodies(ctx, &rank);
                ctx.host_barrier();
                if ctx.rank() == 0 {
                    let (anchor_step, tree_generation) = solver.anchor(&rank, step);
                    let shares = board.iter().map(|slot| {
                        std::mem::take(&mut *slot.lock().expect("hand-over board poisoned"))
                    });
                    let bodies = gather(shares);
                    let record = StepRecord { step, anchor_step, tree_generation, bodies };
                    (observer.lock().expect("step observer poisoned"))(record);
                }
                // No rank opens the next step's phase timers while the
                // observer (checkpoint I/O, say) still runs.
                ctx.host_barrier();
            }
        }
        (solver.outcome(&rank), solver.bodies(ctx, &rank))
    });

    if step_faults {
        // The predicate is pure, so the first pending step is the one every
        // rank broke at.  Consuming it marks it spent in the plan's shared
        // state, so the supervisor's checkpoint-restore replay runs clean.
        if let Some(step) = (0..cfg.steps).find(|&s| cfg.faults.step_fault_pending(STEP_SITE, s)) {
            cfg.faults.consume_step(STEP_SITE, step);
            return Err(format!(
                "{STEP_FAULT}: injected fault at step {step} (site {STEP_SITE}); the run \
                 aborted before the step executed and is retryable from the last checkpoint"
            ));
        }
    }

    let mut ranks = Vec::with_capacity(report.ranks.len());
    let mut shares = Vec::with_capacity(report.ranks.len());
    for r in report.ranks {
        let (mut outcome, share) = r.result;
        outcome.stats = r.stats;
        ranks.push(outcome);
        shares.push(share);
    }
    let mut result = SimResult::aggregate(cfg, ranks, gather(shares));
    solver.finish(cfg, &mut result);
    Ok(result)
}

/// Rank `ctx.rank()`'s block of the id-ordered bodies: the block-by-id
/// split the upc body table is distributed by, so every backend starts from
/// the same ownership.
pub fn initial_block<'a>(ctx: &Ctx, bodies: &'a [Body]) -> &'a [Body] {
    let per = bodies.len().div_ceil(ctx.ranks()).max(1);
    let start = (ctx.rank() * per).min(bodies.len());
    &bodies[start..(start + per).min(bodies.len())]
}

/// Every rank's share of the bodies, in one id-ordered set.
fn gather(shares: impl IntoIterator<Item = Vec<Body>>) -> Vec<Body> {
    let mut bodies: Vec<Body> = shares.into_iter().flatten().collect();
    bodies.sort_unstable_by_key(|b| b.id);
    bodies
}

/// The body convention every solver indexes by: `cfg.nbodies` bodies with
/// ids `0..n` in order (a violation would be silently wrong physics).
fn check_bodies(cfg: &SimConfig, bodies: &[Body]) -> Result<(), String> {
    if bodies.len() != cfg.nbodies {
        return Err(format!(
            "initial conditions must match cfg.nbodies: got {} bodies for nbodies = {}",
            bodies.len(),
            cfg.nbodies
        ));
    }
    match bodies.iter().enumerate().find(|&(i, b)| b.id as usize != i) {
        Some((i, b)) => Err(format!(
            "initial conditions must carry ids 0..nbodies in order: body {i} has id {}",
            b.id
        )),
        None => Ok(()),
    }
}

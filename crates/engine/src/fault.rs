//! The **faultline** plane: deterministic, seeded fault injection.
//!
//! Robustness claims are only as good as the failures they were tested
//! against, and ad-hoc chaos (random `kill -9`, loose timing races) makes
//! failing runs unreproducible.  This module gives every layer one shared,
//! *deterministic* fault vocabulary: a [`FaultPlan`] is a seed plus a list
//! of site-keyed triggers, carried on `SimConfig`/`ServerOptions` and
//! consulted at explicit injection points — snapstore I/O (torn chunk
//! writes, injected `ENOSPC`/`EIO`, truncated manifests, bit-flipped
//! reads), bhserve framing (short reads, mid-frame disconnects, stalled
//! writes), and engine step execution (a retryable step fault).
//!
//! Because every trigger is a pure function of `(seed, site, counter)`,
//! a failing chaos run replays exactly from its command line — the same
//! property the simulation itself has.
//!
//! # Spec syntax
//!
//! A plan parses from a comma-separated spec
//! (`bhsim --faults`, `bhserve --faults`, `bhload --chaos-faults`):
//!
//! ```text
//! seed=42,engine.step@n3,frame.read.short@p0.05,snap.chunk.torn@s2..4
//! ```
//!
//! * `seed=N` — the stream seed (default 0; the seed entry may appear
//!   anywhere in the list).
//! * `SITE@nK` — fire on occurrence `K` exactly once: the `K`-th call
//!   (1-based) for call-keyed sites, step `K` (0-based) for step-keyed
//!   sites.
//! * `SITE@pF` — fire with probability `F` per occurrence, drawn from a
//!   splitmix64 stream seeded by `(seed, site, occurrence)`.
//! * `SITE@sL..H` — fire once at the first occurrence in `[L, H)`.
//!
//! # Site vocabulary
//!
//! | site                    | layer     | effect at the injection point    |
//! |-------------------------|-----------|----------------------------------|
//! | `engine.step`           | engine    | step aborts with a retryable [`STEP_FAULT`] error (every backend) |
//! | `snap.chunk.torn`       | snapstore | chunk written truncated (torn write) |
//! | `snap.chunk.io`         | snapstore | chunk write fails with injected `ENOSPC`/`EIO` |
//! | `snap.chunk.bitflip`    | snapstore | chunk payload bit-flipped on read |
//! | `snap.manifest.torn`    | snapstore | manifest written truncated       |
//! | `frame.read.short`      | bhserve   | reads degraded to 1 byte per call |
//! | `frame.read.disconnect` | bhserve   | connection dropped mid-frame      |
//! | `frame.write.disconnect`| bhserve   | write fails mid-frame             |
//!
//! # Call-keyed vs step-keyed sites
//!
//! I/O and framing sites are *call-keyed*: each [`FaultPlan::fires`] call
//! advances the site's occurrence counter (shared across clones of the
//! plan, so a retry does not restart the schedule).  The engine step site
//! is *step-keyed*: on every rank the step driver ([`crate::drive`]) asks
//! [`FaultPlan::step_fault_pending`] — a **pure** read, safe to evaluate on
//! every emulated rank without desynchronizing them — and, after the
//! aborted run returns, marks the fault consumed with
//! [`FaultPlan::consume_step`], so the checkpoint-restore replay does not
//! re-fire it.
//!
//! An empty (default) plan is guaranteed inert: every check short-circuits
//! before touching the shared state, so fault-free runs are bit-for-bit
//! unchanged.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize, Value};

/// Marker embedded in the error string of an injected step fault, used by
/// supervisors to classify the failure as retryable.
pub const STEP_FAULT: &str = "STEP_FAULT";

/// When a fault at a site fires.
#[derive(Debug, Clone, PartialEq)]
enum Trigger {
    /// Fire on occurrence `K` exactly once (1-based calls, 0-based steps).
    Nth(u64),
    /// Fire with this probability per occurrence.
    Prob(f64),
    /// Fire once at the first occurrence in `[lo, hi)`.
    StepRange(u64, u64),
}

/// One site-keyed trigger of a plan.
#[derive(Debug, Clone, PartialEq)]
struct FaultSite {
    site: String,
    trigger: Trigger,
}

impl FaultSite {
    /// Renders the site back into spec syntax (the [`FaultPlan::spec`]
    /// round trip).
    fn spec(&self) -> String {
        match self.trigger {
            Trigger::Nth(k) => format!("{}@n{k}", self.site),
            Trigger::Prob(p) => format!("{}@p{p}", self.site),
            Trigger::StepRange(lo, hi) => format!("{}@s{lo}..{hi}", self.site),
        }
    }
}

/// Shared runtime state: occurrence counters and consumed one-shot sites.
///
/// Lives behind an `Arc` so cloning a plan (into a retried config, a
/// per-connection handle) *shares* the schedule — an `@n3` fault that fired
/// stays fired across the retry instead of re-firing forever.
#[derive(Debug, Default)]
struct FaultState {
    /// Per-site occurrence counters (call-keyed sites).
    calls: HashMap<String, u64>,
    /// One-shot triggers (`@n`, `@s`) that already fired, by site index.
    fired_sites: HashSet<usize>,
    /// Probabilistic step faults already consumed, by (site index, step).
    fired_steps: HashSet<(usize, u64)>,
}

/// A deterministic, seeded fault-injection plan.  `Default` is the empty —
/// guaranteed inert — plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of the probabilistic trigger stream.
    pub seed: u64,
    sites: Vec<FaultSite>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultPlan {
    /// Parses the comma-separated spec syntax (see the module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("fault spec: invalid seed {seed:?} (not a u64)"))?;
                continue;
            }
            let (site, trigger) = entry.split_once('@').ok_or_else(|| {
                format!("fault spec: entry {entry:?} is not SITE@TRIGGER or seed=N")
            })?;
            if site.is_empty() {
                return Err(format!("fault spec: entry {entry:?} has an empty site name"));
            }
            let trigger = match trigger.split_at_checked(1) {
                Some(("n", k)) => Trigger::Nth(k.parse().map_err(|_| {
                    format!("fault spec: {entry:?}: {k:?} is not an occurrence number")
                })?),
                Some(("p", p)) => {
                    let p: f64 = p.parse().map_err(|_| {
                        format!("fault spec: {entry:?}: {p:?} is not a probability")
                    })?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!(
                            "fault spec: {entry:?}: probability {p} is outside [0, 1]"
                        ));
                    }
                    Trigger::Prob(p)
                }
                Some(("s", range)) => {
                    let (lo, hi) = range
                        .split_once("..")
                        .ok_or_else(|| format!("fault spec: {entry:?}: range must be L..H"))?;
                    let lo: u64 = lo.parse().map_err(|_| {
                        format!("fault spec: {entry:?}: {lo:?} is not a step number")
                    })?;
                    let hi: u64 = hi.parse().map_err(|_| {
                        format!("fault spec: {entry:?}: {hi:?} is not a step number")
                    })?;
                    if lo >= hi {
                        return Err(format!("fault spec: {entry:?}: empty range {lo}..{hi}"));
                    }
                    Trigger::StepRange(lo, hi)
                }
                _ => return Err(format!("fault spec: {entry:?}: trigger must be nK, pF or sL..H")),
            };
            plan.sites.push(FaultSite { site: site.to_string(), trigger });
        }
        Ok(plan)
    }

    /// `true` when the plan injects nothing (the default).  Every check
    /// short-circuits on this, so an empty plan is exactly the pre-faultline
    /// behavior.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// `true` when any trigger targets `site` (prefix match on the site
    /// vocabulary's dotted segments, so `snap` arms every snapstore site).
    pub fn targets(&self, site: &str) -> bool {
        self.sites.iter().any(|s| site_matches(&s.site, site))
    }

    /// Call-keyed check: advances `site`'s occurrence counter and reports
    /// whether a fault fires on this occurrence.  One counter per site name,
    /// shared across all triggers naming it and across plan clones.
    pub fn fires(&self, site: &str) -> bool {
        if self.is_empty() {
            return false;
        }
        let mut state = self.state.lock().unwrap();
        let count = state.calls.entry(site.to_string()).or_insert(0);
        *count += 1;
        let occurrence = *count;
        let mut fired = false;
        for (idx, s) in self.sites.iter().enumerate() {
            if !site_matches(&s.site, site) {
                continue;
            }
            match s.trigger {
                Trigger::Nth(k) => {
                    if occurrence == k && state.fired_sites.insert(idx) {
                        fired = true;
                    }
                }
                Trigger::Prob(p) => {
                    if chance(self.seed, &s.site, occurrence) < p {
                        fired = true;
                    }
                }
                Trigger::StepRange(lo, hi) => {
                    // Occurrence counters are 1-based; ranges are written in
                    // 0-based step vocabulary, so shift.
                    if (lo..hi).contains(&(occurrence - 1)) && state.fired_sites.insert(idx) {
                        fired = true;
                    }
                }
            }
        }
        fired
    }

    /// Step-keyed check, **pure**: reports whether a fault at `site` is due
    /// at `step` without advancing any counter.  Safe to evaluate on every
    /// emulated rank — all ranks see the same answer — which is why the
    /// step driver uses this instead of [`FaultPlan::fires`].  Pair with
    /// [`FaultPlan::consume_step`] once the fault has been acted on.
    pub fn step_fault_pending(&self, site: &str, step: usize) -> bool {
        if self.is_empty() {
            return false;
        }
        let step = step as u64;
        let state = self.state.lock().unwrap();
        self.sites.iter().enumerate().any(|(idx, s)| {
            if !site_matches(&s.site, site) {
                return false;
            }
            match s.trigger {
                Trigger::Nth(k) => step == k && !state.fired_sites.contains(&idx),
                Trigger::Prob(p) => {
                    chance(self.seed, &s.site, step) < p
                        && !state.fired_steps.contains(&(idx, step))
                }
                Trigger::StepRange(lo, hi) => {
                    (lo..hi).contains(&step) && !state.fired_sites.contains(&idx)
                }
            }
        })
    }

    /// Marks every trigger matching `site` at `step` consumed, so a
    /// checkpoint-restore replay passing through the same step does not
    /// re-fire the fault.
    pub fn consume_step(&self, site: &str, step: usize) {
        if self.is_empty() {
            return;
        }
        let step = step as u64;
        let mut state = self.state.lock().unwrap();
        for (idx, s) in self.sites.iter().enumerate() {
            if !site_matches(&s.site, site) {
                continue;
            }
            match s.trigger {
                Trigger::Nth(k) if step == k => {
                    state.fired_sites.insert(idx);
                }
                Trigger::Prob(_) => {
                    state.fired_steps.insert((idx, step));
                }
                Trigger::StepRange(lo, hi) if (lo..hi).contains(&step) => {
                    state.fired_sites.insert(idx);
                }
                _ => {}
            }
        }
    }

    /// Renders the plan back into spec syntax (parse ∘ spec is identity on
    /// the trigger schedule).
    pub fn spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        parts.extend(self.sites.iter().map(FaultSite::spec));
        parts.join(",")
    }
}

/// `true` when `pattern` (a trigger's site) covers `site` (an injection
/// point): exact match or a dotted-segment prefix, so a spec can arm one
/// point (`frame.read.short`) or a whole layer (`frame.read`, `snap`).
fn site_matches(pattern: &str, site: &str) -> bool {
    site == pattern || site.strip_prefix(pattern).is_some_and(|rest| rest.starts_with('.'))
}

/// The probabilistic trigger stream: a uniform draw in `[0, 1)` that is a
/// pure function of the plan seed, the trigger's site name and the
/// occurrence index.
fn chance(seed: u64, site: &str, occurrence: u64) -> f64 {
    let x = splitmix64(seed ^ fnv1a(site.as_bytes()) ^ occurrence.wrapping_mul(0x9E37_79B9));
    // 53 mantissa bits → uniform in [0, 1).
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// splitmix64 — the standard 64-bit mixer (Steele et al.), one step.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit, for site-name → stream-lane derivation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// The vendored serde derives serialization only (`to_value`); deserialization
// is hand-walked wherever a plan crosses a boundary, and a plan is *excluded*
// from every persisted identity (snapshot manifests, bench RunSpecs) by
// construction — faults describe how a run is exercised, not what it
// computes.
impl Serialize for FaultPlan {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seed".to_string(), Value::UInt(self.seed)),
            (
                "sites".to_string(),
                Value::Array(self.sites.iter().map(|s| Value::String(s.spec())).collect()),
            ),
        ])
    }
}

impl<'de> Deserialize<'de> for FaultPlan {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.fires("engine.step"));
        assert!(!plan.step_fault_pending("engine.step", 0));
        assert!(!plan.targets("engine.step"));
        plan.consume_step("engine.step", 0); // must not panic
    }

    #[test]
    fn parse_round_trips_and_rejects_nonsense() {
        let plan =
            FaultPlan::parse("seed=42,engine.step@n3,frame.read.short@p0.25,snap.chunk.torn@s2..4")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.sites.len(), 3);
        let reparsed = FaultPlan::parse(&plan.spec()).unwrap();
        assert_eq!(reparsed.seed, plan.seed);
        assert_eq!(reparsed.sites, plan.sites);
        assert!(plan.targets("engine.step"));
        assert!(plan.targets("frame.read.short"));
        assert!(!plan.targets("frame.write.disconnect"));

        for bad in [
            "engine.step",       // no trigger
            "@n3",               // no site
            "engine.step@x9",    // unknown trigger kind
            "engine.step@n",     // missing number
            "engine.step@p1.5",  // probability out of range
            "engine.step@s4..4", // empty range
            "engine.step@s5..2", // inverted range
            "seed=minus-one",    // bad seed
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "spec {bad:?} must be rejected");
        }
        // Empty specs and stray commas are fine: an inert plan.
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ,").unwrap().is_empty());
    }

    #[test]
    fn nth_call_fires_exactly_once() {
        let plan = FaultPlan::parse("snap.chunk.io@n3").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| plan.fires("snap.chunk.io")).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn site_prefixes_arm_whole_layers() {
        let plan = FaultPlan::parse("frame.read@n1").unwrap();
        assert!(plan.targets("frame.read.short"));
        assert!(plan.fires("frame.read.disconnect"));
        // `frame.readx` is not a dotted extension of `frame.read`.
        let plan = FaultPlan::parse("frame.read@n1").unwrap();
        assert!(!plan.targets("frame.readx"));
        assert!(!plan.fires("frame.readx"));
    }

    #[test]
    fn call_range_fires_once_within_the_window() {
        let plan = FaultPlan::parse("snap.chunk.torn@s2..4").unwrap();
        // Occurrences are 1-based, ranges 0-based: the window covers the
        // 3rd and 4th calls; the first hit consumes the trigger.
        let fired: Vec<bool> = (0..6).map(|_| plan.fires("snap.chunk.torn")).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn probability_stream_is_deterministic_and_roughly_calibrated() {
        let a = FaultPlan::parse("seed=7,frame.read.short@p0.2").unwrap();
        let b = FaultPlan::parse("seed=7,frame.read.short@p0.2").unwrap();
        let fa: Vec<bool> = (0..256).map(|_| a.fires("frame.read.short")).collect();
        let fb: Vec<bool> = (0..256).map(|_| b.fires("frame.read.short")).collect();
        assert_eq!(fa, fb, "same seed, same schedule");
        let hits = fa.iter().filter(|&&f| f).count();
        assert!((20..90).contains(&hits), "p=0.2 over 256 draws fired {hits} times");
        // A different seed gives a different schedule.
        let c = FaultPlan::parse("seed=8,frame.read.short@p0.2").unwrap();
        let fc: Vec<bool> = (0..256).map(|_| c.fires("frame.read.short")).collect();
        assert_ne!(fa, fc);
    }

    #[test]
    fn step_faults_are_pure_until_consumed_and_shared_across_clones() {
        let plan = FaultPlan::parse("engine.step@n2").unwrap();
        // Pending is a pure read: asking repeatedly (as every rank does)
        // never consumes the trigger.
        for _ in 0..4 {
            assert!(plan.step_fault_pending("engine.step", 2));
        }
        assert!(!plan.step_fault_pending("engine.step", 1));
        // The retry path sees the consumption through its cloned plan.
        let retry_view = plan.clone();
        plan.consume_step("engine.step", 2);
        assert!(!retry_view.step_fault_pending("engine.step", 2));
    }

    #[test]
    fn step_range_faults_consume_whole_windows() {
        let plan = FaultPlan::parse("engine.step@s1..8").unwrap();
        assert!(plan.step_fault_pending("engine.step", 3));
        plan.consume_step("engine.step", 3);
        // One-shot: the whole window is spent, so a replay passing through
        // steps 4..8 does not fault again and the retry converges.
        for step in 0..8 {
            assert!(!plan.step_fault_pending("engine.step", step), "step {step}");
        }
    }

    #[test]
    fn plans_serialize_their_schedule() {
        let plan = FaultPlan::parse("seed=9,engine.step@n1").unwrap();
        let v = plan.to_value();
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(9));
        let sites = v.get("sites").and_then(|s| s.as_array()).unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].as_str(), Some("engine.step@n1"));
    }
}

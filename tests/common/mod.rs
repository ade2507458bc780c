//! Shared helpers for the workspace integration tests.

/// `true` when the suite runs under CI (`CI=true` or `CI=1`).
///
/// The emulator's simulated times carry a little real-scheduling noise:
/// which thread wins a lock or a merge race selects between discrete cost
/// outcomes a few percent apart, and loaded CI runners make the unlucky
/// outcomes far more likely.  The communication/work *counters*, by
/// contrast, are deterministic (identical across back-to-back runs to well
/// under a percent).  Every caller asserts its counter form in every mode and
/// skips only its timing form in CI mode (a `raced` check of
/// `bh_bench::claims`); locally both forms run, keeping the paper's timing
/// claims exercised where a human can rerun a flake.
pub fn deterministic_counters_mode() -> bool {
    std::env::var("CI").map(|v| v == "true" || v == "1").unwrap_or(false)
}

//! Per-tenant accounting in deterministic cost counters.
//!
//! Wall-clock is a hopeless quota denomination for a simulation service —
//! the same job costs different milliseconds on a loaded box — so tenants
//! are charged in the engine's *deterministic* counters instead:
//! interactions (the dominant cost driver, what the paper's own cost model
//! charges bodies by) and tree operations.  The ledger total for a set of
//! jobs therefore equals the sum of the same jobs run standalone, bit for
//! bit — concurrent requests included; the integration suite pins this.
//!
//! Quotas are **post-paid**: a request is admitted while the tenant's spent
//! interactions are below the limit and charged its actual cost afterwards,
//! so a tenant can overshoot by at most one job.  Pre-charging would need a
//! cost *prediction*, which for Barnes-Hut depends on the evolving body
//! distribution; the overshoot is bounded and the ledger stays exact.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::proto::{Reject, E_QUOTA_EXCEEDED};
use serde::Value;

/// What one tenant has spent so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Body-body and body-cell interactions across all charged work.
    pub interactions: u64,
    /// Tree operations (inserts, merges, refreshes) across all charged work.
    pub tree_ops: u64,
    /// Number of charged engine runs (session steps count per chunk).
    pub runs: u64,
}

/// The quota ledger shared by every connection.
pub struct QuotaBook {
    /// Limit applied to tenants without an override, in interactions.
    /// `None` means unmetered.
    default_limit: Option<u64>,
    /// Per-tenant limit overrides, in interactions.
    overrides: HashMap<String, u64>,
    ledgers: Mutex<HashMap<String, Usage>>,
}

impl QuotaBook {
    /// A ledger with the given default limit and per-tenant overrides.
    pub fn new(default_limit: Option<u64>, overrides: Vec<(String, u64)>) -> QuotaBook {
        QuotaBook {
            default_limit,
            overrides: overrides.into_iter().collect(),
            ledgers: Mutex::new(HashMap::new()),
        }
    }

    /// The interaction limit that applies to `tenant`.
    pub fn limit(&self, tenant: &str) -> Option<u64> {
        self.overrides.get(tenant).copied().or(self.default_limit)
    }

    /// Admission check: rejects with [`E_QUOTA_EXCEEDED`] when the tenant
    /// has already spent its interaction quota.  The rejection carries the
    /// counter name, current usage and limit so clients can act on it
    /// without parsing prose.
    pub fn admit(&self, tenant: &str) -> Result<(), Reject> {
        let Some(limit) = self.limit(tenant) else { return Ok(()) };
        let used = self.usage(tenant).interactions;
        if used >= limit {
            let mut reject = Reject::new(
                E_QUOTA_EXCEEDED,
                format!(
                    "tenant {tenant:?} has spent {used} of {limit} quota interactions; \
                     further work is refused until the quota is raised"
                ),
            );
            reject.extra = vec![
                ("counter".to_string(), Value::String("interactions".to_string())),
                ("used".to_string(), Value::UInt(used)),
                ("limit".to_string(), Value::UInt(limit)),
            ];
            return Err(reject);
        }
        Ok(())
    }

    /// Charges one run's deterministic counters to `tenant`.
    pub fn charge(&self, tenant: &str, stats: &pgas::RankStats) {
        let mut ledgers = self.ledgers.lock().unwrap();
        let usage = ledgers.entry(tenant.to_string()).or_default();
        usage.interactions += stats.interactions;
        usage.tree_ops += stats.tree_ops;
        usage.runs += 1;
    }

    /// The tenant's current spend (zero if never charged).
    pub fn usage(&self, tenant: &str) -> Usage {
        self.ledgers.lock().unwrap().get(tenant).copied().unwrap_or_default()
    }

    /// Every tenant that has been charged, sorted by name — the server's
    /// shutdown accounting summary.
    pub fn all(&self) -> Vec<(String, Usage)> {
        let mut rows: Vec<(String, Usage)> =
            self.ledgers.lock().unwrap().iter().map(|(t, u)| (t.clone(), *u)).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(interactions: u64, tree_ops: u64) -> pgas::RankStats {
        pgas::RankStats { interactions, tree_ops, ..Default::default() }
    }

    #[test]
    fn ledger_is_additive_and_per_tenant() {
        let book = QuotaBook::new(None, Vec::new());
        book.charge("a", &stats(100, 7));
        book.charge("a", &stats(50, 3));
        book.charge("b", &stats(1, 1));
        assert_eq!(book.usage("a"), Usage { interactions: 150, tree_ops: 10, runs: 2 });
        assert_eq!(book.usage("b"), Usage { interactions: 1, tree_ops: 1, runs: 1 });
        assert_eq!(book.usage("nobody"), Usage::default());
        let all = book.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "a");
    }

    #[test]
    fn quotas_are_post_paid_with_bounded_overshoot() {
        let book = QuotaBook::new(Some(100), Vec::new());
        assert!(book.admit("t").is_ok());
        // A job that overshoots is still charged in full...
        book.charge("t", &stats(150, 0));
        // ...and the next admission is refused with the structured fields.
        let reject = book.admit("t").unwrap_err();
        assert_eq!(reject.code, E_QUOTA_EXCEEDED);
        let v = reject.to_value();
        assert_eq!(v.get("used").unwrap().as_u64(), Some(150));
        assert_eq!(v.get("limit").unwrap().as_u64(), Some(100));
        assert_eq!(v.get("counter").unwrap().as_str(), Some("interactions"));
    }

    #[test]
    fn overrides_beat_the_default_limit() {
        let book = QuotaBook::new(Some(1000), vec![("freeloader".to_string(), 10)]);
        assert_eq!(book.limit("freeloader"), Some(10));
        assert_eq!(book.limit("anyone-else"), Some(1000));
        book.charge("freeloader", &stats(10, 0));
        assert!(book.admit("freeloader").is_err());
        assert!(book.admit("anyone-else").is_ok());
        let unmetered = QuotaBook::new(None, Vec::new());
        assert_eq!(unmetered.limit("x"), None);
        unmetered.charge("x", &stats(u64::MAX / 2, 0));
        assert!(unmetered.admit("x").is_ok(), "no limit means no refusal");
    }
}

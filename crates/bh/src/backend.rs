//! The UPC-emulated solver as an [`engine`] backend.

use crate::cellstore::COMPACT_MAX_RANKS;
use crate::config::{OptLevel, SimConfig};
use crate::sim::run_simulation_on;
use engine::{Backend, Caps, Reasons, Rungs, SimResult};
use nbody::Body;

/// The UPC ladder solver (registry key `upc`).
///
/// Honours `cfg.opt`, so a single backend covers all seven ladder levels —
/// `bhsim --backend upc --opt baseline` and `--opt subspace` run the §4
/// literal translation and the §6 subspace algorithm through the same entry
/// point.  Which other axes run on which rung is its [`CAPS`] row.
pub struct UpcBackend;

/// The upc capability row.  The group walk builds its lists over the §5.3
/// cell cache; the sorted build routes bodies over the §5.2 redistribution
/// machinery, replaces a build phase the §6 subspace algorithm does not
/// have, and its compact cell handles carry the rank in 8 bits
/// ([`COMPACT_MAX_RANKS`]); every rung accepts the tree-reusing policies.
pub const CAPS: Caps = Caps {
    group_walk: Rungs::Span(OptLevel::CacheLocalTree, OptLevel::Subspace),
    sorted_build: Rungs::Span(OptLevel::Redistribute, OptLevel::AsyncAggregation),
    sorted_max_ranks: Some(COMPACT_MAX_RANKS),
    tree_reuse: Rungs::ALL,
    max_bodies: None,
    tracked: true,
    why: Reasons {
        group_walk: "the per-group interaction lists are built over the §5.3 cell cache",
        sorted_build: "the sorted build distributes bodies over the §5.2 redistribution, and \
                       the §6 subspace algorithm is itself a replacement build",
        sorted_max_ranks: "compact cell handles carry the owning rank in 8 bits",
        ..Reasons::NONE
    },
};

impl Backend for UpcBackend {
    fn name(&self) -> &'static str {
        "upc"
    }

    fn description(&self) -> &'static str {
        "UPC-emulated ladder solver (one-sided PGAS; honours --opt, all seven levels)"
    }

    fn caps(&self) -> Caps {
        CAPS
    }

    fn run(&self, cfg: &SimConfig, bodies: Vec<Body>) -> SimResult {
        run_simulation_on(cfg, bodies)
    }

    fn run_tracked(
        &self,
        cfg: &SimConfig,
        bodies: Vec<Body>,
        observer: &mut (dyn FnMut(engine::snap::StepRecord) + Send),
    ) -> Result<SimResult, String> {
        self.supports(cfg)?;
        crate::sim::run_simulation_tracked(cfg, bodies, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::plummer::{generate, PlummerConfig};

    #[test]
    fn backend_runs_every_ladder_level() {
        for opt in OptLevel::ALL {
            let cfg = SimConfig::test(96, 2, opt);
            let bodies = generate(&PlummerConfig::new(cfg.nbodies, cfg.seed));
            assert!(UpcBackend.supports(&cfg).is_ok());
            let result = UpcBackend.run(&cfg, bodies);
            assert_eq!(result.bodies.len(), 96, "{}", opt.name());
            assert!(result.phases.total() > 0.0, "{}", opt.name());
        }
    }

    #[test]
    fn backend_matches_run_simulation_exactly() {
        let cfg = SimConfig::test(128, 3, OptLevel::CacheLocalTree);
        let via_backend =
            UpcBackend.run(&cfg, generate(&PlummerConfig::new(cfg.nbodies, cfg.seed)));
        let direct_call = crate::sim::run_simulation(&cfg);
        for (a, b) in via_backend.bodies.iter().zip(&direct_call.bodies) {
            assert_eq!(a.id, b.id);
            assert!((a.pos - b.pos).norm() < 1e-12);
        }
    }
}

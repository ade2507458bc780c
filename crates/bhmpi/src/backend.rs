//! The message-passing solver as an [`engine`] backend.

use crate::sim::{Mpi, PSEUDO_ID_BASE};
use engine::drive::{self, Observer};
use engine::{Backend, Caps, Reasons, Rungs, SimConfig, SimResult};
use nbody::Body;

/// The MPI-style solver (registry key `mpi`).
pub struct MpiBackend;

/// The mpi capability row.  The solver rebuilds its decomposition, local
/// trees and LET imports every step and walks them per body, so it has no
/// group walk, sorted build or tree reuse to offer.  Imported LET items are
/// grafted as pseudo-bodies with ids [`PSEUDO_ID_BASE`]`..`, so real ids
/// must stay below it (the per-step import count is asserted where the
/// pseudo ids are minted).
pub const CAPS: Caps = Caps {
    group_walk: Rungs::Never,
    sorted_build: Rungs::Never,
    sorted_max_ranks: None,
    tree_reuse: Rungs::Never,
    max_bodies: Some(PSEUDO_ID_BASE as usize),
    why: Reasons {
        group_walk: "the message-passing solver walks its locally essential tree per body",
        sorted_build: "the message-passing solver already builds lock-free local trees over \
                       its Morton decomposition",
        sorted_max_ranks: "",
        tree_reuse: "the message-passing solver rebuilds its local trees every step",
        max_bodies: "ids from PSEUDO_ID_BASE up are the pseudo-body id space of imported LET items",
    },
};

impl Backend for MpiBackend {
    fn name(&self) -> &'static str {
        "mpi"
    }

    fn description(&self) -> &'static str {
        "message-passing solver (Morton decomposition, all-to-all exchange, pushed LETs)"
    }

    fn caps(&self) -> Caps {
        CAPS
    }

    fn drive(
        &self,
        cfg: &SimConfig,
        bodies: Vec<Body>,
        observer: Option<Observer>,
    ) -> Result<SimResult, String> {
        drive::drive::<Mpi>(CAPS, cfg, bodies, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::OptLevel;
    use nbody::plummer::{generate, PlummerConfig};

    #[test]
    fn backend_runs_and_reports_supports() {
        let cfg = SimConfig::test(128, 2, OptLevel::Subspace);
        assert!(MpiBackend.supports(&cfg).is_ok());
        let result = MpiBackend.run(&cfg, generate(&PlummerConfig::new(cfg.nbodies, cfg.seed)));
        assert_eq!(result.bodies.len(), 128);
        assert!(result.phases.force > 0.0);
    }
}

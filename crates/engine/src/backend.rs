//! The backend abstraction: one trait for every solver.
//!
//! The paper's conclusion (§9) leaves "directly compare the performance of
//! this code to the performance of a similar code expressed in MPI" as
//! future work.  That comparison needs the solvers to be interchangeable:
//! a [`Backend`] consumes a [`SimConfig`] plus the initial bodies (from any
//! `scenarios` generator) and produces a [`SimResult`], nothing more.  The
//! string-keyed [`BackendRegistry`] mirrors the scenarios registry so that
//! drivers, benches and tests can select solvers by name (`upc`, `mpi`,
//! `direct`) exactly as they select workloads.

use crate::caps::Caps;
use crate::config::{ConfigError, SimConfig};
use crate::drive::Observer;
use crate::report::SimResult;
use nbody::Body;

/// A solver that can run any scenario's bodies under a [`SimConfig`].
///
/// Implementations must honour the shared conventions: the bodies number
/// `cfg.nbodies` with ids `0..n` in order, the run executes `cfg.steps`
/// steps with the trailing `cfg.measured_steps` timed, and the returned
/// [`SimResult::bodies`] are sorted by id.  Chunked stepping is exact:
/// running `k` steps, then `n − k` more from the returned bodies, gives the
/// bodies of one `n`-step run bit for bit under
/// [`crate::TreePolicy::Rebuild`] — `bhserve` sessions rely on it for every
/// backend, and the session-equivalence integration test pins it.
pub trait Backend: Send + Sync {
    /// Registry key (stable, kebab-case).
    fn name(&self) -> &'static str;

    /// One-line human description for `bhsim --list`.
    fn description(&self) -> &'static str;

    /// This backend's row of the capability table: which combinations of
    /// axes it runs ([`crate::caps`]).
    fn caps(&self) -> Caps;

    /// Checks whether this backend can run `cfg`: [`Caps::check`] on
    /// [`Backend::caps`], so every rejection carries a stable
    /// [`ConfigError`] code and no backend writes its own rules.
    fn supports(&self, cfg: &SimConfig) -> Result<(), ConfigError> {
        self.caps().check(cfg)
    }

    /// Runs `cfg` over `bodies` through [`crate::drive::drive`] with this
    /// backend's solver, calling `observer` after every completed step when
    /// one is given.  [`Backend::run`] and [`Backend::run_tracked`] are this
    /// method without and with an observer.
    fn drive(
        &self,
        cfg: &SimConfig,
        bodies: Vec<Body>,
        observer: Option<Observer>,
    ) -> Result<SimResult, String>;

    /// Runs the simulation over the given initial conditions.
    ///
    /// # Panics
    /// Panics where [`Backend::run_tracked`] would fail: on a configuration
    /// [`Backend::supports`] rejects, on bodies that break the conventions
    /// above and on an injected `engine.step` fault.  Callers check
    /// [`Backend::supports`] first.
    fn run(&self, cfg: &SimConfig, bodies: Vec<Body>) -> SimResult {
        self.drive(cfg, bodies, None).unwrap_or_else(|e| panic!("{} backend: {e}", self.name()))
    }

    /// Like [`Backend::run`], but emits a [`crate::snap::StepRecord`] after
    /// every completed time step (all ranks quiesced, bodies sorted by id)
    /// so callers can checkpoint mid-run, and fails instead of panicking.
    /// Tracking does not perturb the run: its bodies, simulated times and
    /// counters are bit-for-bit those of [`Backend::run`].
    fn run_tracked(
        &self,
        cfg: &SimConfig,
        bodies: Vec<Body>,
        observer: &mut (dyn FnMut(crate::snap::StepRecord) + Send),
    ) -> Result<SimResult, String> {
        self.drive(cfg, bodies, Some(observer))
    }
}

/// A string-keyed collection of backends.
///
/// Later registrations shadow earlier ones with the same name, so
/// applications can override a built-in backend while keeping the rest.
#[derive(Default)]
pub struct BackendRegistry {
    entries: Vec<Box<dyn Backend>>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> BackendRegistry {
        BackendRegistry::default()
    }

    /// Adds a backend (shadowing any previous entry with the same name).
    pub fn register(&mut self, backend: Box<dyn Backend>) {
        self.entries.push(backend);
    }

    /// Looks a backend up by its [`Backend::name`].
    pub fn get(&self, name: &str) -> Option<&dyn Backend> {
        self.entries.iter().rev().find(|b| b.name() == name).map(|b| b.as_ref())
    }

    /// Like [`BackendRegistry::get`], but an unknown name fails with the
    /// standard did-you-mean error ([`crate::suggest::unknown_key`]) instead
    /// of a bare `None` — the lookup every user-facing surface (bhsim
    /// `--backend`, bhserve jobs, the comparison driver) should use.
    pub fn lookup(&self, name: &str) -> Result<&dyn Backend, String> {
        self.get(name).ok_or_else(|| crate::suggest::unknown_key("backend", name, &self.names()))
    }

    /// The names currently registered, in registration order, deduplicated.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for b in &self.entries {
            if !names.contains(&b.name()) {
                names.push(b.name());
            }
        }
        names
    }

    /// Iterates over the visible (non-shadowed) backends.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Backend> {
        self.names().into_iter().filter_map(|n| self.get(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;

    struct Dummy(&'static str);
    impl Backend for Dummy {
        fn name(&self) -> &'static str {
            self.0
        }
        fn description(&self) -> &'static str {
            "dummy"
        }
        fn caps(&self) -> Caps {
            crate::direct::CAPS
        }
        fn drive(
            &self,
            cfg: &SimConfig,
            bodies: Vec<Body>,
            _: Option<Observer>,
        ) -> Result<SimResult, String> {
            Ok(SimResult::aggregate(cfg, Vec::new(), bodies))
        }
    }

    #[test]
    fn registry_lookup_and_shadowing() {
        let mut registry = BackendRegistry::new();
        registry.register(Box::new(Dummy("a")));
        registry.register(Box::new(Dummy("b")));
        assert_eq!(registry.names(), vec!["a", "b"]);
        assert!(registry.get("a").is_some());
        assert!(registry.get("c").is_none());
        registry.register(Box::new(Dummy("a")));
        assert_eq!(registry.names().len(), 2, "shadowing must not duplicate names");
        assert_eq!(registry.iter().count(), 2);
    }

    #[test]
    fn lookup_suggests_on_typos() {
        let mut registry = BackendRegistry::new();
        registry.register(Box::new(Dummy("direct")));
        registry.register(Box::new(Dummy("upc")));
        assert!(registry.lookup("upc").is_ok());
        let err = registry.lookup("dierct").map(|b| b.name()).unwrap_err();
        assert!(err.contains("unknown backend: dierct"), "{err}");
        assert!(err.contains("did you mean \"direct\"?"), "{err}");
        assert!(err.contains("registered: direct, upc"), "{err}");
    }

    #[test]
    fn default_supports_validates_the_config() {
        let cfg = SimConfig::test(16, 1, OptLevel::Baseline);
        assert!(Dummy("x").supports(&cfg).is_ok());
        // An unrunnable measurement window is rejected by every backend
        // through the provided `supports`, not silently mis-measured.
        let mut bad = cfg;
        bad.measured_steps = bad.steps + 1;
        let err = Dummy("x").supports(&bad).unwrap_err();
        assert_eq!(err.code, ConfigError::E_MEASURED_WINDOW, "{err}");
        assert!(err.message.contains("measured_steps"), "{err}");
    }
}

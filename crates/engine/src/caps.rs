//! The capability table: every rule about which *combinations* of axes a
//! backend runs is data in its [`Caps`] row ([`crate::Backend::caps`]),
//! read by one evaluator ([`Caps::check`]) and rendered for `bhsim --list`
//! ([`render`]).  Single-field rules stay in [`SimConfig::validate`].

use crate::backend::BackendRegistry;
use crate::config::{ConfigError, OptLevel, SimConfig, TreeBuild, WalkMode};

/// Where a backend admits the non-default value of one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rungs {
    /// Nowhere: only the axis default runs.
    Never,
    /// On the `--opt` rungs `lo..=hi`.
    Span(OptLevel, OptLevel),
    /// The backend has no such axis: every value runs and changes nothing
    /// (only the `--list` label tells it from a span over every rung).
    Ignored,
}

impl Rungs {
    fn render(self) -> String {
        match self {
            Rungs::Never => "no".to_string(),
            Rungs::Ignored => "ignored".to_string(),
            Rungs::Span(lo, hi) => format!("--opt {}..{}", lo.name(), hi.name()),
        }
    }

    /// Checks that `flag` (an axis's non-default value, as typed) runs on
    /// `opt`; a refusal ends with `why`.
    fn admit(self, flag: &str, opt: OptLevel, why: &str) -> Result<(), ConfigError> {
        match self {
            Rungs::Span(lo, hi) if !(lo..=hi).contains(&opt) => Err(unsupported(
                format!("{flag} needs {} on this backend; got --opt {}", self.render(), opt.name()),
                why,
            )),
            Rungs::Never => {
                Err(unsupported(format!("{flag} is not supported by this backend"), why))
            }
            _ => Ok(()),
        }
    }
}

/// One backend's row of the capability table: plain data, no behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Where `--walk group` runs.
    pub group_walk: Rungs,
    /// Where `--build sorted` runs.
    pub sorted_build: Rungs,
    /// The most ranks `--build sorted` runs on (`None`: no cap).
    pub sorted_max_ranks: Option<usize>,
    /// Where the tree-reusing policy (`reuse`) runs.
    pub tree_reuse: Rungs,
    /// Runs need fewer bodies than this (`None`: no cap).
    pub max_bodies: Option<usize>,
    /// Why the rules above refuse what they refuse.
    pub why: Reasons,
}

/// The reason behind each refusing rule of a [`Caps`] row, appended to its
/// rejection message (`""`: none given).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reasons {
    pub group_walk: &'static str,
    pub sorted_build: &'static str,
    pub sorted_max_ranks: &'static str,
    pub tree_reuse: &'static str,
    pub max_bodies: &'static str,
}

impl Reasons {
    /// No reasons: for a row whose rules refuse nothing.
    pub const NONE: Reasons = Reasons {
        group_walk: "",
        sorted_build: "",
        sorted_max_ranks: "",
        tree_reuse: "",
        max_bodies: "",
    };
}

fn unsupported(message: impl Into<String>, why: &str) -> ConfigError {
    let mut message = message.into();
    if !why.is_empty() {
        message = format!("{message}: {why}");
    }
    ConfigError::new(ConfigError::E_UNSUPPORTED, message)
}

impl Caps {
    /// Whether this row runs `cfg`: [`SimConfig::validate`] first (its
    /// codes win), then every cross-axis rule, each failing with
    /// [`ConfigError::E_UNSUPPORTED`].
    pub fn check(&self, cfg: &SimConfig) -> Result<(), ConfigError> {
        cfg.validate()?;
        if let Some(max) = self.max_bodies.filter(|&max| cfg.nbodies >= max) {
            let n = cfg.nbodies;
            let message = format!("this backend runs fewer than {max} bodies; got {n}");
            return Err(unsupported(message, self.why.max_bodies));
        }
        if cfg.tree_policy.reuses_tree() {
            let flag = format!("--tree-policy {}", cfg.tree_policy.name());
            self.tree_reuse.admit(&flag, cfg.opt, self.why.tree_reuse)?;
        }
        if cfg.walk == WalkMode::Group {
            self.group_walk.admit("--walk group", cfg.opt, self.why.group_walk)?;
        }
        if cfg.build == TreeBuild::Sorted {
            self.sorted_build.admit("--build sorted", cfg.opt, self.why.sorted_build)?;
            if let Some(max) = self.sorted_max_ranks.filter(|&max| cfg.ranks() > max) {
                let ranks = cfg.ranks();
                return Err(unsupported(
                    format!("--build sorted runs on at most {max} ranks; this machine has {ranks}"),
                    self.why.sorted_max_ranks,
                ));
            }
        }
        Ok(())
    }

    /// [`Caps::check`] for a `bhserve` session (`open`, `resume`).  The
    /// session rule comes first: chunked stepping is bit-identical to one
    /// run only when no tree state crosses a chunk boundary.
    pub fn check_session(&self, cfg: &SimConfig) -> Result<(), ConfigError> {
        if cfg.tree_policy.reuses_tree() {
            let policy = cfg.tree_policy.name();
            return Err(ConfigError::new(
                ConfigError::E_SESSION_POLICY,
                format!(
                    "sessions require the per-step rebuild tree policy; policy {policy:?} \
                     carries tree state across steps, which would make chunk boundaries \
                     observable"
                ),
            ));
        }
        self.check(cfg)
    }

    /// Whether `bhserve` opens sessions on this backend: the session rule
    /// admits the default configuration.  True for every row, because the
    /// session rule reads only the tree policy (the rendered table's
    /// "bhserve sessions" line says so for all of them).
    pub fn sessions(&self) -> bool {
        self.check_session(&SimConfig::test(1, 1, OptLevel::Baseline)).is_ok()
    }
}

/// The "valid combinations" section of `bhsim --list`, rendered from the
/// rows of every backend in `registry` (README carries a verbatim copy).
pub fn render(registry: &BackendRegistry) -> String {
    let mut out =
        "valid combinations (every flag not listed runs on every backend and --opt):\n".to_string();
    for backend in registry.iter() {
        let caps = backend.caps();
        let mut sorted = caps.sorted_build.render();
        if let (Rungs::Span(..), Some(max)) = (caps.sorted_build, caps.sorted_max_ranks) {
            sorted += &format!(", at most {max} ranks");
        }
        let rows = [
            ("--walk group", caps.group_walk.render()),
            ("--build sorted", sorted),
            ("--tree-policy reuse", caps.tree_reuse.render()),
            ("--n", caps.max_bodies.map_or("any".to_string(), |max| format!("below {max}"))),
            ("bhserve sessions", "--tree-policy rebuild".to_string()),
        ];
        out += &format!("  {}\n", backend.name());
        for (flag, value) in rows {
            out += &format!("    {flag:<30}{value}\n");
        }
    }
    out
}

//! The knob table: the one place a [`SimConfig`] knob is named.
//!
//! [`ROWS`] holds one row per knob, in `bhsnap/v1` manifest order: its kind,
//! where its default comes from, `bhsim`'s flag and help line, `bhserve`'s
//! job key and the manifest key.  Every front end is a loop over it: `bhsim`
//! collects its flags with [`take_flag`], and [`config`] builds the run from
//! those, from a `bhserve` job or from a manifest, so one set of values is
//! one `SimConfig` whichever front end spelled it.  [`encode`] goes the other
//! way: a manifest's `config` object, or the `bhserve` job keys that rerun
//! the run (`bhsim --json`'s `spec`).  [`render`] is the table README prints.
//!
//! A row reads and writes a knob's value as the wire spells it: a count, a
//! JSON number, a boolean or a name.  Defaults are not restated here: an
//! engine default is read from [`SimConfig::new`].

use nbody::Tuning;
use serde::Value;

use crate::cli::Args;
use crate::config::{
    OptLevel, SimConfig, TreeBuild, TreePolicy, WalkMode, LEAF_CAPACITY, MAX_DEPTH, SUBSPACE_ALPHA,
};

/// A front end: who spells a knob, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// A `bhsim` command-line flag.
    Flag,
    /// A key of a `bhserve` `run` or `open` request.
    Wire,
    /// A key of a `bhsnap/v1` manifest's `config` object.
    Manifest,
}

/// The values a knob takes.
#[derive(Clone, Copy)]
pub enum Kind {
    /// A non-negative integer no larger than `max`, what its field holds.
    Count {
        /// The field's largest value.
        max: u64,
    },
    /// A real number (a bit-exact hex float in a manifest).
    Real,
    /// On or off; a bare flag turns it on.
    Switch,
    /// One of an enum's names.
    Name {
        /// What a name is called in an error.
        what: &'static str,
        /// Every name, in the enum's order, with what `bhsim --list` says
        /// of it.
        choices: fn() -> Vec<(&'static str, String)>,
    },
}

/// Where a knob's value comes from when a front end is not given one.
#[derive(Clone, Copy)]
pub enum Source {
    /// What [`SimConfig::new`] sets.
    Engine,
    /// What `--tree-policy reuse` sets: a reuse parameter, which applies
    /// under the reuse policy only.
    Reuse,
    /// This many trailing steps, or every step of a shorter run.
    Window(u64),
    /// The scenario's recommended [`Tuning`].
    Scenario(fn(&Tuning) -> f64),
    /// `bhsim`'s default, and the wire's (`None`: the key is required).
    FrontEnd(u64, Option<u64>),
    /// One of the paper's fixed constants: no front end sets it, and every
    /// manifest must hold exactly it.
    Pinned,
}

/// One knob.
pub struct Knob {
    /// The `bhsnap/v1` key; `a.b` is key `b` of the nested object `a`.
    pub key: &'static str,
    /// The values it takes.
    pub kind: Kind,
    /// Its default.
    pub source: Source,
    /// `bhsim`'s flag and help line.
    pub flag: Option<(&'static str, &'static str)>,
    /// `bhserve`'s job key.
    pub wire: Option<&'static str>,
    get: fn(&SimConfig) -> Option<Value>,
    /// `None`: a name that names nothing.
    set: fn(&mut SimConfig, &Value) -> Option<()>,
}

/// The accessors of the `SimConfig` field at `path`: a number or a switch
/// the wire spells as `Variant`, read with `as_x`; or an enum `Ty`, spelled
/// by its `name`.
macro_rules! field {
    ($($path:ident).+: $variant:ident, $as:ident) => {
        (|c| Some(Value::$variant(c.$($path).+ as _)), |c, v| {
            c.$($path).+ = v.$as()? as _;
            Some(())
        })
    };
    ($($path:ident).+: $ty:ident) => {
        (|c| Some(Value::String(c.$($path).+.name().to_string())), |c, v| {
            c.$($path).+ = $ty::from_name(v.as_str()?)?;
            Some(())
        })
    };
}

/// The accessors of one reuse parameter, as [`field!`]'s.
macro_rules! reuse {
    ($param:ident: $variant:ident, $as:ident) => {
        (
            |c| match c.tree_policy {
                TreePolicy::Reuse { $param, .. } => Some(Value::$variant($param as _)),
                TreePolicy::Rebuild => None,
            },
            |c, v| {
                if let TreePolicy::Reuse { $param, .. } = &mut c.tree_policy {
                    *$param = v.$as()? as _;
                }
                Some(())
            },
        )
    };
}

type Accessors = (fn(&SimConfig) -> Option<Value>, fn(&mut SimConfig, &Value) -> Option<()>);

const fn row(key: &'static str, kind: Kind, source: Source, (get, set): Accessors) -> Knob {
    Knob { key, kind, source, flag: None, wire: None, get, set }
}

impl Knob {
    const fn flag(mut self, flag: &'static str, help: &'static str, wire: &'static str) -> Knob {
        self.flag = Some((flag, help));
        self.wire = Some(wire);
        self
    }

    /// This knob's value in `cfg`, as the wire spells it; `None` where it
    /// does not apply (a reuse parameter under the rebuild policy).
    pub fn value(&self, cfg: &SimConfig) -> Option<Value> {
        (self.get)(cfg)
    }

    /// The name `front` knows this knob by.
    pub fn name(&self, front: Front) -> Option<&'static str> {
        match front {
            Front::Flag => self.flag.map(|(flag, _)| flag),
            Front::Wire => self.wire,
            Front::Manifest => Some(self.key),
        }
    }

    /// How an error names this knob on `front`.
    fn spelled(&self, front: Front) -> String {
        match front {
            Front::Flag => self.name(front).unwrap_or(self.key).to_string(),
            _ => format!("field {:?}", self.name(front).unwrap_or(self.key)),
        }
    }

    /// What `--help` shows after the flag.
    pub fn metavar(&self) -> &'static str {
        match self.kind {
            Kind::Count { .. } => "N",
            Kind::Real => "X",
            Kind::Switch => "",
            Kind::Name { .. } => "NAME",
        }
    }

    /// The default `front` applies (`None`: every front end's).
    pub fn default_text(&self, front: Option<Front>) -> String {
        let mut cfg = engine_default();
        if let Source::Reuse = self.source {
            cfg.tree_policy = TreePolicy::from_name("reuse").expect("a listed name");
        }
        let engine = || text(&self.value(&cfg).expect("the knob applies"));
        match self.source {
            Source::Engine => engine(),
            Source::Reuse => format!("{} under reuse", engine()),
            Source::Window(n) => format!("{n}, at most steps"),
            Source::Scenario(_) => "the scenario's".to_string(),
            Source::FrontEnd(flag, _) if front == Some(Front::Flag) => flag.to_string(),
            Source::FrontEnd(flag, Some(wire)) => format!("bhsim {flag}, wire {wire}"),
            Source::FrontEnd(flag, None) => format!("bhsim {flag}, wire required"),
            Source::Pinned => format!("{} (pinned)", engine()),
        }
    }

    /// Sets this knob in `cfg` to `v` as `front` spells it (a flag's value
    /// arrives as the JSON value its text parsed to); a pinned knob is only
    /// checked.
    fn put(&self, front: Front, cfg: &mut SimConfig, v: &Value) -> Result<(), String> {
        let wrong = |expected: &str| format!("{} must be {expected}", self.spelled(front));
        let value = match self.kind {
            Kind::Count { max } => {
                match v.as_u64().ok_or_else(|| wrong("a non-negative integer"))? {
                    n if n > max => return Err(wrong(&format!("at most {max}, got {n}"))),
                    n => Value::UInt(n),
                }
            }
            Kind::Real if front == Front::Manifest => v
                .as_str()
                .and_then(|text| crate::snap::parse_hex_u64(text.as_bytes()))
                .map(|bits| Value::Float(f64::from_bits(bits)))
                .ok_or_else(|| wrong("a 16-digit hex float"))?,
            Kind::Real => Value::Float(v.as_f64().ok_or_else(|| wrong("a number"))?),
            Kind::Switch => Value::Bool(v.as_bool().ok_or_else(|| wrong("a boolean"))?),
            Kind::Name { what, choices } => {
                let name = v.as_str().ok_or_else(|| wrong("a string"))?;
                return (self.set)(cfg, v).ok_or_else(|| {
                    let names: Vec<&str> = choices().into_iter().map(|(name, _)| name).collect();
                    crate::suggest::unknown_key(what, name, &names)
                });
            }
        };
        if let Source::Pinned = self.source {
            let want = self.value(cfg).expect("a constant");
            if value != want {
                let (want, value) = (text(&want), text(&value));
                return Err(format!("{} must be {want}, got {value}", self.spelled(front)));
            }
        }
        (self.set)(cfg, &value).expect("a value of its kind");
        Ok(())
    }
}

/// How `--help`, the banner and an error print a knob's value.
pub fn text(value: &Value) -> String {
    match value {
        Value::UInt(n) => n.to_string(),
        Value::Float(x) => x.to_string(),
        Value::Bool(on) => on.to_string(),
        Value::String(name) => name.clone(),
        other => format!("{other:?}"),
    }
}

/// The configuration every engine default is read from.
fn engine_default() -> SimConfig {
    SimConfig::new(0, pgas::Machine::default(), OptLevel::Subspace)
}

/// A `usize` field's count.
const COUNT: Kind = Kind::Count { max: usize::MAX as u64 };

/// Every knob, in `bhsnap/v1` manifest order.
#[rustfmt::skip]
pub static ROWS: [Knob; 26] = [
    row("nbodies", COUNT, Source::FrontEnd(16_384, None), field!(nbodies: UInt, as_u64))
        .flag("--n", "number of bodies", "n"),
    row("seed", Kind::Count { max: u64::MAX }, Source::Engine, field!(seed: UInt, as_u64))
        .flag("--seed", "workload RNG seed", "seed"),
    row("theta", Kind::Real, Source::Scenario(|t| t.theta), field!(theta: Float, as_f64))
        .flag("--theta", "opening criterion", "theta"),
    row("eps", Kind::Real, Source::Scenario(|t| t.eps), field!(eps: Float, as_f64))
        .flag("--eps", "softening", "eps"),
    row("dt", Kind::Real, Source::Scenario(|t| t.dt), field!(dt: Float, as_f64))
        .flag("--dt", "time step", "dt"),
    row("steps", COUNT, Source::Engine, field!(steps: UInt, as_u64))
        .flag("--steps", "time steps to run", "steps"),
    row("measured_steps", COUNT, Source::Window(2), field!(measured_steps: UInt, as_u64))
        .flag("--measured", "trailing steps measured", "measured"),
    row("tree_policy.name", Kind::Name { what: "tree policy", choices: || {
        TreePolicy::NAMES.map(|n| (n, TreePolicy::description(n).unwrap_or_default())).to_vec()
    } }, Source::Engine, field!(tree_policy: TreePolicy))
        .flag("--tree-policy", "tree lifecycle across steps", "policy"),
    row("tree_policy.rebuild_every", COUNT, Source::Reuse, reuse!(rebuild_every: UInt, as_u64))
        .flag("--rebuild-every", "full rebuild cadence", "rebuild_every"),
    row("tree_policy.drift_threshold", Kind::Real, Source::Reuse, reuse!(drift_threshold: Float, as_f64))
        .flag("--drift-threshold", "drifted-leaf fraction forcing a rebuild", "drift_threshold"),
    row("walk", Kind::Name { what: "walk mode", choices: || WalkMode::ALL.map(|w| (w.name(), w.description().into())).to_vec() },
        Source::Engine, field!(walk: WalkMode))
        .flag("--walk", "force-walk traversal mode", "walk"),
    row("build", Kind::Name { what: "tree build", choices: || TreeBuild::ALL.map(|b| (b.name(), b.description().into())).to_vec() },
        Source::Engine, field!(build: TreeBuild))
        .flag("--build", "tree-construction algorithm", "build"),
    row("opt", Kind::Name { what: "optimization level", choices: || OptLevel::ALL.map(|l| (l.name(), String::new())).to_vec() },
        Source::Engine, field!(opt: OptLevel))
        .flag("--opt", "upc optimization level", "opt"),
    row("machine.nodes", COUNT, Source::FrontEnd(4, Some(2)), field!(machine.nodes: UInt, as_u64))
        .flag("--nodes", "emulated nodes", "nodes"),
    row("machine.threads_per_node", COUNT, Source::Engine, field!(machine.threads_per_node: UInt, as_u64))
        .flag("--threads-per-node", "UPC threads per node", "threads_per_node"),
    row("machine.pthreads", Kind::Switch, Source::Engine, field!(machine.pthreads: Bool, as_bool))
        .flag("--pthreads", "emulate the -pthreads runtime", "pthreads"),
    row("n1", COUNT, Source::Engine, field!(n1: UInt, as_u64)),
    row("n2", COUNT, Source::Engine, field!(n2: UInt, as_u64)),
    row("n3", COUNT, Source::Engine, field!(n3: UInt, as_u64)),
    row("alpha", Kind::Real, Source::Pinned, (|_| Some(Value::Float(SUBSPACE_ALPHA)), |_, _| Some(()))),
    row("vector_reduction", Kind::Switch, Source::Engine, field!(vector_reduction: Bool, as_bool)),
    row("fine_grained_fields", Kind::Count { max: u32::MAX as u64 }, Source::Engine, field!(fine_grained_fields: UInt, as_u64)),
    row("leaf_capacity", COUNT, Source::Pinned, (|_| Some(Value::UInt(LEAF_CAPACITY as u64)), |_, _| Some(()))),
    row("max_depth", COUNT, Source::Pinned, (|_| Some(Value::UInt(MAX_DEPTH as u64)), |_, _| Some(()))),
    row("shadow_cache", Kind::Switch, Source::Engine, field!(shadow_cache: Bool, as_bool)),
    row("software_scalar_cache", Kind::Switch, Source::Engine, field!(software_scalar_cache: Bool, as_bool)),
];

/// The row `front` knows as `name`.
pub fn find(front: Front, name: &str) -> Option<&'static Knob> {
    ROWS.iter().find(|row| row.name(front) == Some(name))
}

/// Every name `front` knows a knob by, in row order.
pub fn names_on(front: Front) -> impl Iterator<Item = &'static str> {
    ROWS.iter().filter_map(move |row| row.name(front))
}

/// If `flag` is a knob's, reads its value from `args` into the object
/// `given` that [`config`] reads on [`Front::Flag`] (a switch takes no
/// value) and returns `true`; text that is no number exits through
/// [`Args::reject`].
pub fn take_flag(args: &mut Args, flag: &str, given: &mut Vec<(String, Value)>) -> bool {
    let Some(knob) = find(Front::Flag, flag) else { return false };
    let value = match knob.kind {
        Kind::Switch => Value::Bool(true),
        Kind::Count { .. } => Value::UInt(args.number(flag)),
        Kind::Real => Value::Float(args.number(flag)),
        Kind::Name { .. } => Value::String(args.value(flag)),
    };
    // The last of a repeated flag wins.
    given.retain(|(key, _)| key != flag);
    given.push((flag.to_string(), value));
    true
}

/// The run the object `v` describes on `front`: each knob under its
/// `front` name (a `null` is not given), else its default, with θ/ε/dt
/// defaulting to the scenario's `tuning`.  A manifest must give every knob
/// that applies; a knob given where it does not apply (`--rebuild-every`
/// without `--tree-policy reuse`) is refused, as is a pinned constant at any
/// other value.  Keys no row names are not looked at, and values are judged
/// by [`SimConfig::validate`], not here.
pub fn config(front: Front, v: &Value, tuning: &Tuning) -> Result<SimConfig, String> {
    let mut cfg = engine_default();
    for knob in &ROWS {
        // Only a manifest nests (and splitting every key costs a served job).
        let given = match knob.name(front) {
            Some(key) if front != Front::Manifest => v.get(key),
            Some(key) => match key.split_once('.') {
                Some((outer, inner)) => v.get(outer).and_then(|outer| outer.get(inner)),
                None => v.get(key),
            },
            None => None,
        };
        let given = given.filter(|given| !matches!(given, Value::Null));
        // The policy row comes first, so `cfg` already holds the policy.
        if matches!(knob.source, Source::Reuse) && !cfg.tree_policy.reuses_tree() {
            if given.is_some() {
                let policy = find(Front::Manifest, "tree_policy.name").expect("the policy row");
                let policy = policy.spelled(front);
                return Err(format!("{} requires {policy} reuse", knob.spelled(front)));
            }
            continue;
        }
        let value = match (given, knob.source) {
            (Some(given), _) => {
                knob.put(front, &mut cfg, given)?;
                continue;
            }
            (None, _) if front == Front::Manifest => {
                return Err(format!("missing {}", knob.spelled(front)))
            }
            // The engine's default is what `cfg` already holds.
            (None, Source::Engine | Source::Reuse | Source::Pinned) => continue,
            (None, Source::Window(n)) => Value::UInt(n.min(cfg.steps as u64)),
            (None, Source::Scenario(pick)) => Value::Float(pick(tuning)),
            (None, Source::FrontEnd(flag, _)) if front == Front::Flag => Value::UInt(flag),
            (None, Source::FrontEnd(_, wire)) => {
                Value::UInt(wire.ok_or_else(|| format!("{} is required", knob.spelled(front)))?)
            }
        };
        knob.put(front, &mut cfg, &value)?;
    }
    Ok(cfg)
}

/// `cfg` as `front` spells it: every knob that applies and that `front`
/// names, in row order.  On [`Front::Manifest`] it is a manifest's `config`
/// object, reals as bit-exact hex; on [`Front::Wire`] the job keys of the
/// `bhserve` `run` that reruns `cfg` (with `op`, `tenant`, `scenario` and
/// `backend`), reals as JSON numbers; on [`Front::Flag`] each flag's value,
/// which `bhsim`'s banner prints.
pub fn encode(front: Front, cfg: &SimConfig) -> Value {
    let mut entries: Vec<(String, Value)> = Vec::new();
    for knob in &ROWS {
        let (Some(name), Some(value)) = (knob.name(front), knob.value(cfg)) else { continue };
        let value = match value {
            Value::Float(x) if front == Front::Manifest => {
                Value::String(crate::snap::hex_string(&x.to_bits().to_be_bytes()))
            }
            value => value,
        };
        let Some((outer, inner)) = name.split_once('.') else {
            entries.push((name.to_string(), value));
            continue;
        };
        if entries.last().is_none_or(|(key, _)| key != outer) {
            entries.push((outer.to_string(), Value::Object(Vec::new())));
        }
        if let Some((_, Value::Object(fields))) = entries.last_mut() {
            fields.push((inner.to_string(), value));
        }
    }
    Value::Object(entries)
}

/// The table: each knob's flag, wire key, manifest key and default.
pub fn render() -> String {
    let line = |flag: &str, wire: &str, key: &str, default: &str| {
        format!("{flag:<20} {wire:<17} {key:<28} {default}\n")
    };
    let mut out = line("flag", "wire key", "bhsnap/v1 key", "default");
    for knob in &ROWS {
        let flag = knob.flag.map_or("-", |(flag, _)| flag);
        out += &line(flag, knob.wire.unwrap_or("-"), knob.key, &knob.default_text(None));
    }
    out
}

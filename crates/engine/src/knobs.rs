//! The knob table: the one place a [`SimConfig`] knob is named.
//!
//! [`ROWS`] holds one row per knob, in `bhsnap/v1` manifest order: its kind,
//! its default, `bhsim`'s flag and help line, `bhserve`'s job key and the
//! manifest key.  Every front end is a loop over it: `bhsim` collects its
//! flags with [`take_flag`], and [`config`] builds the run from those, from
//! a `bhserve` job or from a manifest, so one set of values is one
//! `SimConfig` whichever front end spelled it.  [`encode`] writes a
//! manifest's `config` object and [`render`] is the table README prints.

use nbody::Tuning;
use serde::Value;

use crate::cli::Args;
use crate::config::{
    OptLevel, SimConfig, TreeBuild, TreePolicy, WalkMode, DEFAULT_SEED, LEAF_CAPACITY, MAX_DEPTH,
    SUBSPACE_ALPHA,
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

/// One knob's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// A count or a seed.
    Int(u64),
    /// A real number.
    Real(f64),
    /// An on/off switch.
    Switch(bool),
    /// An optimization level.
    Opt(OptLevel),
    /// A force-walk mode.
    Walk(WalkMode),
    /// A tree-construction algorithm.
    Build(TreeBuild),
    /// A tree policy, with its reuse parameters.
    Policy(TreePolicy),
}

impl Val {
    /// A name knob's value's name.
    pub fn name(self) -> Option<&'static str> {
        match self {
            Val::Opt(v) => Some(v.name()),
            Val::Walk(v) => Some(v.name()),
            Val::Build(v) => Some(v.name()),
            Val::Policy(v) => Some(v.name()),
            Val::Int(_) | Val::Real(_) | Val::Switch(_) => None,
        }
    }

    /// What `bhsim --list` says of a name knob's value.
    pub fn description(self) -> String {
        match self {
            Val::Walk(v) => v.description().to_string(),
            Val::Build(v) => v.description().to_string(),
            Val::Policy(v) => TreePolicy::description(v.name()).unwrap_or_default(),
            _ => String::new(),
        }
    }
}

impl std::fmt::Display for Val {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Real(x) => write!(f, "{x}"),
            Val::Switch(on) => write!(f, "{on}"),
            named => f.pad(named.name().unwrap_or_default()),
        }
    }
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
        /// Every value, in the enum's `ALL` order.
        all: fn() -> Vec<Val>,
    },
}

/// Where a knob's value comes from when a front end is not given one.
#[derive(Clone, Copy)]
pub enum Source {
    /// The engine's default: what [`SimConfig::new`] sets, or for a reuse
    /// parameter what `--tree-policy reuse` sets.
    Engine(Val),
    /// This many trailing steps, or every step of a shorter run.
    Window(u64),
    /// The scenario's recommended [`Tuning`].
    Scenario(fn(&Tuning) -> f64),
    /// `bhsim`'s default, and the wire's (`None`: the key is required).
    FrontEnd(Val, Option<Val>),
    /// One of the paper's fixed constants: no front end sets it, and every
    /// manifest must hold exactly it.
    Pinned(Val),
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
    get: fn(&SimConfig) -> Option<Val>,
    set: fn(&mut SimConfig, Val),
}

/// A [`SimConfig`] field type, as a knob value.
trait Field: Sized {
    fn val(&self) -> Val;
    fn of(val: Val) -> Self;
}

macro_rules! fields {
    ($($ty:ty: $variant:ident($x:ident) => $to:expr, $from:expr;)*) => {$(
        impl Field for $ty {
            fn val(&self) -> Val {
                let $x = *self;
                Val::$variant($to)
            }
            fn of(val: Val) -> $ty {
                match val {
                    Val::$variant($x) => $from,
                    other => unreachable!("{other:?} read for a {} field", stringify!($ty)),
                }
            }
        }
    )*};
}

fields! {
    usize: Int(n) => n as u64, n as usize;
    u64: Int(n) => n, n;
    u32: Int(n) => n as u64, n as u32;
    f64: Real(x) => x, x;
    bool: Switch(on) => on, on;
    OptLevel: Opt(v) => v, v;
    WalkMode: Walk(v) => v, v;
    TreeBuild: Build(v) => v, v;
    TreePolicy: Policy(v) => v, v;
}

/// The accessors of the `SimConfig` field at `path`.
macro_rules! field {
    ($($path:ident).+) => {
        (|c| Some(Field::val(&c.$($path).+)), |c, v| c.$($path).+ = Field::of(v))
    };
}

/// The accessors of one reuse parameter: it applies under the reuse
/// policy only.
macro_rules! reuse {
    ($param:ident) => {
        (
            |c| match c.tree_policy {
                TreePolicy::Reuse { $param, .. } => Some(Field::val(&$param)),
                TreePolicy::Rebuild => None,
            },
            |c, v| {
                if let TreePolicy::Reuse { $param, .. } = &mut c.tree_policy {
                    *$param = Field::of(v);
                }
            },
        )
    };
}

type Accessors = (fn(&SimConfig) -> Option<Val>, fn(&mut SimConfig, Val));

/// A pinned constant's accessors: [`Knob::value`] reads the constant, and
/// nothing is written.
const PINNED: Accessors = (|_| None, |_, _| {});

const fn row(key: &'static str, kind: Kind, source: Source, (get, set): Accessors) -> Knob {
    Knob { key, kind, source, flag: None, wire: None, get, set }
}

impl Knob {
    const fn flag(mut self, flag: &'static str, help: &'static str, wire: &'static str) -> Knob {
        self.flag = Some((flag, help));
        self.wire = Some(wire);
        self
    }

    /// This knob's value in `cfg`; `None` where it does not apply (a reuse
    /// parameter under the rebuild policy).
    pub fn value(&self, cfg: &SimConfig) -> Option<Val> {
        match self.source {
            Source::Pinned(constant) => Some(constant),
            _ => (self.get)(cfg),
        }
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
        match self.source {
            Source::Engine(v) if self.value(&engine_default()).is_none() => {
                format!("{v} under reuse")
            }
            Source::Engine(v) => v.to_string(),
            Source::Window(n) => format!("{n}, at most steps"),
            Source::Scenario(_) => "the scenario's".to_string(),
            Source::FrontEnd(flag, _) if front == Some(Front::Flag) => flag.to_string(),
            Source::FrontEnd(flag, Some(wire)) => format!("bhsim {flag}, wire {wire}"),
            Source::FrontEnd(flag, None) => format!("bhsim {flag}, wire required"),
            Source::Pinned(v) => format!("{v} (pinned)"),
        }
    }

    /// Reads one value of this knob as `front` spells it (a flag's value
    /// arrives as the JSON value its text parsed to).
    pub fn read(&self, front: Front, v: &Value) -> Result<Val, String> {
        let wrong = |expected: &str| format!("{} must be {expected}", self.spelled(front));
        match self.kind {
            Kind::Count { max } => {
                match v.as_u64().ok_or_else(|| wrong("a non-negative integer"))? {
                    n if n > max => Err(wrong(&format!("at most {max}, got {n}"))),
                    n => Ok(Val::Int(n)),
                }
            }
            Kind::Real if front == Front::Manifest => v
                .as_str()
                .and_then(|text| crate::snap::parse_hex_u64(text.as_bytes()))
                .map(|bits| Val::Real(f64::from_bits(bits)))
                .ok_or_else(|| wrong("a 16-digit hex float")),
            Kind::Real => v.as_f64().map(Val::Real).ok_or_else(|| wrong("a number")),
            Kind::Switch => v.as_bool().map(Val::Switch).ok_or_else(|| wrong("a boolean")),
            Kind::Name { what: kind, all } => {
                let name = v.as_str().ok_or_else(|| wrong("a string"))?;
                let all = all();
                all.iter().copied().find(|known| known.name() == Some(name)).ok_or_else(|| {
                    let names: Vec<&str> = all.iter().filter_map(|known| known.name()).collect();
                    crate::suggest::unknown_key(kind, name, &names)
                })
            }
        }
    }
}

/// The configuration every knob's default is set on.
fn engine_default() -> SimConfig {
    SimConfig::new(0, pgas::Machine::default(), OptLevel::Subspace)
}

/// A `usize` field's count.
const COUNT: Kind = Kind::Count { max: usize::MAX as u64 };

/// Every knob, in `bhsnap/v1` manifest order.
#[rustfmt::skip]
pub static ROWS: [Knob; 26] = [
    row("nbodies", COUNT, Source::FrontEnd(Val::Int(16_384), None), field!(nbodies))
        .flag("--n", "number of bodies", "n"),
    row("seed", Kind::Count { max: u64::MAX }, Source::Engine(Val::Int(DEFAULT_SEED)), field!(seed))
        .flag("--seed", "workload RNG seed", "seed"),
    row("theta", Kind::Real, Source::Scenario(|t| t.theta), field!(theta))
        .flag("--theta", "opening criterion", "theta"),
    row("eps", Kind::Real, Source::Scenario(|t| t.eps), field!(eps))
        .flag("--eps", "softening", "eps"),
    row("dt", Kind::Real, Source::Scenario(|t| t.dt), field!(dt))
        .flag("--dt", "time step", "dt"),
    row("steps", COUNT, Source::Engine(Val::Int(4)), field!(steps))
        .flag("--steps", "time steps to run", "steps"),
    row("measured_steps", COUNT, Source::Window(2), field!(measured_steps))
        .flag("--measured", "trailing steps measured", "measured"),
    row("tree_policy.name", Kind::Name { what: "tree policy", all: || {
        TreePolicy::NAMES.map(|n| Val::Policy(TreePolicy::from_name(n).expect("a listed name"))).to_vec()
    } }, Source::Engine(Val::Policy(TreePolicy::Rebuild)), field!(tree_policy))
        .flag("--tree-policy", "tree lifecycle across steps", "policy"),
    row("tree_policy.rebuild_every", COUNT, Source::Engine(Val::Int(TreePolicy::DEFAULT_REBUILD_EVERY as u64)), reuse!(rebuild_every))
        .flag("--rebuild-every", "full rebuild cadence", "rebuild_every"),
    row("tree_policy.drift_threshold", Kind::Real, Source::Engine(Val::Real(TreePolicy::DEFAULT_DRIFT_THRESHOLD)), reuse!(drift_threshold))
        .flag("--drift-threshold", "drifted-leaf fraction forcing a rebuild", "drift_threshold"),
    row("walk", Kind::Name { what: "walk mode", all: || WalkMode::ALL.map(Val::Walk).to_vec() },
        Source::Engine(Val::Walk(WalkMode::PerBody)), field!(walk))
        .flag("--walk", "force-walk traversal mode", "walk"),
    row("build", Kind::Name { what: "tree build", all: || TreeBuild::ALL.map(Val::Build).to_vec() },
        Source::Engine(Val::Build(TreeBuild::Insertion)), field!(build))
        .flag("--build", "tree-construction algorithm", "build"),
    row("opt", Kind::Name { what: "optimization level", all: || OptLevel::ALL.map(Val::Opt).to_vec() },
        Source::Engine(Val::Opt(OptLevel::Subspace)), field!(opt))
        .flag("--opt", "upc optimization level", "opt"),
    row("machine.nodes", COUNT, Source::FrontEnd(Val::Int(4), Some(Val::Int(2))), field!(machine.nodes))
        .flag("--nodes", "emulated nodes", "nodes"),
    row("machine.threads_per_node", COUNT, Source::Engine(Val::Int(1)), field!(machine.threads_per_node))
        .flag("--threads-per-node", "UPC threads per node", "threads_per_node"),
    row("machine.pthreads", Kind::Switch, Source::Engine(Val::Switch(false)), field!(machine.pthreads))
        .flag("--pthreads", "emulate the -pthreads runtime", "pthreads"),
    row("n1", COUNT, Source::Engine(Val::Int(4)), field!(n1)),
    row("n2", COUNT, Source::Engine(Val::Int(4)), field!(n2)),
    row("n3", COUNT, Source::Engine(Val::Int(4)), field!(n3)),
    row("alpha", Kind::Real, Source::Pinned(Val::Real(SUBSPACE_ALPHA)), PINNED),
    row("vector_reduction", Kind::Switch, Source::Engine(Val::Switch(true)), field!(vector_reduction)),
    row("fine_grained_fields", Kind::Count { max: u32::MAX as u64 }, Source::Engine(Val::Int(3)), field!(fine_grained_fields)),
    row("leaf_capacity", COUNT, Source::Pinned(Val::Int(LEAF_CAPACITY as u64)), PINNED),
    row("max_depth", COUNT, Source::Pinned(Val::Int(MAX_DEPTH as u64)), PINNED),
    row("shadow_cache", Kind::Switch, Source::Engine(Val::Switch(false)), field!(shadow_cache)),
    row("software_scalar_cache", Kind::Switch, Source::Engine(Val::Switch(false)), field!(software_scalar_cache)),
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
        if knob.value(&cfg).is_none() {
            if given.is_some() {
                let policy = find(Front::Manifest, "tree_policy.name").expect("the policy row");
                let policy = policy.spelled(front);
                return Err(format!("{} requires {policy} reuse", knob.spelled(front)));
            }
            continue;
        }
        let value = match (given, knob.source) {
            (Some(given), _) => knob.read(front, given)?,
            (None, _) if front == Front::Manifest => {
                return Err(format!("missing {}", knob.spelled(front)))
            }
            // The engine's default is what `cfg` already holds.
            (None, Source::Engine(_) | Source::Pinned(_)) => continue,
            (None, Source::Window(n)) => Val::Int(n.min(cfg.steps as u64)),
            (None, Source::Scenario(pick)) => Val::Real(pick(tuning)),
            (None, Source::FrontEnd(flag, _)) if front == Front::Flag => flag,
            (None, Source::FrontEnd(_, wire)) => {
                wire.ok_or_else(|| format!("{} is required", knob.spelled(front)))?
            }
        };
        if let Source::Pinned(want) = knob.source {
            if value != want {
                return Err(format!("{} must be {want}, got {value}", knob.spelled(front)));
            }
        }
        (knob.set)(&mut cfg, value);
    }
    Ok(cfg)
}

/// `cfg` as a manifest's `config` object: every knob that applies, in row
/// order, reals as bit-exact hex.
pub fn encode(cfg: &SimConfig) -> Value {
    let mut entries: Vec<(String, Value)> = Vec::new();
    for knob in &ROWS {
        let Some(value) = knob.value(cfg) else { continue };
        let value = match value {
            Val::Int(n) => Value::UInt(n),
            Val::Real(x) => Value::String(crate::snap::hex_string(&x.to_bits().to_be_bytes())),
            Val::Switch(on) => Value::Bool(on),
            named => Value::String(named.to_string()),
        };
        let Some((outer, inner)) = knob.key.split_once('.') else {
            entries.push((knob.key.to_string(), value));
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

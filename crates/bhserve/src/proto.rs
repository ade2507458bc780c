//! The `bhserve` request/response vocabulary.
//!
//! Every frame payload is one JSON object.  Requests carry an `op` field;
//! responses carry `ok` — `true` with op-specific fields, or `false` with a
//! stable machine-readable `code` and a human-readable `error`.  The
//! configuration codes (`E_NBODIES`, `E_DT`, ..., and the capability
//! table's `E_UNSUPPORTED`/`E_SESSION_POLICY`) are relayed verbatim from
//! [`engine::ConfigError`], so a remote client sees exactly the vocabulary
//! a local [`engine::Caps::check`] caller does; the service adds its own
//! codes (see the `E_*` consts here) for protocol, dispatch, session and
//! quota failures.
//!
//! The vendored serde stack serializes but does not deserialize, so
//! requests are decoded by hand over the [`Value`] tree.
//!
//! Body state in `snapshot` responses is **bit-exact**: every `f64` is
//! encoded as the 16-hex-digit big-endian rendering of its IEEE-754 bits
//! ([`hex_f64`]), never as a JSON float, so a snapshot round-trips with no
//! precision loss and session-equivalence can be pinned bit-for-bit.

use engine::knobs::{self, Front};
use engine::{BackendRegistry, ConfigError, SimConfig};
use scenarios::Registry as ScenarioRegistry;
use serde::Value;

/// Malformed request: not a JSON object, missing/ill-typed fields.
pub const E_PROTO: &str = "E_PROTO";
/// The `op` field names no operation this server understands.
pub const E_UNKNOWN_OP: &str = "E_UNKNOWN_OP";
/// The `scenario` field names no registered scenario.
pub const E_UNKNOWN_SCENARIO: &str = "E_UNKNOWN_SCENARIO";
/// The `backend` field names no registered backend.
pub const E_UNKNOWN_BACKEND: &str = "E_UNKNOWN_BACKEND";
/// The backend's capability row rejects the configuration ([`engine::caps`]).
pub const E_UNSUPPORTED: &str = ConfigError::E_UNSUPPORTED;
/// The `session` field names no live session on this connection.
pub const E_NO_SESSION: &str = "E_NO_SESSION";
/// Sessions require the per-step rebuild tree policy ([`engine::caps`]).
pub const E_SESSION_POLICY: &str = ConfigError::E_SESSION_POLICY;
/// The connection reached its live-session cap.
pub const E_SESSION_LIMIT: &str = "E_SESSION_LIMIT";
/// The server was started without a snapshot store (`--snap-dir`), so
/// `suspend`/`resume` are not offered.
pub const E_SNAP_UNAVAILABLE: &str = "E_SNAP_UNAVAILABLE";
/// The `token` field names no snapshot in the server's store.
pub const E_NO_SNAPSHOT: &str = "E_NO_SNAPSHOT";
/// The token's snapshot exists but failed integrity or schema checks.
pub const E_SNAP_CORRUPT: &str = "E_SNAP_CORRUPT";
/// The tenant's deterministic cost ledger reached its quota.
pub const E_QUOTA_EXCEEDED: &str = "E_QUOTA_EXCEEDED";
/// The server is shedding load: its bounded in-flight limit is reached.
/// The rejection carries a `retry_after_ms` hint; clients should back off
/// and retry ([`crate::server::Client::call_with_retry`] does).
pub const E_OVERLOADED: &str = "E_OVERLOADED";

/// A rejected request: the stable code, the human-readable message, and any
/// op-specific extra fields (quota rejections attach the counter, usage and
/// limit).
#[derive(Debug, Clone)]
pub struct Reject {
    /// Stable machine-readable code.
    pub code: String,
    /// Human-readable description.
    pub error: String,
    /// Extra response fields appended after `code`/`error`.
    pub extra: Vec<(String, Value)>,
}

/// A configuration the capability table rejects answers with its code.
impl From<ConfigError> for Reject {
    fn from(e: ConfigError) -> Reject {
        Reject::new(e.code, e.to_string())
    }
}

impl Reject {
    /// A rejection with no extra fields.
    pub fn new(code: &str, error: impl Into<String>) -> Reject {
        Reject { code: code.to_string(), error: error.into(), extra: Vec::new() }
    }

    /// Renders the rejection as its wire object.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("ok".to_string(), Value::Bool(false)),
            ("code".to_string(), Value::String(self.code.clone())),
            ("error".to_string(), Value::String(self.error.clone())),
        ];
        fields.extend(self.extra.iter().cloned());
        Value::Object(fields)
    }
}

/// Builds an `ok: true` response object from op-specific fields.
pub fn ok_response(fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("ok".to_string(), Value::Bool(true))];
    all.extend(fields);
    Value::Object(all)
}

/// The bit-exact wire encoding of an `f64` — the 16-hex-digit big-endian
/// rendering of its IEEE-754 bits — and its decoder, which takes exactly 16
/// hex digits (either case) and nothing else.  The one codec the snapshot
/// store's chunks use (`engine::snap`), so a value reads the same on the
/// wire and on disk.
pub use snapstore::{hex_f64, unhex_f64};

/// One fully-decoded job: a scenario, a backend and the complete
/// [`SimConfig`] the engine will run.
#[derive(Debug, Clone)]
pub struct Job {
    /// Scenario registry key.
    pub scenario: String,
    /// Backend registry key.
    pub backend: String,
    /// The full solver configuration (checked by the caller against the
    /// backend's [`engine::Caps`] row).
    pub cfg: SimConfig,
}

pub(crate) fn str_of(v: &Value, key: &str) -> Result<Option<String>, Reject> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(Reject::new(E_PROTO, format!("field {key:?} must be a string"))),
    }
}

pub(crate) fn u64_of(v: &Value, key: &str) -> Result<Option<u64>, Reject> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => val.as_u64().map(Some).ok_or_else(|| {
            Reject::new(E_PROTO, format!("field {key:?} must be a non-negative integer"))
        }),
    }
}

/// The required string field every accounted request carries.
pub fn tenant_of(v: &Value) -> Result<String, Reject> {
    str_of(v, "tenant")?.ok_or_else(|| Reject::new(E_PROTO, "field \"tenant\" is required"))
}

/// The keys a `run` or `open` request may carry besides the knob table's.
const JOB_KEYS: [&str; 4] = ["op", "tenant", "scenario", "backend"];

/// Decodes the job description shared by the `run` and `open` operations.
///
/// Scenario (default `plummer`) and backend (default `upc`) name registry
/// entries; every other key is a row of [`engine::knobs`], read and
/// defaulted exactly as `bhsim` reads its flags (`n` is required).  A key
/// that is neither fails with `E_PROTO`, unknown scenario and backend keys
/// with their own codes, each with the shared did-you-mean
/// ([`engine::suggest::unknown_key`]).
pub fn decode_job(
    v: &Value,
    scenarios: &ScenarioRegistry,
    backends: &BackendRegistry,
) -> Result<Job, Reject> {
    for (key, _) in v.as_object().unwrap_or_default() {
        if !JOB_KEYS.contains(&key.as_str()) && knobs::find(Front::Wire, key).is_none() {
            let known: Vec<&str> =
                JOB_KEYS.into_iter().chain(knobs::names_on(Front::Wire)).collect();
            return Err(Reject::new(E_PROTO, engine::suggest::unknown_key("job key", key, &known)));
        }
    }
    let scenario_name = str_of(v, "scenario")?.unwrap_or_else(|| "plummer".to_string());
    let backend_name = str_of(v, "backend")?.unwrap_or_else(|| "upc".to_string());

    let scenario = scenarios.get(&scenario_name).ok_or_else(|| {
        Reject::new(
            E_UNKNOWN_SCENARIO,
            engine::suggest::unknown_key("scenario", &scenario_name, &scenarios.names()),
        )
    })?;
    if backends.get(&backend_name).is_none() {
        return Err(Reject::new(
            E_UNKNOWN_BACKEND,
            engine::suggest::unknown_key("backend", &backend_name, &backends.names()),
        ));
    }

    let cfg = knobs::config(Front::Wire, v, &scenario.recommended_config())
        .map_err(|e| Reject::new(E_PROTO, e))?;
    Ok(Job { scenario: scenario_name, backend: backend_name, cfg })
}

/// Renders the measured outcome of one engine run (or one session step
/// chunk) as the response fields every dispatch path shares.  The counters
/// are `RankStats` summed over ranks, serialized as the `stats` object of
/// `bhsim --json` is, but spread into the top level.
pub fn run_fields(result: &engine::SimResult, wall_ms: f64) -> Vec<(String, Value)> {
    let phases = Value::Object(
        engine::Phase::ALL
            .iter()
            .map(|&p| (p.key().to_string(), Value::Float(result.phases.get(p))))
            .collect(),
    );
    let mut fields = vec![
        ("wall_ms".to_string(), Value::Float(wall_ms)),
        ("phases".to_string(), phases),
        ("total_sim".to_string(), Value::Float(result.total)),
        ("migration_fraction".to_string(), Value::Float(result.migration_fraction)),
        ("tree_bytes".to_string(), Value::UInt(result.tree_bytes)),
    ];
    if let Value::Object(stats) = serde::Serialize::to_value(&result.total_stats()) {
        fields.extend(stats);
    }
    fields
}

/// Renders a body list as the bit-exact snapshot encoding.
pub fn snapshot_bodies(bodies: &[nbody::Body]) -> Value {
    Value::Array(
        bodies
            .iter()
            .map(|b| {
                let vec3 = |v: nbody::Vec3| {
                    Value::Array(vec![
                        Value::String(hex_f64(v.x)),
                        Value::String(hex_f64(v.y)),
                        Value::String(hex_f64(v.z)),
                    ])
                };
                Value::Object(vec![
                    ("id".to_string(), Value::UInt(b.id as u64)),
                    ("mass".to_string(), Value::String(hex_f64(b.mass))),
                    ("pos".to_string(), vec3(b.pos)),
                    ("vel".to_string(), vec3(b.vel)),
                    ("acc".to_string(), vec3(b.acc)),
                    ("phi".to_string(), Value::String(hex_f64(b.phi))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use barnes_hut_upc::backends;
    use scenarios::builtin;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn hex_encoding_is_bit_exact() {
        for v in [0.0, -0.0, 1.0, -1.5, f64::MIN_POSITIVE, 1.0 / 3.0, 6.02214076e23] {
            let bits = v.to_bits();
            assert_eq!(unhex_f64(&hex_f64(v)).unwrap().to_bits(), bits);
        }
        assert_eq!(unhex_f64("zz"), None);
        assert_eq!(unhex_f64("0123"), None, "length must be exactly 16");
        assert_eq!(unhex_f64("+fffffffffffffff"), None, "16 characters, but a sign is no digit");
    }

    #[test]
    fn jobs_decode_with_defaults_and_full_axes() {
        let scenarios = builtin();
        let registry = backends();
        let job = decode_job(&parse(r#"{"n": 64}"#), &scenarios, &registry).unwrap();
        assert_eq!(job.scenario, "plummer");
        assert_eq!(job.backend, "upc");
        assert_eq!(job.cfg.nbodies, 64);
        assert_eq!(job.cfg.steps, 4);
        assert_eq!(job.cfg.measured_steps, 2);
        assert_eq!(job.cfg.opt, engine::OptLevel::Subspace);
        assert!(job.cfg.validate().is_ok());

        let full = parse(
            r#"{"n": 128, "scenario": "king", "backend": "upc", "opt": "cache-local-tree",
                "policy": "reuse", "rebuild_every": 4, "drift_threshold": 0.5,
                "walk": "group", "steps": 8, "measured": 4, "seed": 9,
                "nodes": 4, "threads_per_node": 2, "theta": 0.8, "eps": 0.1, "dt": 0.01}"#,
        );
        let job = decode_job(&full, &scenarios, &registry).unwrap();
        assert_eq!(job.scenario, "king");
        assert_eq!(job.cfg.opt, engine::OptLevel::CacheLocalTree);
        let reuse = engine::TreePolicy::Reuse { rebuild_every: 4, drift_threshold: 0.5 };
        assert_eq!(job.cfg.tree_policy, reuse);
        assert_eq!(job.cfg.walk, engine::WalkMode::Group);
        assert_eq!(job.cfg.seed, 9);
        assert_eq!(job.cfg.machine.nodes, 4);
        assert_eq!(job.cfg.machine.threads_per_node, 2);
        assert_eq!(job.cfg.theta, 0.8);
    }

    #[test]
    fn unknown_keys_reject_with_did_you_mean() {
        let scenarios = builtin();
        let registry = backends();
        let err = decode_job(&parse(r#"{"n": 64, "scenario": "plumer"}"#), &scenarios, &registry)
            .unwrap_err();
        assert_eq!(err.code, E_UNKNOWN_SCENARIO);
        assert!(err.error.contains("did you mean \"plummer\"?"), "{}", err.error);
        let err = decode_job(&parse(r#"{"n": 64, "backend": "driect"}"#), &scenarios, &registry)
            .unwrap_err();
        assert_eq!(err.code, E_UNKNOWN_BACKEND);
        assert!(err.error.contains("did you mean \"direct\"?"), "{}", err.error);
    }

    #[test]
    fn rejects_render_their_code_and_extras() {
        let mut reject = Reject::new(E_QUOTA_EXCEEDED, "over quota");
        reject.extra.push(("used".to_string(), Value::UInt(101)));
        let v = reject.to_value();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_str(), Some(E_QUOTA_EXCEEDED));
        assert_eq!(v.get("used").unwrap().as_u64(), Some(101));
        let ok = ok_response(vec![("pong".to_string(), Value::Bool(true))]);
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
    }
}

//! The knob table, row by row: a non-default value set as a `bhsim` flag,
//! as a `bhserve` job key and as a `bhsnap/v1` manifest field builds one
//! `SimConfig`; every default is the one the row states; the run's `spec`
//! names every flag's value and reruns as the same run; and a served job
//! runs what `bhsim` runs.  One loop over `engine::knobs::ROWS`, so a fuzzer
//! over the table can start from it.

use std::process::Command;

use barnes_hut_upc::engine::cli::Args;
use barnes_hut_upc::engine::knobs::{self, Front, Kind, Knob, Source, ROWS};
use barnes_hut_upc::prelude::*;
use bhserve::proto::{decode_job, E_PROTO};
use serde::Value;

fn no_usage() -> ! {
    panic!("a well-formed command line must not reach usage")
}

/// `flags` read the way `bhsim` reads them, then assembled.
fn from_flags(flags: &[String], tuning: &Tuning) -> Result<SimConfig, String> {
    let known: Vec<&str> = knobs::names_on(Front::Flag).collect();
    let mut args = Args::new("knobs", &known, no_usage, flags.to_vec());
    let mut given = Vec::new();
    while let Some(flag) = args.next() {
        assert!(knobs::take_flag(&mut args, &flag, &mut given), "{flag} is a knob's flag");
    }
    knobs::config(Front::Flag, &Value::Object(given), tuning)
}

/// The job `fields` describe, decoded the way `bhserve` decodes a `run`.
fn from_wire(fields: Vec<(&str, Value)>) -> Result<SimConfig, bhserve::Reject> {
    let request = Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    decode_job(&request, &scenario_registry(), &backend_registry()).map(|job| job.cfg)
}

/// A manifest's `config` object decoded the way snapstore decodes it.
fn from_manifest(manifest: &Value) -> Result<SimConfig, String> {
    knobs::config(Front::Manifest, manifest, &Tuning::default())
}

/// The entry `key` of the object `v`, made if missing.
fn entry<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = v else { panic!("{key}: not in an object") };
    if !fields.iter().any(|(k, _)| k == key) {
        fields.push((key.to_string(), Value::Null));
    }
    &mut fields.iter_mut().find(|(k, _)| k == key).expect("just made").1
}

/// Sets the (dotted) manifest `key` to `value`.
fn put(manifest: &mut Value, key: &str, value: Value) {
    *match key.split_once('.') {
        Some((outer, inner)) => entry(entry(manifest, outer), inner),
        None => entry(manifest, key),
    } = value;
}

/// A value of `knob` other than the one `cfg` holds.
fn other(knob: &Knob, cfg: &SimConfig) -> Value {
    match (knob.kind, knob.value(cfg).expect("the knob applies")) {
        (Kind::Name { choices, .. }, now) => {
            let name =
                choices().into_iter().map(|(name, _)| name).find(|&n| now.as_str() != Some(n));
            Value::String(name.unwrap().to_string())
        }
        (_, Value::UInt(n)) => Value::UInt(if n > 1 { n - 1 } else { n + 1 }),
        (_, Value::Float(x)) => Value::Float(x / 2.0),
        (_, Value::Bool(on)) => Value::Bool(!on),
        (_, now) => unreachable!("{}: only a name knob holds {now:?}", knob.key),
    }
}

type Spelled = (Vec<String>, Vec<(&'static str, Value)>, Value);

/// `values` over bhsim's defaults as flags, as wire fields and as a
/// manifest.
fn spell(values: &[(&Knob, Value)], default: &SimConfig) -> Spelled {
    let mut flags = Vec::new();
    // The wire has no default for `n` and another for `nodes`: give bhsim's.
    let nodes = Value::UInt(default.machine.nodes as u64);
    let mut wire = vec![("n", Value::UInt(default.nbodies as u64)), ("nodes", nodes)];
    // A manifest has no defaults: under reuse, the reuse parameters are
    // written out.
    let mut base = default.clone();
    if values.iter().any(|(_, value)| value.as_str() == Some("reuse")) {
        base.tree_policy = reuse();
    }
    let mut manifest = knobs::encode(Front::Manifest, &base);
    for (knob, value) in values {
        if let Some((flag, _)) = knob.flag {
            flags.push(flag.to_string());
            if !matches!(value, Value::Bool(_)) {
                flags.push(knobs::text(value));
            }
        }
        if let Some(key) = knob.wire {
            wire.retain(|(k, _)| *k != key);
            wire.push((key, value.clone()));
        }
        let written = match value {
            Value::Float(x) => Value::String(snapstore::hex_f64(*x)),
            other => other.clone(),
        };
        put(&mut manifest, knob.key, written);
    }
    (flags, wire, manifest)
}

/// The reuse policy with its default parameters.
fn reuse() -> TreePolicy {
    TreePolicy::from_name("reuse").unwrap()
}

#[test]
fn every_row_reads_alike_on_every_front_end() {
    let tuning = Tuning::default();
    let default = from_flags(&[], &tuning).unwrap();
    let policy = knobs::find(Front::Manifest, "tree_policy.name").unwrap();
    for knob in &ROWS {
        // A reuse parameter is set under the reuse policy.
        let under: Vec<(&Knob, Value)> = match knob.source {
            Source::Reuse => vec![(policy, Value::String("reuse".to_string()))],
            _ => Vec::new(),
        };
        let base = from_flags(&spell(&under, &default).0, &tuning).unwrap();
        let value = other(knob, &base);
        let (flags, wire, manifest) =
            spell(&[under.clone(), vec![(knob, value.clone())]].concat(), &default);
        let read = from_manifest(&manifest);
        if let Source::Pinned = knob.source {
            let err = read.expect_err("a pinned constant at another value");
            assert!(err.contains(knob.key), "{}: {err}", knob.key);
            continue;
        }
        let read = read.unwrap_or_else(|e| panic!("{}: {e}", knob.key));
        assert_eq!(knob.value(&read), Some(value.clone()), "{}", knob.key);
        if knob.flag.is_none() {
            let encoded = knobs::encode(Front::Manifest, &read);
            assert_eq!(encoded, manifest, "{}: only a manifest spells it", knob.key);
            continue;
        }
        let flagged = from_flags(&flags, &tuning).unwrap();
        let served = from_wire(wire).unwrap_or_else(|e| panic!("{}: {}", knob.key, e.error));
        assert_eq!(format!("{flagged:?}"), format!("{read:?}"), "{}: flag vs manifest", knob.key);
        assert_eq!(format!("{served:?}"), format!("{read:?}"), "{}: wire vs manifest", knob.key);
        // The spec of `bhsim --json` names the value, and the wire reads it
        // back as the same run.
        let spec = knobs::encode(Front::Wire, &flagged);
        assert_eq!(spec.get(knob.wire.unwrap()), Some(&value), "{}: spec", knob.key);
        let job: Vec<(&str, Value)> =
            spec.as_object().unwrap().iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let rerun = from_wire(job).unwrap_or_else(|e| panic!("{}: {}", knob.key, e.error));
        assert_eq!(format!("{rerun:?}"), format!("{flagged:?}"), "{}: spec rerun", knob.key);
        // Every name of a name knob reads back as itself.
        if let Kind::Name { choices, .. } = knob.kind {
            for (name, _) in choices() {
                let cfg = from_flags(&[flags[0].clone(), name.to_string()], &tuning).unwrap();
                assert_eq!(knob.value(&cfg), Some(Value::String(name.to_string())));
            }
        }
        // Without the reuse policy every front end refuses a reuse parameter.
        if !under.is_empty() {
            let (flags, wire, manifest) = spell(&[(knob, value)], &default);
            let err = from_flags(&flags, &tuning).unwrap_err();
            assert_eq!(err, format!("{} requires --tree-policy reuse", flags[0]));
            assert_eq!(from_wire(wire).unwrap_err().code, E_PROTO);
            assert!(from_manifest(&manifest).unwrap_err().contains("requires"));
        }
    }
}

#[test]
fn every_default_is_the_one_its_row_states() {
    let n = Value::UInt;
    for knob in &ROWS {
        let mut engine = SimConfig::new(1, Machine::default(), OptLevel::Subspace);
        let (mut flags, mut job) = (Vec::new(), vec![("n", n(8))]);
        if let Source::Reuse = knob.source {
            engine.tree_policy = reuse();
            flags = vec!["--tree-policy".to_string(), "reuse".to_string()];
            job.push(("policy", Value::String("reuse".to_string())));
        }
        let flagged = from_flags(&flags, &Tuning::default()).unwrap();
        let served = from_wire(job).unwrap();
        match knob.source {
            // No front end moves an engine default.
            Source::Engine | Source::Reuse | Source::Pinned => {
                let want = knob.value(&engine);
                assert!(want.is_some(), "{}", knob.key);
                assert_eq!(knob.value(&flagged), want, "{}", knob.key);
                assert_eq!(knob.value(&served), want, "{}", knob.key);
            }
            Source::Window(window) => {
                assert_eq!(engine.measured_steps as u64, window);
                // A run shorter than the window measures all of it.
                let short = from_flags(&["--steps".into(), "1".into()], &Tuning::default());
                assert_eq!(short.unwrap().measured_steps, 1);
                let short = from_wire(vec![("n", n(8)), ("steps", n(1))]);
                assert_eq!(short.unwrap().measured_steps, 1);
            }
            Source::Scenario(pick) => {
                for scenario in scenario_registry().iter() {
                    let tuning = scenario.recommended_config();
                    let want = Some(Value::Float(pick(&tuning)));
                    assert_eq!(knob.value(&from_flags(&[], &tuning).unwrap()), want);
                    let name = Value::String(scenario.name().to_string());
                    let served = from_wire(vec![("n", n(8)), ("scenario", name)]).unwrap();
                    assert_eq!(knob.value(&served), want, "{}", knob.key);
                }
            }
            Source::FrontEnd(flag, wire) => {
                assert_eq!(knob.value(&flagged), Some(n(flag)), "{}", knob.key);
                match wire {
                    Some(wire) => assert_eq!(knob.value(&served), Some(n(wire)), "{}", knob.key),
                    None => assert!(from_wire(vec![]).unwrap_err().error.contains("is required")),
                }
            }
        }
    }
}

#[test]
fn an_unknown_job_key_is_refused_with_a_suggestion() {
    for (key, near) in [("stpes", "steps"), ("biuld", "build"), ("tenent", "tenant")] {
        let err = from_wire(vec![("n", Value::UInt(8)), (key, Value::UInt(1))]).unwrap_err();
        assert_eq!(err.code, E_PROTO);
        assert!(err.error.contains(&format!("did you mean {near:?}?")), "{}", err.error);
    }
}

#[test]
fn a_served_job_runs_what_bhsim_runs() {
    // The post-paper fast path in -pthreads mode: lock-free, so the
    // simulated clock and every counter repeat exactly.
    let flags = "--opt cache-local-tree --build sorted --walk group --pthreads --n 512 --nodes 2";
    let out = Command::new(env!("CARGO_BIN_EXE_bhsim"))
        .args(flags.split(' ').chain(["--json"]))
        .output()
        .expect("spawn bhsim");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let report: Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("--json parses");
    let (scenarios, backends) = (scenario_registry(), backend_registry());
    let server = bhserve::Server::start(Default::default(), scenarios, backends).unwrap();
    let mut client = bhserve::Client::connect(&server.addr()).unwrap();
    // The row's `spec` is the job: add the op, a tenant and the registry keys.
    let mut job = report.get("spec").and_then(Value::as_object).expect("spec").to_vec();
    job.push(("op".to_string(), Value::String("run".to_string())));
    job.push(("tenant".to_string(), Value::String("t".to_string())));
    for key in ["scenario", "backend"] {
        job.push((key.to_string(), report.get(key).cloned().expect(key)));
    }
    let reply = client.call(&Value::Object(job)).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "{reply:?}");
    assert_eq!(reply.get("total_sim"), report.get("total_sim"));
    for (key, value) in report.get("stats").and_then(Value::as_object).expect("stats") {
        assert_eq!(reply.get(key), Some(value), "{key}");
    }
    assert_eq!(reply.get("lock_acquires").and_then(Value::as_u64), Some(0));
}

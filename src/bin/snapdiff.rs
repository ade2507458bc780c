//! `snapdiff` — structural diff between two snapstore checkpoints.
//!
//! Compares two `bhsnap/v1` manifests at the chunk level (which columns of
//! which body set moved, how much of the content-addressed store the two
//! snapshots share) and, with `--bodies`, materializes both body sets for a
//! bit-exact field-level comparison.
//!
//! ```text
//! snapdiff ckpt/step-0004.json ckpt/step-0006.json
//! snapdiff --bodies a/step-0008.json b/step-0008.json
//! snapdiff --json ckpt/step-0004.json ckpt/step-0006.json
//! ```
//!
//! Exit status: 0 when the snapshots are bit-identical, 1 when they differ,
//! 2 on usage or store errors — so scripts (the CI checkpoint smoke) can
//! assert equality without parsing output.

use std::path::Path;

use barnes_hut_upc::engine::cli::Args;
use snapstore::{diff_bodies, diff_manifests, load_manifest, load_state, SnapDiff};

struct Options {
    a: String,
    b: String,
    bodies: bool,
    json: bool,
}

fn usage() -> String {
    "usage: snapdiff [--bodies] [--json] MANIFEST_A MANIFEST_B\n\
         \n\
         Compares two snapstore checkpoint manifests:\n\
           default    chunk-level diff (which columns moved, shared storage)\n\
           --bodies   additionally load both body sets and report bit-exact\n\
                      per-field counts and the largest displacement\n\
           --json     machine-readable output\n\
         \n\
         exit status: 0 identical, 1 different, 2 error\n"
        .to_string()
}

fn parse_args() -> Options {
    let mut positional: Vec<String> = Vec::new();
    let mut bodies = false;
    let mut json = false;
    let mut args = Args::from_env("snapdiff", &["--bodies", "--json"], usage);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bodies" => bodies = true,
            "--json" => json = true,
            _ => positional.push(arg),
        }
    }
    let Ok([a, b]) = <[String; 2]>::try_from(positional) else {
        args.reject("expected exactly two manifest paths")
    };
    Options { a, b, bodies, json }
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("snapdiff: {e}");
    std::process::exit(2)
}

fn diff_value(diff: &SnapDiff, delta: Option<&snapstore::BodyDelta>) -> serde::Value {
    let columns = diff
        .columns
        .iter()
        .map(|c| {
            serde::Value::Object(vec![
                ("set".to_string(), serde::Value::String(c.set.to_string())),
                ("column".to_string(), serde::Value::String(c.column.to_string())),
                ("chunks_a".to_string(), serde::Value::UInt(c.chunks_a as u64)),
                ("chunks_b".to_string(), serde::Value::UInt(c.chunks_b as u64)),
                ("changed".to_string(), serde::Value::UInt(c.changed as u64)),
            ])
        })
        .collect();
    let mut entries = vec![
        ("identical".to_string(), serde::Value::Bool(diff.identical)),
        ("same_run".to_string(), serde::Value::Bool(diff.same_run)),
        ("step_a".to_string(), serde::Value::UInt(diff.step_a as u64)),
        ("step_b".to_string(), serde::Value::UInt(diff.step_b as u64)),
        ("anchor_step_a".to_string(), serde::Value::UInt(diff.anchor_step_a as u64)),
        ("anchor_step_b".to_string(), serde::Value::UInt(diff.anchor_step_b as u64)),
        ("generation_a".to_string(), serde::Value::UInt(diff.generation_a)),
        ("generation_b".to_string(), serde::Value::UInt(diff.generation_b)),
        ("chunks_union".to_string(), serde::Value::UInt(diff.chunks_union as u64)),
        ("chunks_shared".to_string(), serde::Value::UInt(diff.chunks_shared as u64)),
        ("shared_fraction".to_string(), serde::Value::Float(diff.shared_fraction())),
        ("columns".to_string(), serde::Value::Array(columns)),
    ];
    if let Some(d) = delta {
        entries.push((
            "bodies".to_string(),
            serde::Value::Object(vec![
                ("compared".to_string(), serde::Value::UInt(d.compared as u64)),
                ("unmatched".to_string(), serde::Value::UInt(d.unmatched as u64)),
                ("moved".to_string(), serde::Value::UInt(d.moved as u64)),
                ("kicked".to_string(), serde::Value::UInt(d.kicked as u64)),
                ("changed".to_string(), serde::Value::UInt(d.changed as u64)),
                ("max_displacement".to_string(), serde::Value::Float(d.max_displacement)),
                ("identical".to_string(), serde::Value::Bool(d.identical())),
            ]),
        ));
    }
    serde::Value::Object(entries)
}

fn main() {
    let opts = parse_args();
    let a = load_manifest(Path::new(&opts.a)).unwrap_or_else(|e| fail(e));
    let b = load_manifest(Path::new(&opts.b)).unwrap_or_else(|e| fail(e));
    let diff = diff_manifests(&a, &b);

    let delta = if opts.bodies {
        let state_a = load_state(Path::new(&opts.a)).unwrap_or_else(|e| fail(e));
        let state_b = load_state(Path::new(&opts.b)).unwrap_or_else(|e| fail(e));
        Some(diff_bodies(&state_a.bodies, &state_b.bodies))
    } else {
        None
    };

    if opts.json {
        struct Raw(serde::Value);
        impl serde::Serialize for Raw {
            fn to_value(&self) -> serde::Value {
                self.0.clone()
            }
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&Raw(diff_value(&diff, delta.as_ref())))
                .expect("serialize diff")
        );
    } else {
        if !diff.same_run {
            eprintln!(
                "snapdiff: note: the manifests describe different runs \
                 ({}/{} seed {} n {} vs {}/{} seed {} n {})",
                a.scenario,
                a.backend,
                a.cfg.seed,
                a.cfg.nbodies,
                b.scenario,
                b.backend,
                b.cfg.seed,
                b.cfg.nbodies,
            );
        }
        println!(
            "steps {} -> {} | anchors {} -> {} | tree generations {} -> {}",
            diff.step_a,
            diff.step_b,
            diff.anchor_step_a,
            diff.anchor_step_b,
            diff.generation_a,
            diff.generation_b,
        );
        println!(
            "chunks: {} shared of {} referenced ({:.1}% of the store reused)",
            diff.chunks_shared,
            diff.chunks_union,
            100.0 * diff.shared_fraction()
        );
        if diff.identical {
            println!("snapshots are bit-identical");
        } else {
            for c in &diff.columns {
                println!(
                    "  {:>6}.{:<5} {} of {} chunk(s) changed{}",
                    c.set,
                    c.column,
                    c.changed,
                    c.chunks_a.max(c.chunks_b),
                    if c.chunks_a != c.chunks_b { " (length changed)" } else { "" }
                );
            }
        }
        if let Some(d) = &delta {
            println!(
                "bodies: {} compared, {} moved, {} kicked, {} changed in any field, \
                 max displacement {:.3e}{}",
                d.compared,
                d.moved,
                d.kicked,
                d.changed,
                d.max_displacement,
                if d.unmatched > 0 {
                    format!(", {} unmatched", d.unmatched)
                } else {
                    String::new()
                }
            );
        }
    }

    let identical = diff.identical && delta.as_ref().is_none_or(|d| d.identical());
    std::process::exit(if identical { 0 } else { 1 })
}

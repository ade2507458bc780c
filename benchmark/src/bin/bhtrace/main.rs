//! `bhtrace` — the per-layer half of the benchmark.
//!
//! Links the workspace crates and records a span around every call it makes
//! into a layer's public functions, keeps the spans in memory, writes them
//! to `<out-dir>/trace.json` at exit, and reports each layer's self time
//! (span minus children) beside the counts taken at the same boundaries.
//! Host time *inside* a phase or a request is not visible from out here.
//!
//! Half of the window goes to the workload, traced; the probes (fixed-size
//! calls into single layers) take roughly the other half.  End-to-end
//! metrics are never taken from this binary.

mod probes;
mod sim;
mod traced;

use std::process::ExitCode;

use bhmark::cli;
use bhmark::host::{self, CpuPlan, Provenance};
use bhmark::metrics;
use bhmark::report::{self, Metric, Tally};
use serde::Value;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bhtrace: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let plan = CpuPlan::detect();
    // Calls into the layers run where the binaries run: on the program CPU.
    // Load-generator threads move themselves to the driver's.
    if plan.confined() {
        host::pin_current_thread(&plan.program);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("bhtrace: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    Provenance::collect(&plan, &args.out_dir).print(args.seed, args.seconds);
    println!(
        "# traced run: per-layer metrics only; simulated times end in sim_s, the rest is host time"
    );
    if args.quick {
        println!("# --quick: sizes / 8, two cycles; a smoke run, not a measurement");
    }

    let layers = sim::Layers::builtin();
    let (probe_values, probe_tally) = probes::run(&layers, args.seed, args.quick);
    let env = traced::Env { args: &args, plan: &plan, layers: &layers };
    let defs = metrics::per_layer();

    let mut all_correct = true;
    let mut last = String::new();
    let mut traces: Vec<(String, Value)> = Vec::new();
    for name in args.workloads() {
        let mut run = traced::run(&env, name, args.seconds / 2.0);
        run.values.extend(probe_values.clone());
        let mut tally = Tally::default();
        tally.absorb(run.tally);
        tally.absorb(probe_tally.clone());
        for unknown in run.values.keys().filter(|k| !defs.iter().any(|d| d.name == **k)) {
            tally.fail(format!("bhtrace produced an undeclared metric {unknown}"));
        }

        let reported: Vec<Metric> = defs
            .iter()
            .map(|d| Metric::new(&d.name, d.unit, run.values.get(&d.name).copied().unwrap_or(0.0)))
            .collect();
        report::print_metrics(name, &reported, &[]);
        report::print_tally(name, &tally);
        for (span_name, t) in run.tracer.totals() {
            println!(
                "{name:<18}   span {span_name:<32} n={:<6} total {:>11.3} ms  self {:>11.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        all_correct &= tally.failed == 0;
        last = report::result_line(&tally, &reported);
        println!("RESULT {name} {last}");
        traces.push((name.to_string(), run.tracer.to_value()));
    }

    let trace_path = args.out_dir.join("trace.json");
    let text = serde_json::to_string(&Value::Object(traces)).expect("the emitter is infallible");
    if let Err(e) = std::fs::write(&trace_path, text) {
        eprintln!("bhtrace: cannot write {}: {e}", trace_path.display());
        return ExitCode::from(2);
    }
    println!("# spans written to {}", trace_path.display());
    if args.workload.is_some() {
        println!("{last}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

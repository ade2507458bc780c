//! `benchsuite` — the performance subsystem's driver: sweeps scenario ×
//! backend × opt-level × machine-shape through the engine's backend
//! registry, repeats each point, measures the force-kernel A-B pair, and
//! emits a schema-versioned bench record (`BENCH_*.json`) plus a human
//! table.
//!
//! ```text
//! benchsuite                          # full suite, table to stdout
//! benchsuite --out BENCH_0009.json    # full suite, regenerates the baseline
//! benchsuite --quick --baseline BENCH_0009.json --threshold 25
//!                                     # the CI perf gate: quick grid only,
//!                                     # diffed against the committed record
//! ```
//!
//! Exit codes: `0` success, `1` perf regression vs the baseline, `2` usage
//! error, `3` schema violation or I/O failure.

use bh_bench::suite;
use engine::bench::{diff_against_baseline, kernel_regressions, Record};

struct Options {
    quick: bool,
    reps: Option<usize>,
    out: Option<String>,
    baseline: Option<String>,
    threshold_pct: f64,
    json: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            quick: false,
            reps: None,
            out: None,
            baseline: None,
            threshold_pct: 25.0,
            json: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: benchsuite [options]\n\
         \n\
         sweep:\n\
           --quick              run only the quick grid (small n, 1 rep) and\n\
                                the quick kernel pair — the CI perf-smoke mode\n\
           --reps K             override repetitions per sweep point\n\
         \n\
         output:\n\
           --out PATH           write the JSON record to PATH\n\
           --json               print the JSON record to stdout instead of the table\n\
         \n\
         perf gate:\n\
           --baseline PATH      diff deterministic metrics against a committed\n\
                                BENCH_*.json; exit 1 on regression\n\
           --threshold PCT      regression threshold in percent (default 25)\n"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let value = |arg: Option<String>, flag: &str| -> String {
        arg.unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--quick" => opts.quick = true,
            "--json" => opts.json = true,
            "--reps" => {
                opts.reps = Some(value(args.next(), "--reps").parse().unwrap_or_else(|_| {
                    eprintln!("invalid --reps");
                    usage()
                }))
            }
            "--out" => opts.out = Some(value(args.next(), "--out")),
            "--baseline" => opts.baseline = Some(value(args.next(), "--baseline")),
            "--threshold" => {
                opts.threshold_pct =
                    value(args.next(), "--threshold").parse().unwrap_or_else(|_| {
                        eprintln!("invalid --threshold");
                        usage()
                    })
            }
            other => {
                const FLAGS: [&str; 7] =
                    ["--help", "--quick", "--json", "--reps", "--out", "--baseline", "--threshold"];
                match engine::suggest::suggest(other, FLAGS) {
                    Some(near) => eprintln!("unknown option: {other} (did you mean {near}?)"),
                    None => eprintln!("unknown option: {other}"),
                }
                usage()
            }
        }
    }
    if opts.threshold_pct <= 0.0 {
        eprintln!("--threshold must be positive");
        usage()
    }
    opts
}

fn fail_schema(msg: &str) -> ! {
    eprintln!("benchsuite: {msg}");
    std::process::exit(3)
}

fn main() {
    let opts = parse_args();

    eprintln!(
        "benchsuite: running the {} suite (threshold {}%)",
        if opts.quick { "quick" } else { "full" },
        opts.threshold_pct
    );
    let record = suite::run_suite(opts.quick, opts.reps, |line| eprintln!("  {line}"))
        .unwrap_or_else(|e| fail_schema(&e));

    let json = record.to_json();
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{json}\n"))
            .unwrap_or_else(|e| fail_schema(&format!("cannot write {path}: {e}")));
        eprintln!("benchsuite: record written to {path}");
    }
    if opts.json {
        println!("{json}");
    } else {
        print!("{}", suite::human_table(&record));
    }

    let threshold = opts.threshold_pct / 100.0;
    let mut failed = false;

    // The within-record kernel gate: the leaf-coalesced kernel must not lose
    // to the per-body walk it replaced by more than the slack (same host,
    // same seconds — the one wall-clock comparison that is meaningful
    // everywhere).  The kernel wins by ~5-15 % depending on size, so a
    // genuine loss past 25 % means the coalescing win has clearly eroded;
    // anything tighter starts flagging scheduler noise on loaded CI
    // runners (the measurements are a few milliseconds each).
    const KERNEL_GATE_SLACK: f64 = 0.25;
    let kernel_bad = kernel_regressions(&record, KERNEL_GATE_SLACK);
    for r in &kernel_bad {
        eprintln!(
            "benchsuite: KERNEL REGRESSION {}: coalesced {:.3} ms vs per-body {:.3} ms ({:+.1}%)",
            r.key,
            r.current,
            r.baseline,
            100.0 * (r.ratio - 1.0)
        );
        failed = true;
    }

    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail_schema(&format!("cannot read baseline {path}: {e}")));
        let baseline = Record::from_json(&text)
            .unwrap_or_else(|e| fail_schema(&format!("baseline {path}: {e}")));
        let diff = diff_against_baseline(&record, &baseline, threshold);
        eprintln!(
            "benchsuite: baseline {path}: {} point(s) compared, {} unmatched, {} regression(s)",
            diff.compared,
            diff.unmatched.len(),
            diff.regressions.len()
        );
        if !diff.protocol_mismatches.is_empty() {
            for m in &diff.protocol_mismatches {
                eprintln!("benchsuite: PROTOCOL MISMATCH {m}");
            }
            fail_schema(&format!(
                "baseline {path} was produced under a different measurement protocol — \
                 regenerate it with the full suite"
            ));
        }
        if diff.compared == 0 {
            fail_schema(&format!(
                "baseline {path} shares no sweep points with this run — stale baseline?"
            ));
        }
        // The symmetric direction of the diff: a baseline point this run
        // should have reproduced but did not means a run or kernel engine
        // silently vanished from the grid — its regressions would be
        // unobservable, so the gate fails rather than passing by omission.
        // The one exception is an axis addition the record schema declares
        // (`new_axes`): the grid legitimately restructured around a new key
        // dimension, so those absences are reported without failing and the
        // baseline should be regenerated to re-arm the strict gate.
        if !diff.new_axes.is_empty() {
            eprintln!(
                "benchsuite: baseline predates the {} key axis(es); grid restructuring allowed \
                 — regenerate the baseline to re-arm the symmetric gate",
                diff.new_axes.join(", ")
            );
        }
        for m in &diff.missing_allowed {
            eprintln!("benchsuite: missing {m} (allowed: axis addition)");
        }
        for m in &diff.missing {
            eprintln!("benchsuite: MISSING {m} (present in baseline, absent from this run)");
            failed = true;
        }
        for line in diff.describe_regressions() {
            eprintln!("benchsuite: REGRESSION {line}");
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
}

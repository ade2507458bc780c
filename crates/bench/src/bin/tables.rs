//! `tables` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p bh-bench --release --bin tables -- --all
//! cargo run -p bh-bench --release --bin tables -- table2 table5 fig13
//! cargo run -p bh-bench --release --bin tables -- --bodies 32768 --threads 1,4,16,64 table8
//! cargo run -p bh-bench --release --bin tables -- --json results/ --all
//! ```
//!
//! All times are *simulated* seconds produced by the PGAS cost model.

use bh_bench::claims::CLAIMS;
use bh_bench::experiments::{self, Runs};
use bh_bench::{Experiment, Scale, EXPERIMENTS};
use engine::cli::{reject, Args};
use std::path::PathBuf;

struct Options {
    scale: Scale,
    json_dir: Option<PathBuf>,
    experiments: Vec<&'static Experiment>,
    quiet: bool,
}

fn usage() -> String {
    format!(
        "usage: tables [options] (--all | <experiment>...)\n\
         \n\
         experiments: {}\n\
         \n\
         options:\n\
           --bodies N         strong-scaling body count        (default 8192; paper 2097152)\n\
           --weak-bodies N    weak-scaling bodies per thread   (default 512;  paper 250000)\n\
           --threads a,b,c    strong-scaling thread counts     (default 1,2,4,8,16,32,64,96,112)\n\
           --weak-threads a,b weak-scaling thread counts       (default 16,32,64,128,256)\n\
           --steps N          time steps to run                (default 4)\n\
           --measured N       trailing steps to measure        (default 2)\n\
           --seed N           Plummer seed\n\
           --paper-scale      use the paper's full workload sizes (very slow)\n\
           --smoke            tiny workload, for checking the harness\n\
           --json DIR         also write each result as JSON into DIR\n\
           --quiet            suppress progress output\n\
           --help             print this help and exit\n\
         \n\
         Each distinct run is made once and shared by every experiment that reads it.\n\
         Under each experiment, one line per claim of the paper that reads it:\n\
         claim <id> | <section> | paper: ... | here: ... | holds / does not hold / reported\n",
        EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
    )
}

/// Every flag `tables` accepts (see [`engine::cli::Args`]); any other word
/// names an experiment.
const FLAGS: &[&str] = &[
    "--all",
    "--quiet",
    "--paper-scale",
    "--smoke",
    "--bodies",
    "--weak-bodies",
    "--threads",
    "--weak-threads",
    "--steps",
    "--measured",
    "--seed",
    "--json",
];

/// A per-field flag's effect on the [`Scale`], applied after the preset.
type Override = Box<dyn FnOnce(&mut Scale)>;

/// Presets (`--smoke`, `--paper-scale`) pick the whole [`Scale`]; the
/// per-field flags override it wherever they stand on the command line.
fn parse_args(mut args: Args) -> Options {
    let mut scale = Scale::default_scale();
    let mut overrides: Vec<Override> = Vec::new();
    let mut json_dir = None;
    let mut experiments = Vec::new();
    let mut all = false;
    let mut quiet = false;

    fn list(args: &mut Args, flag: &str) -> Vec<usize> {
        let text = args.value(flag);
        text.split(',').map(|part| args.parse(flag, part.trim())).collect()
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--quiet" => quiet = true,
            "--paper-scale" => scale = Scale::paper(),
            "--smoke" => scale = Scale::smoke(),
            "--bodies" => {
                let n = args.number("--bodies");
                overrides.push(Box::new(move |s| s.bodies = n));
            }
            "--weak-bodies" => {
                let n = args.number("--weak-bodies");
                overrides.push(Box::new(move |s| s.weak_bodies_per_thread = n));
            }
            "--steps" => {
                let n = args.number("--steps");
                overrides.push(Box::new(move |s| s.steps = n));
            }
            "--measured" => {
                let n = args.number("--measured");
                overrides.push(Box::new(move |s| s.measured_steps = n));
            }
            "--seed" => {
                let seed = args.number("--seed");
                overrides.push(Box::new(move |s| s.seed = seed));
            }
            "--threads" => {
                let threads = list(&mut args, "--threads");
                overrides.push(Box::new(move |s| s.strong_threads = threads));
            }
            "--weak-threads" => {
                let threads = list(&mut args, "--weak-threads");
                overrides.push(Box::new(move |s| s.weak_threads = threads));
            }
            "--json" => {
                let dir = PathBuf::from(args.value("--json"));
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    args.reject(&format!("--json {}: {e}", dir.display()))
                }
                json_dir = Some(dir);
            }
            name => match Experiment::named(name) {
                Some(e) => experiments.push(e),
                None => {
                    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                    args.reject(&engine::suggest::unknown_key("experiment", name, &known))
                }
            },
        }
    }
    if !all && experiments.is_empty() {
        args.reject("name an experiment or pass --all");
    }
    for apply in overrides {
        apply(&mut scale);
    }
    if all {
        experiments = EXPERIMENTS.iter().collect();
    }
    Options { scale, json_dir, experiments, quiet }
}

fn main() {
    let opts = parse_args(Args::from_env("tables", FLAGS, usage));
    let scale = &opts.scale;
    eprintln!(
        "workload: {} bodies strong / {} bodies-per-thread weak; threads {:?}; {} steps ({} measured)",
        scale.bodies,
        scale.weak_bodies_per_thread,
        scale.strong_threads,
        scale.steps,
        scale.measured_steps
    );
    let points =
        experiments::plan(&opts.experiments, scale).unwrap_or_else(|e| reject("tables", usage, &e));
    eprintln!("running {} distinct points ...", points.len());
    let progress = (!opts.quiet).then_some(points.len());

    // Each experiment prints as soon as its own points have run.
    let mut runs = Runs::default();
    let mut printed = Vec::new();
    for exp in &opts.experiments {
        runs.add(&exp.points(scale), progress);
        let output = exp.render(scale, &runs);
        println!("================================================================");
        println!("{}", output.render());
        printed.push(exp.name);
        for claim in CLAIMS.iter().filter(|c| c.prints_after(&printed)) {
            println!("{}", claim.line(scale, &runs));
        }
        if let Some(dir) = &opts.json_dir {
            let path = dir.join(format!("{}.json", exp.name));
            let json = serde_json::to_string_pretty(&output).expect("serialize experiment output");
            if let Err(e) = std::fs::write(&path, json) {
                reject("tables", usage, &format!("cannot write {}: {e}", path.display()))
            }
            eprintln!("  wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_of(line: &[&str]) -> Scale {
        let words = line.iter().map(|w| w.to_string()).collect();
        parse_args(Args::new("tables", FLAGS, usage, words)).scale
    }

    #[test]
    fn overrides_apply_on_top_of_a_preset_in_either_order() {
        let expected = Scale { bodies: 1024, ..Scale::smoke() };
        assert_eq!(scale_of(&["--all", "--bodies", "1024", "--smoke"]), expected);
        assert_eq!(scale_of(&["--all", "--smoke", "--bodies", "1024"]), expected);
        let paper = Scale { strong_threads: vec![1, 4], seed: 9, ..Scale::paper() };
        assert_eq!(
            scale_of(&["--threads", "1, 4", "--seed", "9", "--paper-scale", "table8"]),
            paper
        );
    }
}

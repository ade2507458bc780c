//! The command line both binaries take:
//! `--workload NAME --seed N --seconds S --trace 0|1 [--quick]`.

use std::path::PathBuf;

use crate::workload;

/// Seed used when none is given (the paper appeared at SC 2011).
pub const DEFAULT_SEED: u64 = 2011;
/// Measurement window when none is given; `BENCHMARK.json` names the same.
pub const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One workload, or `None` for all five in order.
    pub workload: Option<String>,
    pub seed: u64,
    /// How long each workload measures.
    pub seconds: f64,
    pub trace: bool,
    /// Sizes ÷ 8 and one cycle: a smoke run, never a measurement.
    pub quick: bool,
    /// Where the release binaries under test are.
    pub bin_dir: PathBuf,
    /// Scratch space for stores and `trace.json`.
    pub out_dir: PathBuf,
}

pub const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]

  --workload NAME   one of: ladder-fine-4k, ladder-cached-16k, reuse-group-16k,
                    serve-mix, checkpoint-cycle (default: all five in turn)
  --seed N          every input is derived from it (default 2011)
  --seconds S       measurement window per workload (default 15)
  --trace [0|1]     0: end-to-end metrics, untraced (default)
                    1 or no value: per-layer metrics from the traced driver
  --quick           sizes / 8, one cycle; a smoke run, not for gating
  --bin-dir DIR     release binaries under test (default $CARGO_TARGET_DIR/release)
  --out-dir DIR     scratch directory (default benchmark/out)";

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        bin_dir: PathBuf::from(target).join("release"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !workload::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        workload::NAMES.join(", ")
                    ));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                let text = value("--seed")?;
                out.seed = text.parse().map_err(|_| format!("--seed: {text:?} is not a number"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                out.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: {text:?} is not a positive number"))?;
            }
            // `--trace 0|1` is what an outside driver passes; a bare
            // `--trace` is the traced run.
            "--trace" => {
                out.trace = args.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            "--quick" => out.quick = true,
            "--bin-dir" => out.bin_dir = PathBuf::from(value("--bin-dir")?),
            "--out-dir" => out.out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(out)
}

impl Args {
    /// The workloads this invocation runs, in order.
    pub fn workloads(&self) -> Vec<&'static str> {
        workload::NAMES
            .into_iter()
            .filter(|n| self.workload.as_deref().is_none_or(|w| w == *n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(text: &str) -> Result<Args, String> {
        parse(text.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = parse_str("--workload serve-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-mix"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 10.0, true, false));
        assert_eq!(a.workloads(), vec!["serve-mix"]);
        assert!(!parse_str("--trace 0 --quick").unwrap().trace);
        assert!(parse_str("--trace --quick").unwrap().trace, "a bare --trace is the traced run");
    }

    #[test]
    fn defaults_run_every_workload_untraced() {
        let a = parse_str("").unwrap();
        assert_eq!(a.workloads().len(), 5);
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, DEFAULT_SECONDS, false));
    }

    #[test]
    fn bad_input_is_refused_with_the_reason() {
        assert!(parse_str("--workload nope").unwrap_err().contains("unknown workload"));
        assert!(parse_str("--seconds 0").unwrap_err().contains("positive"));
        assert!(parse_str("--seconds").unwrap_err().contains("needs a value"));
        assert!(parse_str("--trace yes").unwrap_err().contains("unknown option"));
        assert!(parse_str("--frobnicate").unwrap_err().contains("unknown option"));
    }
}

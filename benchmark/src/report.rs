//! What a run reports: operations attempted and failed, the metrics with
//! their units and samples, and the one-line JSON result.

use serde::Value;

use crate::stats;

/// Operations attempted and failed.  A failure is anything a user would
/// count as one: a non-zero exit, output that does not parse, a response
/// with `ok: false` (a refused request misses every latency limit), or a
/// correctness check that does not hold.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    const MAX_REASONS: usize = 8;

    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < Self::MAX_REASONS {
            self.reasons.push(why.into());
        }
    }

    /// Counts one check; returns whether it held.
    pub fn check(&mut self, holds: bool, why: impl FnOnce() -> String) -> bool {
        if holds {
            self.pass();
        } else {
            self.fail(why());
        }
        holds
    }

    /// Counts one server response: anything but `ok: true` is a failure.
    pub fn response(&mut self, response: &Value) -> bool {
        let ok = response.get("ok").and_then(Value::as_bool) == Some(true);
        self.check(ok, || {
            let code = response.get("code").and_then(Value::as_str).unwrap_or("no code");
            let error = response.get("error").and_then(Value::as_str).unwrap_or("");
            format!("request refused: {code} {error}")
        })
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::MAX_REASONS.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported number and the samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The per-cycle or per-operation samples behind `value` (empty for
    /// counts and totals).
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value, samples: Vec::new() }
    }

    /// A metric whose value is the median of `samples` times `scale`.
    /// An empty sample set reports 0.
    pub fn median_of(
        name: impl Into<String>,
        unit: &'static str,
        samples: Vec<f64>,
        scale: f64,
    ) -> Metric {
        let samples: Vec<f64> = samples.into_iter().map(|s| s * scale).collect();
        let value = if samples.is_empty() { 0.0 } else { stats::median(&samples) };
        Metric { name: name.into(), unit, value, samples }
    }
}

/// The last line of standard output: `correct`, `attempted`, `failed` and
/// the metrics by name.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::String(m.unit.to_string())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(tally.failed == 0 && tally.attempted > 0)),
        ("attempted".to_string(), Value::UInt(tally.attempted.max(1))),
        ("failed".to_string(), Value::UInt(tally.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("the vendored emitter is infallible")
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may worsen.
    pub bound: f64,
}

impl Declared {
    /// How much worse `now` is than `reference`, as a share of `reference`
    /// (negative when it is better).
    pub fn worsening(&self, reference: f64, now: f64) -> f64 {
        let change = (now - reference) / reference.abs();
        if self.higher_is_better {
            -change
        } else {
            change
        }
    }
}

/// The end-to-end metrics declared in `BENCHMARK.json`, so bounds and
/// directions have one home.  Empty when the text is not such a file.
pub fn declared(benchmark_json: &str) -> Vec<Declared> {
    let Ok(spec) = serde_json::from_str(benchmark_json) else { return Vec::new() };
    let Some(metrics) = spec.get("end_to_end").and_then(Value::as_array) else { return Vec::new() };
    metrics
        .iter()
        .filter_map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// Prints the metrics of one workload, one per line: name, value, unit,
/// sample count with quartiles, and the regression bound when known.
pub fn print_metrics(workload: &str, metrics: &[Metric], declared: &[Declared]) {
    for m in metrics {
        let mut line = format!("{workload:<18} {:<44} {:>18.6} {:<8}", m.name, m.value, m.unit);
        if !m.samples.is_empty() {
            line.push_str(&format!(" [{}]", stats::describe(&m.samples)));
        }
        if let Some(d) = declared.iter().find(|d| d.name == m.name) {
            line.push_str(&format!(" bound {:.0}%", d.bound * 100.0));
        }
        println!("{line}");
    }
}

pub fn print_tally(workload: &str, tally: &Tally) {
    println!(
        "{workload:<18} {:<44} {:>18.6} {:<8} [{} failed of {} attempted]",
        "fail_share",
        tally.fail_share(),
        "share",
        tally.failed,
        tally.attempted
    );
    for reason in &tally.reasons {
        println!("{workload:<18} FAILED: {reason}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn a_refused_request_counts_as_a_miss() {
        let mut tally = Tally::default();
        assert!(tally.response(&parse(r#"{"ok": true, "pong": true}"#)));
        assert!(!tally.response(&parse(
            r#"{"ok": false, "code": "E_OVERLOADED", "error": "shedding", "retry_after_ms": 50}"#
        )));
        assert!(!tally.response(&parse(r#"{"pong": true}"#)), "a reply without ok is not ok");
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.fail_share() - 2.0 / 3.0).abs() < 1e-12);
        assert!(tally.reasons[0].contains("E_OVERLOADED"));
    }

    #[test]
    fn tallies_add_up() {
        let mut a = Tally::default();
        a.pass();
        let mut b = Tally::default();
        b.fail("exit status 2");
        b.check(true, || unreachable!());
        a.absorb(b);
        assert_eq!((a.attempted, a.failed), (3, 1));
        assert_eq!(a.reasons, vec!["exit status 2"]);
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut tally = Tally::default();
        tally.pass();
        let metrics = vec![
            Metric::new("setup_s", "s", 0.8127),
            Metric::median_of("op_p50_ms", "ms", vec![0.001, 0.003, 0.002], 1e3),
        ];
        let line = result_line(&tally, &metrics);
        assert!(!line.contains('\n'));
        let v = parse(&line);
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("setup_s").unwrap().get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("op_p50_ms").unwrap().get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(m.get("op_p50_ms").unwrap().get("unit").unwrap().as_str(), Some("ms"));

        tally.fail("boom");
        assert_eq!(
            parse(&result_line(&tally, &metrics)).get("correct").unwrap().as_bool(),
            Some(false)
        );
    }

    #[test]
    fn declarations_come_from_the_benchmark_file() {
        let spec = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "body_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.08}]}"#;
        let d = declared(spec);
        assert_eq!(d.len(), 2);
        assert_eq!(
            (d[0].name.as_str(), d[0].higher_is_better, d[0].bound),
            ("setup_s", false, 0.25)
        );
        assert!(d[1].higher_is_better);
        assert!(declared("not json").is_empty());
        // Lower is better: 1.0 -> 1.1 is 10 % worse.  Higher is better:
        // 100 -> 90 is 10 % worse, 100 -> 120 is 20 % better.
        assert!((d[0].worsening(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((d[1].worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((d[1].worsening(100.0, 120.0) + 0.2).abs() < 1e-12);
    }
}

//! The seeded request script of the `serve-mix` workload.
//!
//! One cycle is 31 requests: 17 one-shot `run` jobs of three sizes, one
//! session driven through `open`, eight `step`s, `query`, `snapshot` and
//! `close`, and two `ping`s.  The order interleaves the session with the
//! other requests by a seeded shuffle; the session's own requests keep their
//! order.  Everything is a function of `(cycle seed, connection)`.

use serde::Value;

/// SplitMix64: the one generator every seed in the benchmark derives from.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A seed derived from `seed` and a list of small integers (workload index,
/// connection, cycle, ...).  Kept below 2^48 so it survives JSON numbers
/// and every `--seed` parser unchanged.
pub fn derive_seed(seed: u64, path: &[u64]) -> u64 {
    let mut rng = SplitMix64(seed);
    for &p in path {
        rng.0 ^= rng.next_u64().wrapping_add(p);
    }
    rng.next_u64() >> 16
}

/// Operation class of a request — the unit latencies are grouped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Run48,
    Run256,
    Run1024,
    Open,
    Step,
    Query,
    Snapshot,
    Close,
    Ping,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Run48 => "run48",
            Class::Run256 => "run256",
            Class::Run1024 => "run1024",
            Class::Open => "open",
            Class::Step => "step",
            Class::Query => "query",
            Class::Snapshot => "snapshot",
            Class::Close => "close",
            Class::Ping => "ping",
        }
    }
}

/// Steps every `run` job asks for (the paper's protocol: 4 steps, the last 2
/// measured).
pub const RUN_STEPS: u64 = 4;
/// `step` requests per session.
pub const SESSION_STEPS: usize = 8;
/// Bodies in the session.
pub const SESSION_BODIES: u64 = 1024;

/// One scripted request.  `Open`'s session id is only known once the server
/// answers, so session requests are rendered against it at send time.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Run { class: Class, scenario: &'static str, n: u64, seed: u64 },
    Open { n: u64, seed: u64 },
    Step,
    Query,
    Snapshot,
    Close,
    Ping,
}

impl Request {
    pub fn class(&self) -> Class {
        match self {
            Request::Run { class, .. } => *class,
            Request::Open { .. } => Class::Open,
            Request::Step => Class::Step,
            Request::Query => Class::Query,
            Request::Snapshot => Class::Snapshot,
            Request::Close => Class::Close,
            Request::Ping => Class::Ping,
        }
    }

    /// Body·steps of simulation this request asks the server to advance.
    pub fn body_steps(&self) -> u64 {
        match self {
            Request::Run { n, .. } => n * RUN_STEPS,
            Request::Step => SESSION_BODIES,
            _ => 0,
        }
    }

    /// The wire object.  `session` is the id the server returned for this
    /// cycle's `open`.
    pub fn to_value(&self, tenant: &str, session: Option<u64>) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut put = |k: &str, v: Value| fields.push((k.to_string(), v));
        let op = match self {
            Request::Run { .. } => "run",
            Request::Open { .. } => "open",
            Request::Step => "step",
            Request::Query => "query",
            Request::Snapshot => "snapshot",
            Request::Close => "close",
            Request::Ping => "ping",
        };
        put("op", Value::String(op.to_string()));
        match self {
            Request::Run { scenario, n, seed, .. } => {
                put("tenant", Value::String(tenant.to_string()));
                put("scenario", Value::String(scenario.to_string()));
                put("n", Value::UInt(*n));
                put("seed", Value::UInt(*seed));
                put("steps", Value::UInt(RUN_STEPS));
                put("measured", Value::UInt(2));
            }
            Request::Open { n, seed } => {
                put("tenant", Value::String(tenant.to_string()));
                put("n", Value::UInt(*n));
                put("seed", Value::UInt(*seed));
            }
            Request::Step => {
                put("session", Value::UInt(session.expect("step before open")));
                put("steps", Value::UInt(1));
            }
            Request::Query | Request::Snapshot | Request::Close => {
                put("session", Value::UInt(session.expect("session request before open")));
            }
            Request::Ping => {}
        }
        Value::Object(fields)
    }
}

/// The 31-request script of one cycle on one connection.
///
/// Job seeds mix in the connection, so the two connections never submit the
/// same job and the server's single-flight coalescing cannot fire by
/// accident.
pub fn build(cycle_seed: u64, conn: u64) -> Vec<Request> {
    let mut rng = SplitMix64(derive_seed(cycle_seed, &[conn]));
    let job_seed = |rng: &mut SplitMix64| rng.next_u64() >> 16;

    let mut free: Vec<Request> = Vec::new();
    for _ in 0..12 {
        let seed = job_seed(&mut rng);
        free.push(Request::Run { class: Class::Run48, scenario: "plummer", n: 48, seed });
    }
    for _ in 0..4 {
        let seed = job_seed(&mut rng);
        free.push(Request::Run { class: Class::Run256, scenario: "king", n: 256, seed });
    }
    let seed = job_seed(&mut rng);
    free.push(Request::Run { class: Class::Run1024, scenario: "plummer", n: 1024, seed });
    free.extend([Request::Ping, Request::Ping]);

    let mut session = vec![Request::Open { n: SESSION_BODIES, seed: job_seed(&mut rng) }];
    session.extend(std::iter::repeat_n(Request::Step, SESSION_STEPS));
    session.extend([Request::Query, Request::Snapshot, Request::Close]);

    // Fisher-Yates over the one-shot requests, then over which of the 31
    // slots belong to the session.
    for i in (1..free.len()).rev() {
        free.swap(i, rng.below(i + 1));
    }
    let total = free.len() + session.len();
    let mut is_session: Vec<bool> = (0..total).map(|i| i < session.len()).collect();
    for i in (1..total).rev() {
        is_session.swap(i, rng.below(i + 1));
    }
    let (mut free, mut session) = (free.into_iter(), session.into_iter());
    is_session
        .into_iter()
        .map(|s| if s { session.next() } else { free.next() }.expect("slot counts match"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_scripts() {
        assert_eq!(build(17, 0), build(17, 0));
        assert_eq!(build(17, 1), build(17, 1));
        assert_ne!(build(17, 0), build(18, 0));
    }

    #[test]
    fn the_two_connections_never_share_a_job() {
        let seeds = |conn: u64| -> Vec<u64> {
            build(99, conn)
                .iter()
                .filter_map(|r| match r {
                    Request::Run { seed, .. } | Request::Open { seed, .. } => Some(*seed),
                    _ => None,
                })
                .collect()
        };
        let (a, b) = (seeds(0), seeds(1));
        assert_eq!(a.len(), 18);
        assert!(a.iter().all(|s| !b.contains(s)), "connections must not coalesce");
        assert_ne!(build(99, 0), build(99, 1));
    }

    #[test]
    fn every_cycle_holds_the_same_mix_with_the_session_in_order() {
        for seed in 0..50 {
            let script = build(seed, seed % 2);
            assert_eq!(script.len(), 31);
            let count = |c: Class| script.iter().filter(|r| r.class() == c).count();
            assert_eq!(count(Class::Run48), 12);
            assert_eq!(count(Class::Run256), 4);
            assert_eq!(count(Class::Run1024), 1);
            assert_eq!(count(Class::Step), SESSION_STEPS);
            assert_eq!(count(Class::Ping), 2);
            let session: Vec<Class> = script
                .iter()
                .map(Request::class)
                .filter(|c| {
                    matches!(
                        c,
                        Class::Open | Class::Step | Class::Query | Class::Snapshot | Class::Close
                    )
                })
                .collect();
            let mut expected = vec![Class::Open];
            expected.extend([Class::Step; SESSION_STEPS]);
            expected.extend([Class::Query, Class::Snapshot, Class::Close]);
            assert_eq!(session, expected);
            let work: u64 = script.iter().map(Request::body_steps).sum();
            assert_eq!(work, (12 * 48 + 4 * 256 + 1024) * RUN_STEPS + 8 * SESSION_BODIES);
        }
    }

    #[test]
    fn derived_seeds_depend_on_every_path_element_and_fit_json_numbers() {
        let base = derive_seed(5, &[1, 2]);
        assert_ne!(base, derive_seed(5, &[2, 1]));
        assert_ne!(base, derive_seed(5, &[1, 3]));
        assert_ne!(base, derive_seed(6, &[1, 2]));
        assert_eq!(base, derive_seed(5, &[1, 2]));
        assert!(base < 1 << 48);
    }

    #[test]
    fn requests_render_the_fields_the_server_decodes() {
        let run = Request::Run { class: Class::Run256, scenario: "king", n: 256, seed: 9 };
        let v = run.to_value("t0", None);
        assert_eq!(v.get("op").unwrap().as_str(), Some("run"));
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("t0"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(256));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(9));
        let step = Request::Step.to_value("t0", Some(4));
        assert_eq!(step.get("session").unwrap().as_u64(), Some(4));
        assert_eq!(Request::Ping.to_value("t0", None).as_object().unwrap().len(), 1);
    }
}

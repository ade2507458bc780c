//! Driving one `serve-mix` connection: send a cycle's script, one request
//! after the previous answer (a closed loop), and keep what each answer
//! says about itself.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use serde::Value;

use crate::report::Tally;
use crate::script::{self, Class, Request, SESSION_STEPS};
use crate::wire::{CallStamps, Conn};

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub stamps: CallStamps,
    /// The engine wall time the server reports for `run` and `step`.
    pub server_wall_ms: Option<f64>,
    /// Whether the server coalesced this `run` into another's engine run.
    pub batched: bool,
    /// Whether the server shed this request (`E_OVERLOADED`).
    pub shed: bool,
}

/// What one pass over the script produced.
#[derive(Debug, Default)]
pub struct Cycle {
    pub samples: Vec<Sample>,
    /// Simulated seconds summed over the cycle's `run` and `step` answers.
    pub sim_s: f64,
    /// Counts and simulated phase seconds summed over the answers, keyed by
    /// the per-layer metric they feed (`bh.interactions`, `bh.force_sim_s`).
    pub counters: Vec<(String, f64)>,
}

/// Response fields summed into [`Cycle::counters`], with the metric each
/// feeds: the emulator's traffic under `pgas`, the solver's work under `bh`.
pub const COUNTER_FIELDS: [(&str, &str); 9] = [
    ("interactions", "bh.interactions"),
    ("macs", "bh.macs"),
    ("tree_ops", "bh.tree_ops"),
    ("tree_bytes", "bh.tree_bytes"),
    ("remote_gets", "pgas.remote_gets"),
    ("remote_puts", "pgas.remote_puts"),
    ("messages", "pgas.messages"),
    ("bytes_in", "pgas.bytes_in"),
    ("lock_acquires", "pgas.lock_acquires"),
];

impl Cycle {
    fn add(&mut self, name: &str, amount: f64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += amount,
            None => self.counters.push((name.to_string(), amount)),
        }
    }
}

pub fn connect(addr: &SocketAddr) -> io::Result<Conn> {
    Conn::connect(addr, Duration::from_secs(10))
}

/// Sends `script` in order on `conn`.  Every answer is counted in `tally`
/// (a refusal is a failure), and the session's `steps_done` is checked after
/// its eight steps.  An I/O error ends the cycle: the connection is gone.
pub fn run_cycle(
    conn: &mut Conn,
    script: &[Request],
    tenant: &str,
    tally: &mut Tally,
) -> io::Result<Cycle> {
    let mut cycle = Cycle::default();
    let mut session: Option<u64> = None;
    for request in script {
        let reply = conn.call(&request.to_value(tenant, session))?;
        let v = &reply.value;
        let ok = tally.response(v);
        let class = request.class();
        cycle.samples.push(Sample {
            class,
            stamps: reply.stamps,
            server_wall_ms: v.get("wall_ms").and_then(Value::as_f64),
            batched: v.get("batched").and_then(Value::as_bool) == Some(true),
            shed: v.get("code").and_then(Value::as_str) == Some("E_OVERLOADED"),
        });
        if !ok {
            continue;
        }
        if let Some(sim) = v.get("total_sim").and_then(Value::as_f64) {
            cycle.sim_s += sim;
            for (field, metric) in COUNTER_FIELDS {
                cycle.add(metric, v.get(field).and_then(Value::as_f64).unwrap_or(0.0));
            }
            for (phase, seconds) in v.get("phases").and_then(Value::as_object).unwrap_or(&[]) {
                cycle.add(&format!("bh.{phase}_sim_s"), seconds.as_f64().unwrap_or(0.0));
            }
        }
        match class {
            Class::Open => session = v.get("session").and_then(Value::as_u64),
            Class::Query | Class::Snapshot => {
                let done = v.get("steps_done").and_then(Value::as_u64);
                tally.check(done == Some(SESSION_STEPS as u64), || {
                    format!("steps_done after {SESSION_STEPS} steps is {done:?}")
                });
            }
            _ => {}
        }
    }
    Ok(cycle)
}

/// Opens a session seeded with `seed`, steps it twice and returns the raw
/// text of its snapshot's `bodies`.  Two connections probing with the same
/// seed must get the same bytes.
pub fn probe(conn: &mut Conn, seed: u64, tenant: &str, tally: &mut Tally) -> io::Result<String> {
    let open = Request::Open { n: script::SESSION_BODIES / 4, seed };
    let reply = conn.call(&open.to_value(tenant, None))?;
    tally.response(&reply.value);
    let session = reply.value.get("session").and_then(Value::as_u64);
    let mut bodies = String::new();
    for request in [Request::Step, Request::Step, Request::Snapshot, Request::Close] {
        if session.is_none() {
            break;
        }
        let reply = conn.call(&request.to_value(tenant, session))?;
        tally.response(&reply.value);
        if request == Request::Snapshot {
            // The session id differs per connection; the bodies must not.
            bodies =
                reply.raw.split_once("\"bodies\":").map_or(String::new(), |(_, b)| b.to_string());
        }
    }
    Ok(bodies)
}

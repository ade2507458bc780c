//! Persistent simulation sessions: a live body state stepped across
//! requests.
//!
//! A `run` job is fire-and-forget; a *session* keeps the simulation alive
//! on the server so a client can `step` it incrementally, `query` its
//! progress and `snapshot` the exact body state at any point.  The
//! contract that makes this safe to offer is the [`engine::Backend`]
//! convention that chunked stepping is **bit-for-bit** identical to one
//! long run under the per-step rebuild tree policy (the advance update is
//! stateless and tree construction is a pure function of body positions).
//! `open` and `resume` enforce the policy through
//! [`engine::Caps::check_session`]; the session-equivalence integration
//! test pins the bit-for-bit claim for every backend.
//!
//! Sessions are owned by their connection — a disconnect (clean or
//! mid-message) tears down every session the connection holds, while the
//! tenant's quota ledger survives, so abandoning a session never refunds
//! spent cost.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::proto::{Job, Reject, E_NO_SESSION, E_SESSION_LIMIT};
use engine::SimConfig;
use nbody::Body;

/// One live simulation: the job it was opened with and the evolving state.
pub struct Session {
    /// Tenant the session's work is charged to.
    pub tenant: String,
    /// The job template (scenario, backend, full config) from `open`.
    pub job: Job,
    /// Current body state, sorted by id (the backend convention).
    pub bodies: Vec<Body>,
    /// Steps advanced so far across all `step` requests.
    pub steps_done: usize,
    /// When the session was last touched (opened or accessed) — the clock
    /// idle eviction reads.
    pub last_used: Instant,
}

impl Session {
    /// A fresh session, stamped as used now.
    pub fn new(tenant: String, job: Job, bodies: Vec<Body>, steps_done: usize) -> Session {
        Session { tenant, job, bodies, steps_done, last_used: Instant::now() }
    }

    /// The configuration for one `k`-step chunk from the current state.
    ///
    /// The chunk measures all of its steps — measurement affects only
    /// timing and counter attribution, never the physics — so each `step`
    /// request reports the full deterministic cost it is charged for.
    pub fn chunk_config(&self, k: usize) -> SimConfig {
        let mut cfg = self.job.cfg.clone();
        cfg.steps = k;
        cfg.measured_steps = k;
        cfg
    }

    /// Adopts the outcome of one `k`-step chunk run.
    pub fn advance(&mut self, k: usize, result: &engine::SimResult) {
        self.bodies = result.bodies.clone();
        self.steps_done += k;
    }
}

/// The sessions owned by one connection.
///
/// Ids come from a server-global counter so log lines and error messages
/// are unambiguous across connections; the table itself is connection-local
/// (no cross-connection session access, and teardown is simply dropping the
/// table).
pub struct SessionTable {
    next_id: Arc<AtomicU64>,
    cap: usize,
    sessions: HashMap<u64, Session>,
}

impl SessionTable {
    /// An empty table drawing ids from `next_id`, holding at most `cap`
    /// concurrent sessions.
    pub fn new(next_id: Arc<AtomicU64>, cap: usize) -> SessionTable {
        SessionTable { next_id, cap, sessions: HashMap::new() }
    }

    /// Admits a new session, enforcing the per-connection cap.
    pub fn open(&mut self, session: Session) -> Result<u64, Reject> {
        if self.sessions.len() >= self.cap {
            return Err(Reject::new(
                E_SESSION_LIMIT,
                format!(
                    "connection already holds {} live sessions (cap {}); close one first",
                    self.sessions.len(),
                    self.cap
                ),
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions.insert(id, session);
        Ok(id)
    }

    /// The live session with this id, or the standard [`E_NO_SESSION`]
    /// rejection.
    pub fn get_mut(&mut self, id: u64) -> Result<&mut Session, Reject> {
        match self.sessions.get_mut(&id) {
            Some(s) => {
                s.last_used = Instant::now();
                Ok(s)
            }
            None => {
                Err(Reject::new(E_NO_SESSION, format!("no live session {id} on this connection")))
            }
        }
    }

    /// Evicts every session idle longer than `max_idle`, returning how many
    /// were dropped.  Called by the connection loop before each request, so
    /// an abandoned-but-connected client cannot pin body state forever (a
    /// fully idle *connection* is reaped by the read deadline, which drops
    /// the whole table).
    pub fn evict_idle(&mut self, max_idle: Duration) -> usize {
        let before = self.sessions.len();
        self.sessions.retain(|_, s| s.last_used.elapsed() <= max_idle);
        before - self.sessions.len()
    }

    /// Closes and returns the session, or rejects if it does not exist.
    pub fn close(&mut self, id: u64) -> Result<Session, Reject> {
        self.sessions.remove(&id).ok_or_else(|| {
            Reject::new(E_NO_SESSION, format!("no live session {id} on this connection"))
        })
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barnes_hut_upc::backends;
    use scenarios::builtin;
    use serde::Value;

    fn job(text: &str) -> Job {
        let v: Value = serde_json::from_str(text).unwrap();
        crate::proto::decode_job(&v, &builtin(), &backends()).unwrap()
    }

    fn session(j: Job) -> Session {
        Session::new("t".to_string(), j, Vec::new(), 0)
    }

    #[test]
    fn table_enforces_cap_and_id_uniqueness() {
        let counter = Arc::new(AtomicU64::new(1));
        let mut table = SessionTable::new(counter.clone(), 2);
        let a = table.open(session(job(r#"{"n": 16}"#))).unwrap();
        let b = table.open(session(job(r#"{"n": 16}"#))).unwrap();
        assert_ne!(a, b);
        let err = table.open(session(job(r#"{"n": 16}"#))).unwrap_err();
        assert_eq!(err.code, E_SESSION_LIMIT);
        table.close(a).unwrap();
        assert_eq!(table.len(), 1);
        // Ids never recycle, even after a close.
        let c = table.open(session(job(r#"{"n": 16}"#))).unwrap();
        assert!(c > b);
        assert_eq!(table.get_mut(a).map(|_| ()).unwrap_err().code, E_NO_SESSION);
        assert_eq!(table.close(a).map(|_| ()).unwrap_err().code, E_NO_SESSION);
    }

    #[test]
    fn idle_sessions_are_evicted_and_touches_keep_them_alive() {
        let counter = Arc::new(AtomicU64::new(1));
        let mut table = SessionTable::new(counter, 4);
        let a = table.open(session(job(r#"{"n": 16}"#))).unwrap();
        let b = table.open(session(job(r#"{"n": 16}"#))).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        table.get_mut(b).unwrap(); // touch b; a stays idle
        assert_eq!(table.evict_idle(Duration::from_millis(20)), 1);
        assert_eq!(table.get_mut(a).map(|_| ()).unwrap_err().code, E_NO_SESSION);
        assert!(table.get_mut(b).is_ok());
        // A generous deadline evicts nothing.
        assert_eq!(table.evict_idle(Duration::from_secs(3600)), 0);
    }

    #[test]
    fn chunk_configs_measure_every_step() {
        let j = job(r#"{"n": 16, "steps": 9, "measured": 1}"#);
        let s = session(j);
        let chunk = s.chunk_config(3);
        assert_eq!(chunk.steps, 3);
        assert_eq!(chunk.measured_steps, 3);
        assert!(chunk.validate().is_ok());
        // The template itself is untouched.
        assert_eq!(s.job.cfg.steps, 9);
    }
}

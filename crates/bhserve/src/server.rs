//! The `bhserve` daemon: accept loop, connection handling and dispatch.
//!
//! One OS thread per connection over blocking sockets — boring on purpose.
//! The expensive resource here is never connection handling (a request is
//! one small JSON object) but the engine runs behind it, so concurrency is
//! governed where it matters: a counting *run gate* caps simultaneous
//! engine runs at [`ServerOptions::max_concurrent_runs`], and everything
//! else (thousands of parked connections, session tables, quota ledgers)
//! is cheap shared state.  Connection threads get small stacks; the engine
//! itself spawns its own worker threads per run and is unaffected.
//!
//! Error discipline per connection:
//!
//! * malformed JSON in a well-formed frame → an [`crate::proto::E_PROTO`]
//!   *response* — the framing is still synchronized, the connection lives;
//! * a framing error (oversized declaration, mid-frame EOF) → the
//!   connection is dropped, because the byte stream is unsynchronized by
//!   construction;
//! * any drop of the connection — clean or not — tears down its sessions
//!   ([`crate::session`]) while the tenant's quota ledger survives.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::frame::{read_frame, write_frame, FaultyStream};
use crate::proto::{
    self, decode_job, ok_response, run_fields, snapshot_bodies, tenant_of, Job, Reject,
    E_OVERLOADED, E_PROTO, E_UNKNOWN_OP,
};
use crate::quota::QuotaBook;
use crate::session::{Session, SessionTable};
use engine::fault::backoff_ms;
use engine::{Backend, BackendRegistry, FaultPlan, SimConfig, SimResult};
use nbody::Body;
use scenarios::Registry as ScenarioRegistry;
use serde::Value;

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Listen address; port 0 picks a free port (reported by
    /// [`Server::addr`]).
    pub addr: String,
    /// Maximum simultaneous engine runs (the run gate's permit count).
    pub max_concurrent_runs: usize,
    /// Interaction quota applied to tenants without an override
    /// (`None` = unmetered).
    pub default_quota: Option<u64>,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(String, u64)>,
    /// Live-session cap per connection.
    pub max_sessions_per_conn: usize,
    /// Snapshot store directory for `suspend`/`resume` (`None` disables
    /// both ops).  The store is plain files, so suspended sessions survive
    /// daemon restarts pointed at the same directory.
    pub snap_dir: Option<String>,
    /// Per-connection read deadline.  Bounds *every* blocking read —
    /// including the pre-first-frame accept state, so a client that
    /// connects and sends nothing cannot hold its thread forever.  `None`
    /// waits indefinitely (the pre-hardening behaviour).
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline: a stalled reader (zero receive
    /// window) fails the write instead of wedging the thread.
    pub write_timeout: Option<Duration>,
    /// Sessions idle longer than this many seconds are evicted (their body
    /// state dropped) the next time their connection submits a request.
    /// `None` keeps sessions until the connection closes.
    pub idle_session_secs: Option<u64>,
    /// Bound on concurrently *dispatching* heavy requests (run/open/step/
    /// resume) across all connections.  Beyond it the server sheds load
    /// with [`E_OVERLOADED`] + a `retry_after_ms` hint instead of queueing
    /// unboundedly behind the run gate.  `None` never sheds.
    pub max_inflight: Option<usize>,
    /// Deterministic fault-injection plan ([`engine::fault`]); frame-level
    /// sites (`frame.*`) fire inside this server's connection streams, and
    /// the plan is forwarded to the snapshot store for `snap.*` sites.
    pub faults: FaultPlan,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            max_concurrent_runs: 2,
            default_quota: None,
            tenant_quotas: Vec::new(),
            max_sessions_per_conn: 16,
            snap_dir: None,
            read_timeout: Some(Duration::from_secs(600)),
            write_timeout: Some(Duration::from_secs(60)),
            idle_session_secs: None,
            max_inflight: None,
            faults: FaultPlan::default(),
        }
    }
}

/// Counting semaphore over the engine: at most `max_concurrent_runs`
/// simulations execute at once; everyone else parks here, holding no other
/// lock.
struct RunGate {
    free: Mutex<usize>,
    cv: Condvar,
}

impl RunGate {
    fn new(permits: usize) -> RunGate {
        RunGate { free: Mutex::new(permits.max(1)), cv: Condvar::new() }
    }

    fn acquire(&self) -> RunPermit<'_> {
        let mut free = self.free.lock().unwrap();
        while *free == 0 {
            free = self.cv.wait(free).unwrap();
        }
        *free -= 1;
        RunPermit { gate: self }
    }

    /// Runs `cfg` on `backend` holding one permit for exactly the engine
    /// call; returns the result and that call's wall milliseconds.  The
    /// one path from `run` and `step` into the engine.
    fn run(&self, backend: &dyn Backend, cfg: &SimConfig, bodies: Vec<Body>) -> (SimResult, f64) {
        let _permit = self.acquire();
        let start = Instant::now();
        let result = backend.run(cfg, bodies);
        (result, start.elapsed().as_secs_f64() * 1e3)
    }
}

struct RunPermit<'a> {
    gate: &'a RunGate,
}

impl Drop for RunPermit<'_> {
    fn drop(&mut self) {
        *self.gate.free.lock().unwrap() += 1;
        self.gate.cv.notify_one();
    }
}

/// State shared by every connection thread.
struct Shared {
    opts: ServerOptions,
    scenarios: ScenarioRegistry,
    backends: BackendRegistry,
    quotas: QuotaBook,
    gate: RunGate,
    session_ids: Arc<AtomicU64>,
    connections: AtomicUsize,
    inflight: AtomicUsize,
    /// The `--snap-dir` store, opened once: its chunk index lives as long
    /// as the daemon, so a `suspend`/`resume` does not re-read every pack
    /// header.  `None` without `--snap-dir`.
    snaps: Option<snapstore::Store>,
}

/// A running `bhserve` instance.
///
/// Dropping the handle (or calling [`Server::stop`]) stops the accept loop;
/// already-connected clients are served until they disconnect.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds, starts the accept loop and returns immediately.
    pub fn start(
        opts: ServerOptions,
        scenarios: ScenarioRegistry,
        backends: BackendRegistry,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let snaps = match &opts.snap_dir {
            Some(dir) => Some(
                snapstore::Store::open(dir)
                    .map_err(|e| io::Error::other(format!("--snap-dir {dir}: {e}")))?
                    .with_faults(opts.faults.clone()),
            ),
            None => None,
        };
        let shared = Arc::new(Shared {
            snaps,
            quotas: QuotaBook::new(opts.default_quota, opts.tenant_quotas.clone()),
            gate: RunGate::new(opts.max_concurrent_runs),
            session_ids: Arc::new(AtomicU64::new(1)),
            connections: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            opts,
            scenarios,
            backends,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let (shared, stop) = (Arc::clone(&shared), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("bhserve-accept".to_string())
                .spawn(move || accept_loop(listener, shared, stop))?
        };
        Ok(Server { addr, stop, accept_thread: Some(accept_thread), shared })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The quota ledger — exposed so operators (and the integration tests)
    /// can audit per-tenant spend against standalone runs.
    pub fn quotas(&self) -> &QuotaBook {
        &self.shared.quotas
    }

    /// Number of currently-connected clients.
    pub fn connections(&self) -> usize {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Number of heavy requests currently dispatching (the load-shedding
    /// counter behind [`ServerOptions::max_inflight`]).
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Stops accepting new connections and joins the accept loop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                // Connection threads mostly park in `read_frame`; the engine
                // runs on its own per-run worker threads, so a small stack
                // keeps thousands of idle clients cheap.
                let spawned = std::thread::Builder::new()
                    .name("bhserve-conn".to_string())
                    .stack_size(256 * 1024)
                    .spawn(move || {
                        shared.connections.fetch_add(1, Ordering::Relaxed);
                        let _ = serve_connection(stream, &shared);
                        shared.connections.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    // Thread exhaustion: drop the connection rather than die.
                    continue;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // The deadlines apply to the underlying socket, so both the reader and
    // the writer clone observe them — including the very first read, which
    // is how a connect-and-say-nothing client gets reaped.
    stream.set_read_timeout(shared.opts.read_timeout)?;
    stream.set_write_timeout(shared.opts.write_timeout)?;
    let mut reader = BufReader::new(FaultyStream::new(stream.try_clone()?, &shared.opts.faults));
    let mut writer = BufWriter::new(FaultyStream::new(stream, &shared.opts.faults));
    // Sessions live exactly as long as this stack frame: any return —
    // clean close, frame error, write failure — drops the table.
    let mut sessions =
        SessionTable::new(Arc::clone(&shared.session_ids), shared.opts.max_sessions_per_conn);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()), // orderly close
            // A read deadline expiring surfaces as WouldBlock (or TimedOut,
            // platform-dependent): the idle-connection reaper path.  Any
            // other error means the stream is unsynchronized; drop it too.
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if let Some(secs) = shared.opts.idle_session_secs {
            sessions.evict_idle(Duration::from_secs(secs));
        }
        let response = match parse_request(&payload) {
            Ok(request) => {
                dispatch(shared, &mut sessions, &request).unwrap_or_else(|r| r.to_value())
            }
            Err(reject) => reject.to_value(),
        };
        let text = serde_json::to_string(&response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_frame(&mut writer, text.as_bytes())?;
    }
}

fn parse_request(payload: &[u8]) -> Result<Value, Reject> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| Reject::new(E_PROTO, "request payload is not UTF-8"))?;
    let value: Value = serde_json::from_str(text)
        .map_err(|e| Reject::new(E_PROTO, format!("request is not valid JSON: {e}")))?;
    if !matches!(value, Value::Object(_)) {
        return Err(Reject::new(E_PROTO, "request must be a JSON object"));
    }
    Ok(value)
}

/// The `retry_after_ms` hint attached to every [`E_OVERLOADED`] shed — a
/// constant so the chaos harness stays deterministic.
pub const RETRY_AFTER_MS: u64 = 25;

/// RAII admission slot for heavy ops under [`ServerOptions::max_inflight`].
struct InflightSlot<'a> {
    shared: &'a Shared,
}

impl<'a> InflightSlot<'a> {
    /// Admits one heavy request or sheds it with [`E_OVERLOADED`].
    fn admit(shared: &'a Shared) -> Result<InflightSlot<'a>, Reject> {
        if let Some(max) = shared.opts.max_inflight {
            let mut cur = shared.inflight.load(Ordering::Relaxed);
            loop {
                if cur >= max {
                    let mut reject = Reject::new(
                        E_OVERLOADED,
                        format!("server is at its in-flight limit ({max}); retry with backoff"),
                    );
                    reject.extra.push(("retry_after_ms".to_string(), Value::UInt(RETRY_AFTER_MS)));
                    return Err(reject);
                }
                match shared.inflight.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        } else {
            shared.inflight.fetch_add(1, Ordering::AcqRel);
        }
        Ok(InflightSlot { shared })
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Ops that reach the engine (or disk) and are therefore metered by the
/// in-flight limit; everything else is cheap bookkeeping and never shed.
const HEAVY_OPS: [&str; 4] = ["run", "open", "step", "resume"];

fn dispatch(
    shared: &Shared,
    sessions: &mut SessionTable,
    request: &Value,
) -> Result<Value, Reject> {
    let op = proto::str_of(request, "op")?
        .ok_or_else(|| Reject::new(E_PROTO, "field \"op\" is required"))?;
    let _slot =
        if HEAVY_OPS.contains(&op.as_str()) { Some(InflightSlot::admit(shared)?) } else { None };
    match op.as_str() {
        "ping" => Ok(ok_response(vec![("pong".to_string(), Value::Bool(true))])),
        "health" => Ok(op_health(shared, sessions)),
        "list" => Ok(op_list(shared)),
        "usage" => op_usage(shared, request),
        "run" => op_run(shared, request),
        "open" => op_open(shared, sessions, request),
        "step" => op_step(shared, sessions, request),
        "query" => op_query(sessions, request),
        "snapshot" => op_snapshot(sessions, request),
        "suspend" => op_suspend(shared, sessions, request),
        "resume" => op_resume(shared, sessions, request),
        "close" => op_close(sessions, request),
        other => {
            const OPS: [&str; 12] = [
                "ping", "health", "list", "usage", "run", "open", "step", "query", "snapshot",
                "suspend", "resume", "close",
            ];
            Err(Reject::new(E_UNKNOWN_OP, engine::suggest::unknown_key("op", other, &OPS)))
        }
    }
}

/// `health`: liveness + load snapshot, never shed and never metered — the
/// op a balancer (or the chaos harness) polls to decide whether a daemon
/// is back after a restart.
fn op_health(shared: &Shared, sessions: &SessionTable) -> Value {
    ok_response(vec![
        ("connections".to_string(), Value::UInt(shared.connections.load(Ordering::Relaxed) as u64)),
        ("inflight".to_string(), Value::UInt(shared.inflight.load(Ordering::Relaxed) as u64)),
        ("sessions".to_string(), Value::UInt(sessions.len() as u64)),
        (
            "max_inflight".to_string(),
            match shared.opts.max_inflight {
                Some(max) => Value::UInt(max as u64),
                None => Value::Null,
            },
        ),
    ])
}

fn op_list(shared: &Shared) -> Value {
    let scenarios = Value::Array(
        shared
            .scenarios
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name().to_string())),
                    ("description".to_string(), Value::String(s.description().to_string())),
                ])
            })
            .collect(),
    );
    let backends = Value::Array(
        shared
            .backends
            .iter()
            .map(|b| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(b.name().to_string())),
                    ("description".to_string(), Value::String(b.description().to_string())),
                    ("sessions".to_string(), Value::Bool(b.caps().sessions())),
                ])
            })
            .collect(),
    );
    ok_response(vec![("scenarios".to_string(), scenarios), ("backends".to_string(), backends)])
}

fn op_usage(shared: &Shared, request: &Value) -> Result<Value, Reject> {
    let tenant = tenant_of(request)?;
    let usage = shared.quotas.usage(&tenant);
    let limit = match shared.quotas.limit(&tenant) {
        Some(limit) => Value::UInt(limit),
        None => Value::Null,
    };
    Ok(ok_response(vec![
        ("tenant".to_string(), Value::String(tenant)),
        ("interactions".to_string(), Value::UInt(usage.interactions)),
        ("tree_ops".to_string(), Value::UInt(usage.tree_ops)),
        ("runs".to_string(), Value::UInt(usage.runs)),
        ("limit".to_string(), limit),
    ]))
}

fn op_run(shared: &Shared, request: &Value) -> Result<Value, Reject> {
    let tenant = tenant_of(request)?;
    shared.quotas.admit(&tenant)?;
    let job = decode_job(request, &shared.scenarios, &shared.backends)?;
    let backend = shared.backends.get(&job.backend).expect("validated at decode");
    backend.caps().check(&job.cfg)?;
    let scenario = shared.scenarios.get(&job.scenario).expect("validated at decode");
    let bodies = scenario.generate(job.cfg.nbodies, job.cfg.seed);
    let (result, wall_ms) = shared.gate.run(backend, &job.cfg, bodies);
    shared.quotas.charge(&tenant, &result.total_stats());
    Ok(ok_response(run_fields(&result, wall_ms)))
}

fn op_open(shared: &Shared, sessions: &mut SessionTable, request: &Value) -> Result<Value, Reject> {
    let tenant = tenant_of(request)?;
    shared.quotas.admit(&tenant)?;
    let job = decode_job(request, &shared.scenarios, &shared.backends)?;
    let backend = shared.backends.get(&job.backend).expect("validated at decode");
    backend.caps().check_session(&job.cfg)?;
    let scenario = shared.scenarios.get(&job.scenario).expect("validated at decode");
    let bodies = scenario.generate(job.cfg.nbodies, job.cfg.seed);
    let id = sessions.open(Session::new(tenant, job, bodies, 0))?;
    Ok(ok_response(vec![("session".to_string(), Value::UInt(id))]))
}

fn op_step(shared: &Shared, sessions: &mut SessionTable, request: &Value) -> Result<Value, Reject> {
    let id = session_id(request)?;
    let k = proto::u64_of(request, "steps")?.unwrap_or(1) as usize;
    if k == 0 {
        return Err(Reject::new(E_PROTO, "field \"steps\" must be at least 1"));
    }
    // Admission is checked against the *session's* tenant — the one the
    // work is charged to — before any engine time is spent.
    let tenant = sessions.get_mut(id)?.tenant.clone();
    shared.quotas.admit(&tenant)?;
    let session = sessions.get_mut(id)?;
    let cfg = session.chunk_config(k);
    let backend = shared.backends.get(&session.job.backend).expect("validated at open");
    let (result, wall_ms) = shared.gate.run(backend, &cfg, session.bodies.clone());
    session.advance(k, &result);
    let steps_done = session.steps_done;
    shared.quotas.charge(&tenant, &result.total_stats());
    let mut fields = vec![
        ("session".to_string(), Value::UInt(id)),
        ("steps_done".to_string(), Value::UInt(steps_done as u64)),
    ];
    fields.extend(run_fields(&result, wall_ms));
    Ok(ok_response(fields))
}

fn op_query(sessions: &mut SessionTable, request: &Value) -> Result<Value, Reject> {
    let id = session_id(request)?;
    let session = sessions.get_mut(id)?;
    Ok(ok_response(vec![
        ("session".to_string(), Value::UInt(id)),
        ("tenant".to_string(), Value::String(session.tenant.clone())),
        ("scenario".to_string(), Value::String(session.job.scenario.clone())),
        ("backend".to_string(), Value::String(session.job.backend.clone())),
        ("n".to_string(), Value::UInt(session.job.cfg.nbodies as u64)),
        ("steps_done".to_string(), Value::UInt(session.steps_done as u64)),
    ]))
}

fn op_snapshot(sessions: &mut SessionTable, request: &Value) -> Result<Value, Reject> {
    let id = session_id(request)?;
    let session = sessions.get_mut(id)?;
    Ok(ok_response(vec![
        ("session".to_string(), Value::UInt(id)),
        ("steps_done".to_string(), Value::UInt(session.steps_done as u64)),
        ("bodies".to_string(), snapshot_bodies(&session.bodies)),
    ]))
}

/// The server's snapshot store, or the standard "not offered" rejection.
fn snap_store(shared: &Shared) -> Result<&snapstore::Store, Reject> {
    shared.snaps.as_ref().ok_or_else(|| {
        Reject::new(
            proto::E_SNAP_UNAVAILABLE,
            "this server was started without --snap-dir; suspend/resume are not offered",
        )
    })
}

/// `suspend`: persist a live session to the snapshot store and close it.
///
/// The response's `token` (the manifest's content hash) is the handle a
/// later `resume` — on this connection, another connection, or a freshly
/// restarted daemon pointed at the same `--snap-dir` — uses to pick the
/// session back up.
fn op_suspend(
    shared: &Shared,
    sessions: &mut SessionTable,
    request: &Value,
) -> Result<Value, Reject> {
    let id = session_id(request)?;
    let store = snap_store(shared)?;
    let session = sessions.get_mut(id)?;
    // Sessions run under the per-step rebuild policy (enforced at `open`),
    // so the state is stateless across steps: the anchor *is* the current
    // bodies and a resume continues from them directly.
    let state = snapstore::SimState {
        scenario: session.job.scenario.clone(),
        backend: session.job.backend.clone(),
        cfg: session.job.cfg.clone(),
        step: session.steps_done,
        anchor_step: session.steps_done,
        tree_generation: 0,
        bodies: session.bodies.clone(),
        anchor: session.bodies.clone(),
    };
    let saved = store
        .save_token(&state)
        .map_err(|e| Reject::new(proto::E_SNAP_CORRUPT, format!("saving snapshot: {e}")))?;
    let session = sessions.close(id).expect("session existed above");
    Ok(ok_response(vec![
        ("suspended".to_string(), Value::UInt(id)),
        ("token".to_string(), Value::String(saved.manifest_hash)),
        ("steps_done".to_string(), Value::UInt(session.steps_done as u64)),
        ("chunks_total".to_string(), Value::UInt(saved.chunks_total as u64)),
        ("chunks_new".to_string(), Value::UInt(saved.chunks_new as u64)),
    ]))
}

/// `resume`: reopen a suspended session from its token.
///
/// The resumed session is owned by *this* connection and charged to the
/// requesting tenant; the snapshot stays in the store (resume is
/// non-destructive, so a token can seed many sessions).
fn op_resume(
    shared: &Shared,
    sessions: &mut SessionTable,
    request: &Value,
) -> Result<Value, Reject> {
    let tenant = tenant_of(request)?;
    shared.quotas.admit(&tenant)?;
    let token = proto::str_of(request, "token")?
        .ok_or_else(|| Reject::new(E_PROTO, "field \"token\" is required"))?;
    // Tokens are manifest hashes; anything else (separators, dots) would let
    // a client address arbitrary files relative to the store.
    if token.len() != 64 || !token.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(Reject::new(E_PROTO, "field \"token\" must be a 64-hex-digit snapshot token"));
    }
    let store = snap_store(shared)?;
    let state = store.load(&token).map_err(|e| match e {
        snapstore::SnapError::Io { ref source, .. } if source.kind() == io::ErrorKind::NotFound => {
            Reject::new(proto::E_NO_SNAPSHOT, format!("token {token} names no snapshot here"))
        }
        snapstore::SnapError::MissingChunk { .. } | snapstore::SnapError::Corrupt { .. } => {
            Reject::new(proto::E_SNAP_CORRUPT, format!("snapshot {token} is damaged: {e}"))
        }
        other => Reject::new(proto::E_SNAP_CORRUPT, format!("loading snapshot {token}: {other}")),
    })?;
    // Re-validate what `open` would have: the snapshot travels through disk,
    // not through this server's decode path.
    let backend = shared.backends.get(&state.backend).ok_or_else(|| {
        Reject::new(
            proto::E_UNKNOWN_BACKEND,
            engine::suggest::unknown_key("backend", &state.backend, &shared.backends.names()),
        )
    })?;
    let job =
        Job { scenario: state.scenario.clone(), backend: state.backend.clone(), cfg: state.cfg };
    backend.caps().check_session(&job.cfg)?;
    let steps_done = state.step;
    let id = sessions.open(Session::new(tenant, job, state.bodies, steps_done))?;
    Ok(ok_response(vec![
        ("session".to_string(), Value::UInt(id)),
        ("steps_done".to_string(), Value::UInt(steps_done as u64)),
    ]))
}

fn op_close(sessions: &mut SessionTable, request: &Value) -> Result<Value, Reject> {
    let id = session_id(request)?;
    let session = sessions.close(id)?;
    Ok(ok_response(vec![
        ("closed".to_string(), Value::UInt(id)),
        ("steps_done".to_string(), Value::UInt(session.steps_done as u64)),
    ]))
}

fn session_id(request: &Value) -> Result<u64, Reject> {
    proto::u64_of(request, "session")?
        .ok_or_else(|| Reject::new(E_PROTO, "field \"session\" is required"))
}

/// A minimal blocking client for the framed protocol — what `bhload`, the
/// integration tests and the CI smoke job use to talk to a live server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: &SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    /// Sends one request object and waits for its response.
    pub fn call(&mut self, request: &Value) -> io::Result<Value> {
        let text = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_frame(&mut self.writer, text.as_bytes())?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let text = std::str::from_utf8(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        serde_json::from_str(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends raw bytes as one frame without waiting for a response, then
    /// drops the connection — the abuse path the CI smoke job exercises
    /// (mid-session disconnects must not wedge the server).
    pub fn send_raw_and_hang_up(mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    /// Writes a frame header promising a payload that never arrives, then
    /// drops the connection — the mid-frame abort the chaos harness uses.
    /// The server sees `UnexpectedEof` inside a frame and must tear the
    /// connection down without wedging.
    pub fn abort_mid_frame(mut self) -> io::Result<()> {
        use std::io::Write;
        self.writer.write_all(&64u32.to_le_bytes())?;
        self.writer.write_all(b"par")?; // 3 of the promised 64 bytes
        self.writer.flush()
    }
}

/// What one [`call_with_retry`] resolution cost: the response itself plus
/// its recovery accounting.
#[derive(Debug)]
pub struct RetryOutcome {
    /// The final (non-retried) response.
    pub response: Value,
    /// Attempts consumed, `1` when the first try succeeded.
    pub attempts: usize,
    /// Wall milliseconds spent on failed attempts and backoff sleeps —
    /// `0.0` when the first try succeeded.
    pub retry_ms: f64,
}

/// Calls `request` with reconnect-per-attempt retry and deterministic
/// jittered exponential backoff.
///
/// Retried conditions: any transport error (connect refused while a daemon
/// restarts, mid-frame disconnect, deadline) and [`E_OVERLOADED`] sheds —
/// where the server's `retry_after_ms` hint, when present, becomes the
/// backoff floor.  Every other response — success or a structured
/// rejection — resolves immediately; rejections are *answers*, not faults.
/// The jitter stream is keyed by `seed`, so a chaos run's retry schedule
/// is reproducible.
pub fn call_with_retry(
    addr: &SocketAddr,
    request: &Value,
    max_attempts: usize,
    seed: u64,
) -> io::Result<RetryOutcome> {
    let start = Instant::now();
    let mut last_err: Option<io::Error> = None;
    for attempt in 1..=max_attempts.max(1) {
        let outcome = Client::connect(addr).and_then(|mut c| c.call(request));
        match outcome {
            Ok(response) => {
                let overloaded =
                    response.get("code").and_then(|c| c.as_str()) == Some(E_OVERLOADED);
                if !overloaded {
                    let retry_ms =
                        if attempt == 1 { 0.0 } else { start.elapsed().as_secs_f64() * 1e3 };
                    return Ok(RetryOutcome { response, attempts: attempt, retry_ms });
                }
                let floor = response.get("retry_after_ms").and_then(|v| v.as_u64()).unwrap_or(0);
                last_err = Some(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "server shed the request with E_OVERLOADED",
                ));
                std::thread::sleep(Duration::from_millis(floor.max(backoff_ms(5, seed, attempt))));
            }
            Err(e) => {
                last_err = Some(e);
                if attempt < max_attempts {
                    std::thread::sleep(Duration::from_millis(backoff_ms(5, seed, attempt)));
                }
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("call_with_retry: no attempts made")))
}

/// Builds a request object from `(key, value)` pairs plus the `op`.
pub fn request(op: &str, fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("op".to_string(), Value::String(op.to_string()))];
    all.extend(fields);
    Value::Object(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use barnes_hut_upc::backends;
    use scenarios::builtin;

    fn start_default(opts: ServerOptions) -> Server {
        Server::start(opts, builtin(), backends()).unwrap()
    }

    fn field_u64(v: &Value, key: &str) -> u64 {
        v.get(key).and_then(|x| x.as_u64()).unwrap_or_else(|| panic!("missing {key}: {v:?}"))
    }

    #[test]
    fn ping_list_and_unknown_ops() {
        let server = start_default(ServerOptions::default());
        let mut client = Client::connect(&server.addr()).unwrap();
        let pong = client.call(&request("ping", Vec::new())).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        let list = client.call(&request("list", Vec::new())).unwrap();
        let backends = list.get("backends").unwrap().as_array().unwrap();
        assert!(backends.iter().any(|b| b.get("name").unwrap().as_str() == Some("upc")));
        let err = client.call(&request("pnig", Vec::new())).unwrap();
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(err.get("code").unwrap().as_str(), Some(proto::E_UNKNOWN_OP));
        assert!(err.get("error").unwrap().as_str().unwrap().contains("did you mean \"ping\"?"));
    }

    #[test]
    fn malformed_json_keeps_the_connection_alive() {
        let server = start_default(ServerOptions::default());
        let mut client = Client::connect(&server.addr()).unwrap();
        // Raw garbage in a well-formed frame: an E_PROTO response, then the
        // same connection keeps working.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, b"{not json").unwrap();
        let reply = read_frame(&mut BufReader::new(stream.try_clone().unwrap()))
            .unwrap()
            .expect("server must reply to garbage");
        let v: Value = serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some(proto::E_PROTO));
        drop(stream);
        // And an independent healthy client is unaffected.
        let pong = client.call(&request("ping", Vec::new())).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn run_executes_and_charges_the_tenant() {
        let server = start_default(ServerOptions::default());
        let mut client = Client::connect(&server.addr()).unwrap();
        let reply = client
            .call(&request(
                "run",
                vec![
                    ("tenant".to_string(), Value::String("acme".to_string())),
                    ("n".to_string(), Value::UInt(32)),
                    ("backend".to_string(), Value::String("direct".to_string())),
                    ("steps".to_string(), Value::UInt(2)),
                    ("measured".to_string(), Value::UInt(1)),
                ],
            ))
            .unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply:?}");
        let interactions = field_u64(&reply, "interactions");
        assert!(interactions > 0);
        // The counters are the `stats` object of `bhsim --json`, key for key.
        let keys = |v: &Value| -> Vec<String> {
            v.as_object().unwrap().iter().map(|(key, _)| key.clone()).collect()
        };
        let stats = serde::Serialize::to_value(&pgas::RankStats::default());
        let reply_keys = keys(&reply);
        let after = reply_keys.iter().position(|key| key == "tree_bytes").unwrap() + 1;
        assert_eq!(reply_keys[after..], keys(&stats));
        let usage = client
            .call(&request(
                "usage",
                vec![("tenant".to_string(), Value::String("acme".to_string()))],
            ))
            .unwrap();
        assert_eq!(field_u64(&usage, "interactions"), interactions);
        assert_eq!(field_u64(&usage, "runs"), 1);
        assert_eq!(server.quotas().usage("acme").interactions, interactions);
    }

    #[test]
    fn config_error_codes_are_relayed() {
        let server = start_default(ServerOptions::default());
        let mut client = Client::connect(&server.addr()).unwrap();
        let reply = client
            .call(&request(
                "run",
                vec![
                    ("tenant".to_string(), Value::String("t".to_string())),
                    ("n".to_string(), Value::UInt(32)),
                    ("steps".to_string(), Value::UInt(1)),
                    ("measured".to_string(), Value::UInt(5)),
                ],
            ))
            .unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
        // The machine-readable code travels as its own field, exactly as
        // SimConfig::validate reports it locally.
        assert_eq!(reply.get("code").unwrap().as_str(), Some("E_MEASURED_WINDOW"));
        // Capability-table rejections keep their wire codes, and a machine
        // without ranks is refused by the same check on both ops.  (The wire
        // has no `build` field; the capability matrix test pins sorted
        // builds.)
        for (op, field, value, code) in [
            ("run", "backend", r#""mpi""#, proto::E_UNSUPPORTED),
            ("run", "opt", r#""baseline""#, proto::E_UNSUPPORTED),
            ("open", "policy", r#""reuse""#, proto::E_SESSION_POLICY),
            ("run", "nodes", "0", engine::ConfigError::E_MACHINE),
            ("open", "nodes", "0", engine::ConfigError::E_MACHINE),
        ] {
            let text =
                format!(r#"{{"op":"{op}","tenant":"t","n":32,"walk":"group","{field}":{value}}}"#);
            let reply = client.call(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(reply.get("code").unwrap().as_str(), Some(code), "{text}: {reply:?}");
        }
        let unknown = client
            .call(&request(
                "run",
                vec![
                    ("tenant".to_string(), Value::String("t".to_string())),
                    ("n".to_string(), Value::UInt(32)),
                    ("scenario".to_string(), Value::String("plumer".to_string())),
                ],
            ))
            .unwrap();
        assert_eq!(unknown.get("code").unwrap().as_str(), Some(proto::E_UNKNOWN_SCENARIO));
        assert!(unknown
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("did you mean \"plummer\"?"));
    }

    #[test]
    fn sessions_step_snapshot_and_close() {
        let server = start_default(ServerOptions::default());
        let mut client = Client::connect(&server.addr()).unwrap();
        let opened = client
            .call(&request(
                "open",
                vec![
                    ("tenant".to_string(), Value::String("t".to_string())),
                    ("n".to_string(), Value::UInt(24)),
                    ("backend".to_string(), Value::String("direct".to_string())),
                ],
            ))
            .unwrap();
        assert_eq!(opened.get("ok").unwrap().as_bool(), Some(true), "{opened:?}");
        let id = field_u64(&opened, "session");
        let sid = ("session".to_string(), Value::UInt(id));
        let stepped = client
            .call(&request("step", vec![sid.clone(), ("steps".to_string(), Value::UInt(2))]))
            .unwrap();
        assert_eq!(field_u64(&stepped, "steps_done"), 2);
        let queried = client.call(&request("query", vec![sid.clone()])).unwrap();
        assert_eq!(queried.get("backend").unwrap().as_str(), Some("direct"));
        assert_eq!(field_u64(&queried, "steps_done"), 2);
        let snap = client.call(&request("snapshot", vec![sid.clone()])).unwrap();
        assert_eq!(snap.get("bodies").unwrap().as_array().unwrap().len(), 24);
        let closed = client.call(&request("close", vec![sid.clone()])).unwrap();
        assert_eq!(field_u64(&closed, "closed"), id);
        let gone = client.call(&request("query", vec![sid])).unwrap();
        assert_eq!(gone.get("code").unwrap().as_str(), Some(proto::E_NO_SESSION));
    }

    #[test]
    fn quota_rejections_are_structured_and_ledgers_survive_disconnects() {
        let opts = ServerOptions {
            tenant_quotas: vec![("freeloader".to_string(), 1)],
            ..ServerOptions::default()
        };
        let server = start_default(opts);
        let tenant = ("tenant".to_string(), Value::String("freeloader".to_string()));
        let job = |t: (String, Value)| {
            request(
                "run",
                vec![
                    t,
                    ("n".to_string(), Value::UInt(24)),
                    ("backend".to_string(), Value::String("direct".to_string())),
                    ("steps".to_string(), Value::UInt(1)),
                    ("measured".to_string(), Value::UInt(1)),
                ],
            )
        };
        {
            let mut client = Client::connect(&server.addr()).unwrap();
            let first = client.call(&job(tenant.clone())).unwrap();
            assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
            let second = client.call(&job(tenant.clone())).unwrap();
            assert_eq!(second.get("code").unwrap().as_str(), Some(proto::E_QUOTA_EXCEEDED));
            assert!(field_u64(&second, "used") >= 1);
            assert_eq!(field_u64(&second, "limit"), 1);
        }
        // Reconnecting does not launder the ledger.
        let mut client = Client::connect(&server.addr()).unwrap();
        let again = client.call(&job(tenant)).unwrap();
        assert_eq!(again.get("code").unwrap().as_str(), Some(proto::E_QUOTA_EXCEEDED));
    }

    #[test]
    fn silent_connections_are_reaped_by_the_read_deadline() {
        let opts = ServerOptions {
            read_timeout: Some(Duration::from_millis(60)),
            ..ServerOptions::default()
        };
        let server = start_default(opts);
        // Connect and say nothing: pre-hardening this held a thread forever.
        let parked = TcpStream::connect(server.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connections() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.connections(), 1, "connection must register before the deadline test");
        while server.connections() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.connections(), 0, "silent connection must be reaped");
        drop(parked);
        // The server is still healthy for real clients.
        let mut client = Client::connect(&server.addr()).unwrap();
        let pong = client.call(&request("ping", Vec::new())).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn overload_sheds_heavy_ops_with_a_retry_hint() {
        // max_inflight = 0 makes every heavy op shed deterministically.
        let opts = ServerOptions { max_inflight: Some(0), ..ServerOptions::default() };
        let server = start_default(opts);
        let mut client = Client::connect(&server.addr()).unwrap();
        let run = request(
            "run",
            vec![
                ("tenant".to_string(), Value::String("t".to_string())),
                ("n".to_string(), Value::UInt(24)),
                ("backend".to_string(), Value::String("direct".to_string())),
            ],
        );
        let shed = client.call(&run).unwrap();
        assert_eq!(shed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(shed.get("code").unwrap().as_str(), Some(E_OVERLOADED));
        assert_eq!(field_u64(&shed, "retry_after_ms"), RETRY_AFTER_MS);
        // Cheap ops are never shed.
        let pong = client.call(&request("ping", Vec::new())).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        let health = client.call(&request("health", Vec::new())).unwrap();
        assert_eq!(field_u64(&health, "max_inflight"), 0);
        // The retry helper keeps backing off and surfaces the shed as an
        // error once attempts are exhausted.
        let err = call_with_retry(&server.addr(), &run, 2, 7).unwrap_err();
        assert!(err.to_string().contains("E_OVERLOADED"), "{err}");
    }

    #[test]
    fn health_reports_connections_inflight_and_sessions() {
        let server = start_default(ServerOptions::default());
        let mut client = Client::connect(&server.addr()).unwrap();
        let opened = client
            .call(&request(
                "open",
                vec![
                    ("tenant".to_string(), Value::String("t".to_string())),
                    ("n".to_string(), Value::UInt(24)),
                    ("backend".to_string(), Value::String("direct".to_string())),
                ],
            ))
            .unwrap();
        assert_eq!(opened.get("ok").unwrap().as_bool(), Some(true), "{opened:?}");
        let health = client.call(&request("health", Vec::new())).unwrap();
        assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));
        assert!(field_u64(&health, "connections") >= 1);
        assert_eq!(field_u64(&health, "inflight"), 0);
        assert_eq!(field_u64(&health, "sessions"), 1);
        assert!(matches!(health.get("max_inflight"), Some(Value::Null)));
    }

    #[test]
    fn idle_sessions_are_evicted_between_requests() {
        let opts = ServerOptions { idle_session_secs: Some(1), ..ServerOptions::default() };
        let server = start_default(opts);
        let mut client = Client::connect(&server.addr()).unwrap();
        let opened = client
            .call(&request(
                "open",
                vec![
                    ("tenant".to_string(), Value::String("t".to_string())),
                    ("n".to_string(), Value::UInt(24)),
                    ("backend".to_string(), Value::String("direct".to_string())),
                ],
            ))
            .unwrap();
        let id = field_u64(&opened, "session");
        std::thread::sleep(Duration::from_millis(1200));
        // The eviction pass runs before this request dispatches.
        let gone =
            client.call(&request("query", vec![("session".to_string(), Value::UInt(id))])).unwrap();
        assert_eq!(gone.get("code").unwrap().as_str(), Some(proto::E_NO_SESSION));
    }

    #[test]
    fn mid_frame_aborts_do_not_wedge_the_server() {
        let server = start_default(ServerOptions::default());
        let aborter = Client::connect(&server.addr()).unwrap();
        aborter.abort_mid_frame().unwrap();
        let mut client = Client::connect(&server.addr()).unwrap();
        let pong = client.call(&request("ping", Vec::new())).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn injected_frame_faults_are_recovered_by_client_retry() {
        // A one-shot injected write disconnect kills exactly one response;
        // the retrying client reconnects and the next attempt succeeds
        // (the FaultPlan's shared state keeps the trigger consumed across
        // connection-level clones).
        let opts = ServerOptions {
            faults: FaultPlan::parse("seed=11,frame.write.disconnect@n1").unwrap(),
            ..ServerOptions::default()
        };
        let server = start_default(opts);
        let outcome = call_with_retry(&server.addr(), &request("ping", Vec::new()), 4, 3).unwrap();
        assert_eq!(outcome.response.get("ok").unwrap().as_bool(), Some(true));
        assert!(outcome.attempts >= 2, "first response write must have faulted");
        assert!(outcome.retry_ms > 0.0);
        // And a retry-free call works now that the fault is consumed.
        let clean = call_with_retry(&server.addr(), &request("ping", Vec::new()), 4, 3).unwrap();
        assert_eq!(clean.attempts, 1);
        assert_eq!(clean.retry_ms, 0.0);
    }
}

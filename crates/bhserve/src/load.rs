//! The `bhload` stress harness: thousands of concurrent clients against a
//! live server, summarised per cell as request count, p50/p99 latency and
//! throughput.
//!
//! The mix is a small grid of *cells* — (scenario, backend, size) shapes,
//! one of them on the lock-free fast path — and every simulated client is
//! pinned to one cell round-robin.  All
//! clients of a cell submit the *identical* job (same seed, same config),
//! which makes the serving rows deterministic in the engine's counters.
//!
//! Beyond the measured traffic the harness mixes in:
//!
//! * **session clients** — every [`LoadOptions::session_every`]-th client
//!   runs an open/step/step/snapshot/close flow instead of a one-shot job
//!   (excluded from the cell summaries: a session chunk is a different
//!   measurement protocol);
//! * **abuse clients** (opt-in) — a `freeloader` tenant that keeps
//!   submitting until it is refused over quota, and a client that drops
//!   its connection mid-session; both pin the failure paths the CI smoke
//!   job watches for.
//!
//! Every measured `run` reply must be `ok` and carry the simulated makespan,
//! the migration fraction, every phase and the traffic counters, with a
//! non-zero interaction count, and the fast-path cell's must show no lock
//! taken; anything less fails the run.
//!
//! Latency is measured at the client: request write to response read,
//! framing and queueing included.  Wall-clock numbers (latency percentiles,
//! throughput) are host-dependent: a summary says what this fleet saw on
//! this host, and nothing compares it with another run's (the serving
//! path's performance is judged by `benchmark/`'s `serve-mix` workload).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use crate::proto::{E_OVERLOADED, E_QUOTA_EXCEEDED, E_SNAP_UNAVAILABLE};
use crate::server::{call_with_retry, request, Client};
use engine::Phase;
use serde::Value;

/// One (scenario, backend, size) shape of the workload mix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scenario registry key.
    pub scenario: &'static str,
    /// Backend registry key.
    pub backend: &'static str,
    /// Number of bodies.
    pub nbodies: usize,
    /// Runs the post-paper fast path: the §5.3 cache, the sorted build and
    /// the group walk, in `-pthreads` mode.
    pub sorted: bool,
}

/// Which grid of cells to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The four small cells — seconds of runtime, used by the CI smoke jobs.
    Quick,
    /// The quick cells plus the same shapes at larger sizes.
    Full,
}

/// The serving-mix shapes.
pub fn cells(mix: Mix) -> Vec<Cell> {
    let quick = vec![
        Cell { scenario: "plummer", backend: "upc", nbodies: 48, sorted: false },
        Cell { scenario: "plummer", backend: "direct", nbodies: 96, sorted: false },
        Cell { scenario: "king", backend: "mpi", nbodies: 192, sorted: false },
        Cell { scenario: "plummer", backend: "upc", nbodies: 128, sorted: true },
    ];
    match mix {
        Mix::Quick => quick,
        Mix::Full => {
            let mut all = quick;
            all.extend([
                Cell { scenario: "plummer", backend: "upc", nbodies: 384, sorted: false },
                Cell { scenario: "plummer", backend: "direct", nbodies: 768, sorted: false },
                Cell { scenario: "king", backend: "mpi", nbodies: 1536, sorted: false },
                Cell { scenario: "plummer", backend: "upc", nbodies: 1024, sorted: true },
            ]);
            all
        }
    }
}

/// Steps per serving job (short on purpose: the serving benchmark measures
/// the service, not long-horizon physics).
const JOB_STEPS: usize = 2;
/// Measured trailing steps per serving job.
const JOB_MEASURED: usize = 1;
/// Emulated nodes per serving job.
const JOB_NODES: usize = 2;

impl Cell {
    /// The request fields of this cell's job (shared by every client of the
    /// cell; the `op` and `tenant` are added per request).
    fn job_fields(&self) -> Vec<(String, Value)> {
        let mut fields = vec![
            ("scenario".to_string(), Value::String(self.scenario.to_string())),
            ("backend".to_string(), Value::String(self.backend.to_string())),
            ("n".to_string(), Value::UInt(self.nbodies as u64)),
            ("steps".to_string(), Value::UInt(JOB_STEPS as u64)),
            ("measured".to_string(), Value::UInt(JOB_MEASURED as u64)),
            ("nodes".to_string(), Value::UInt(JOB_NODES as u64)),
        ];
        if self.sorted {
            let name = |s: &str| Value::String(s.to_string());
            fields.extend([
                ("opt".to_string(), name("cache-local-tree")),
                ("build".to_string(), name("sorted")),
                ("walk".to_string(), name("group")),
                ("pthreads".to_string(), Value::Bool(true)),
            ]);
        }
        fields
    }

    /// Checks a measured `run` reply of this cell: a whole report, and on
    /// the fast path no lock taken (the sorted build really ran).
    fn check_reply(&self, reply: &Value) -> Result<(), String> {
        check_run_reply(reply)?;
        match reply.get("lock_acquires").and_then(Value::as_u64) {
            Some(locks) if self.sorted && locks > 0 => {
                Err(format!("the sorted build took {locks} lock(s)"))
            }
            _ => Ok(()),
        }
    }
}

/// Everything tunable about a load run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Server address.
    pub addr: SocketAddr,
    /// Number of simulated clients (each holds its own connection for the
    /// whole run).
    pub clients: usize,
    /// Worker threads multiplexing the clients.
    pub threads: usize,
    /// Which cell grid to drive.
    pub mix: Mix,
    /// Every Nth client runs a session flow instead of a one-shot job.
    pub session_every: usize,
    /// Mix in the abuse clients (over-quota tenant + mid-session
    /// disconnect).  Requires the server to cap tenant `freeloader` —
    /// the run fails if no quota rejection is observed.
    pub abuse: bool,
    /// Chaos mode: measured requests recover from transport faults and
    /// [`E_OVERLOADED`] sheds via reconnect-with-backoff retries (counted in
    /// [`LoadReport::retried`]), and the mix adds mid-frame aborters and
    /// suspend→resume bit-identity probes.  Session-flow casualties of a
    /// daemon restart are tolerated (counted as disconnects) — only
    /// measured requests whose retries are exhausted fail the run.
    pub chaos: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            addr: "127.0.0.1:0".parse().unwrap(),
            clients: 1000,
            threads: 32,
            mix: Mix::Quick,
            session_every: 16,
            abuse: false,
            chaos: false,
        }
    }
}

/// What the fleet saw on one cell of the mix.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// `scenario/backend/nN`, with `/sorted` on the fast path.
    pub label: String,
    /// Measured requests answered.
    pub requests: usize,
    /// Median client-observed latency, milliseconds (nearest rank).
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency, milliseconds (nearest rank).
    pub p99_ms: f64,
    /// Answered requests per second of the whole request phase.
    pub req_per_s: f64,
}

impl CellSummary {
    fn of(cell: &Cell, mut latencies_ms: Vec<f64>, elapsed_seconds: f64) -> CellSummary {
        latencies_ms.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let rank = (q * latencies_ms.len() as f64).ceil() as usize;
            latencies_ms[rank.clamp(1, latencies_ms.len()) - 1]
        };
        CellSummary {
            label: format!(
                "{}/{}/n{}{}",
                cell.scenario,
                cell.backend,
                cell.nbodies,
                if cell.sorted { "/sorted" } else { "" }
            ),
            requests: latencies_ms.len(),
            p50_ms: at(0.50),
            p99_ms: at(0.99),
            req_per_s: latencies_ms.len() as f64 / elapsed_seconds.max(1e-9),
        }
    }
}

/// The outcome of a load run.
pub struct LoadReport {
    /// One summary per cell of the mix, in mix order.
    pub cells: Vec<CellSummary>,
    /// One-shot job requests measured into the cell summaries.
    pub measured_requests: usize,
    /// Session flows completed (not in the cell summaries).
    pub sessions: usize,
    /// Over-quota rejections observed (abuse tenant).
    pub quota_rejections: usize,
    /// Connections deliberately dropped mid-session.
    pub disconnects: usize,
    /// Requests that failed for any other reason (must be zero for a
    /// healthy run).
    pub failures: usize,
    /// Measured requests that needed the retry path (first attempt lost to
    /// a fault or shed) before succeeding — chaos mode only.
    pub retried: usize,
    /// Deliberate mid-frame aborts delivered — chaos mode only.
    pub aborts: usize,
    /// Suspend→resume bit-identity probes that completed and verified —
    /// chaos mode only.
    pub resume_checks: usize,
    /// Wall-clock of the request phase, seconds.
    pub elapsed_seconds: f64,
}

struct WorkerOutcome {
    /// `(cell index, latency ms)` of every measured request.
    latencies: Vec<(usize, f64)>,
    sessions: usize,
    quota_rejections: usize,
    disconnects: usize,
    retried: usize,
    aborts: usize,
    resume_checks: usize,
    failures: Vec<String>,
}

/// Drives the full mix against a live server.
///
/// Every client's connection is opened before any request is sent, so the
/// server really holds `clients` concurrent connections during the
/// measurement phase — the point of the exercise.
pub fn run(opts: &LoadOptions) -> Result<LoadReport, String> {
    let mix = cells(opts.mix);
    let threads = opts.threads.clamp(1, opts.clients.max(1));
    let connected = Arc::new(Barrier::new(threads));
    let failures_seen = Arc::new(AtomicUsize::new(0));
    let outcomes: Arc<Mutex<Vec<WorkerOutcome>>> = Arc::new(Mutex::new(Vec::new()));

    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let mix = mix.clone();
        let opts = opts.clone();
        let connected = Arc::clone(&connected);
        let failures_seen = Arc::clone(&failures_seen);
        let outcomes = Arc::clone(&outcomes);
        let handle = std::thread::Builder::new()
            .name(format!("bhload-{t}"))
            .spawn(move || {
                let outcome = worker(t, threads, &opts, &mix, &connected);
                failures_seen.fetch_add(outcome.failures.len(), Ordering::Relaxed);
                outcomes.lock().unwrap().push(outcome);
            })
            .map_err(|e| format!("spawning worker {t}: {e}"))?;
        handles.push(handle);
    }
    for handle in handles {
        handle.join().map_err(|_| "a load worker panicked".to_string())?;
    }
    let elapsed_seconds = started.elapsed().as_secs_f64();

    let mut latencies_by_cell: Vec<Vec<f64>> = vec![Vec::new(); mix.len()];
    let mut sessions = 0;
    let mut quota_rejections = 0;
    let mut disconnects = 0;
    let mut retried = 0;
    let mut aborts = 0;
    let mut resume_checks = 0;
    let mut failures = Vec::new();
    for outcome in Arc::try_unwrap(outcomes).ok().expect("workers joined").into_inner().unwrap() {
        for (cell, latency_ms) in outcome.latencies {
            latencies_by_cell[cell].push(latency_ms);
        }
        sessions += outcome.sessions;
        quota_rejections += outcome.quota_rejections;
        disconnects += outcome.disconnects;
        retried += outcome.retried;
        aborts += outcome.aborts;
        resume_checks += outcome.resume_checks;
        failures.extend(outcome.failures);
    }
    if let Some(first) = failures.first() {
        return Err(format!("{} request(s) failed; first: {first}", failures.len()));
    }
    if opts.abuse && quota_rejections == 0 {
        return Err("abuse mix requested but no quota rejection was observed — was the server \
             started with a quota for tenant \"freeloader\"?"
            .to_string());
    }

    let mut cells = Vec::with_capacity(mix.len());
    for (cell, latencies) in mix.iter().zip(latencies_by_cell) {
        if latencies.is_empty() {
            return Err(format!(
                "cell {}/{}/n{} received no measured requests; raise --clients",
                cell.scenario, cell.backend, cell.nbodies
            ));
        }
        cells.push(CellSummary::of(cell, latencies, elapsed_seconds));
    }
    Ok(LoadReport {
        measured_requests: cells.iter().map(|c| c.requests).sum(),
        cells,
        sessions,
        quota_rejections,
        disconnects,
        retried,
        aborts,
        resume_checks,
        failures: 0,
        elapsed_seconds,
    })
}

/// The role a client index plays in the mix.
enum Role {
    Measured,
    Session,
    Freeloader,
    Disconnector,
    /// Chaos: writes a partial frame then drops the connection.
    Aborter,
    /// Chaos: open → step → snapshot → suspend → resume → verify the
    /// resumed state is bit-identical to the suspended one.
    Resumer,
}

fn role_of(index: usize, opts: &LoadOptions) -> Role {
    if opts.abuse && index == 1 {
        return Role::Freeloader;
    }
    if opts.abuse && index == 2 {
        return Role::Disconnector;
    }
    if opts.chaos && index % 16 == 3 {
        return Role::Aborter;
    }
    if opts.chaos && index % 16 == 4 {
        return Role::Resumer;
    }
    if opts.session_every > 0 && index.is_multiple_of(opts.session_every) && index > 0 {
        return Role::Session;
    }
    Role::Measured
}

/// Retry budget of a chaos-mode measured request: ~1 s of deterministic
/// jittered backoff in total — enough to ride out a daemon SIGKILL +
/// restart, short enough that a genuinely dead server fails the run fast.
const CHAOS_ATTEMPTS: usize = 10;

fn worker(
    t: usize,
    threads: usize,
    opts: &LoadOptions,
    mix: &[Cell],
    connected: &Barrier,
) -> WorkerOutcome {
    let mut outcome = WorkerOutcome {
        latencies: Vec::new(),
        sessions: 0,
        quota_rejections: 0,
        disconnects: 0,
        retried: 0,
        aborts: 0,
        resume_checks: 0,
        failures: Vec::new(),
    };
    // Open every connection this worker owns before anyone sends: the
    // barrier below makes the concurrency level real, not amortized.
    let mut clients: Vec<(usize, Client)> = Vec::new();
    for index in (t..opts.clients).step_by(threads) {
        match Client::connect(&opts.addr) {
            Ok(client) => clients.push((index, client)),
            Err(e) => outcome.failures.push(format!("client {index}: connect: {e}")),
        }
    }
    connected.wait();
    for (index, mut client) in clients {
        let cell = &mix[index % mix.len()];
        let tenant = format!("tenant-{}", index % 8);
        match role_of(index, opts) {
            Role::Measured if opts.chaos => {
                match one_shot_chaos(&mut client, &opts.addr, cell, &tenant, index as u64) {
                    Ok((latency_ms, was_retried)) => {
                        outcome.retried += was_retried as usize;
                        outcome.latencies.push((index % mix.len(), latency_ms));
                    }
                    Err(e) => outcome.failures.push(format!("client {index}: {e}")),
                }
            }
            Role::Measured => match one_shot(&mut client, cell, &tenant) {
                Ok(latency_ms) => outcome.latencies.push((index % mix.len(), latency_ms)),
                Err(e) => outcome.failures.push(format!("client {index}: {e}")),
            },
            Role::Session => match session_flow(&mut client, cell, &tenant) {
                Ok(()) => outcome.sessions += 1,
                // A session flow interrupted by a chaos casualty (daemon
                // restart, injected disconnect) is expected degradation —
                // the session is lost, the fleet must survive.
                Err(e) if opts.chaos && e.contains("transport") => outcome.disconnects += 1,
                Err(e) => outcome.failures.push(format!("client {index}: session: {e}")),
            },
            Role::Aborter => match client.abort_mid_frame() {
                Ok(()) => outcome.aborts += 1,
                Err(e) => outcome.failures.push(format!("client {index}: abort: {e}")),
            },
            Role::Resumer => match resume_flow(&mut client, cell, &tenant) {
                Ok(Some(())) => outcome.resume_checks += 1,
                Ok(None) => {} // suspend/resume not offered by this server
                Err(e) if opts.chaos && e.contains("transport") => outcome.disconnects += 1,
                Err(e) => outcome.failures.push(format!("client {index}: resume-check: {e}")),
            },
            Role::Freeloader => match freeloader_flow(&mut client, mix) {
                Ok(rejections) if rejections > 0 => outcome.quota_rejections += rejections,
                Ok(_) => {
                    outcome.failures.push(format!("client {index}: freeloader was never refused"))
                }
                Err(e) => outcome.failures.push(format!("client {index}: freeloader: {e}")),
            },
            Role::Disconnector => match disconnect_flow(client, cell) {
                Ok(()) => outcome.disconnects += 1,
                Err(e) => outcome.failures.push(format!("client {index}: disconnect: {e}")),
            },
        }
    }
    outcome
}

fn call_checked(client: &mut Client, req: &Value, what: &str) -> Result<Value, String> {
    let reply = client.call(req).map_err(|e| format!("{what}: transport: {e}"))?;
    if reply.get("ok").and_then(|v| v.as_bool()) == Some(true) {
        return Ok(reply);
    }
    let code = reply.get("code").and_then(|v| v.as_str()).unwrap_or("?");
    let error = reply.get("error").and_then(|v| v.as_str()).unwrap_or("?");
    Err(format!("{what}: rejected [{code}]: {error}"))
}

/// One measured request on the held connection; returns its latency in
/// milliseconds.
fn one_shot(client: &mut Client, cell: &Cell, tenant: &str) -> Result<f64, String> {
    let mut fields = vec![("tenant".to_string(), Value::String(tenant.to_string()))];
    fields.extend(cell.job_fields());
    let req = request("run", fields);
    let sent = Instant::now();
    let reply = call_checked(client, &req, "run")?;
    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
    cell.check_reply(&reply)?;
    Ok(latency_ms)
}

/// Chaos-mode measured request: first try the held connection; if that
/// attempt is lost to a fault (injected disconnect, daemon restart) or shed
/// with [`E_OVERLOADED`], fall back to reconnect-per-attempt retries with
/// deterministic backoff.  Returns the latency in milliseconds (first send
/// → final success, recovery included) and whether the request needed the
/// retry path.
fn one_shot_chaos(
    client: &mut Client,
    addr: &SocketAddr,
    cell: &Cell,
    tenant: &str,
    seed: u64,
) -> Result<(f64, bool), String> {
    let mut fields = vec![("tenant".to_string(), Value::String(tenant.to_string()))];
    fields.extend(cell.job_fields());
    let req = request("run", fields);
    let sent = Instant::now();
    match client.call(&req) {
        Ok(reply) if reply.get("ok").and_then(|v| v.as_bool()) == Some(true) => {
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            cell.check_reply(&reply)?;
            return Ok((latency_ms, false));
        }
        Ok(reply) => {
            let code = reply.get("code").and_then(|v| v.as_str()).unwrap_or("?");
            if code != E_OVERLOADED {
                let error = reply.get("error").and_then(|v| v.as_str()).unwrap_or("?");
                return Err(format!("run: rejected [{code}]: {error}"));
            }
        }
        Err(_) => {} // transport fault: recover below
    }
    let outcome = call_with_retry(addr, &req, CHAOS_ATTEMPTS, seed)
        .map_err(|e| format!("run: retries exhausted: {e}"))?;
    let reply = outcome.response;
    if reply.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        let code = reply.get("code").and_then(|v| v.as_str()).unwrap_or("?");
        let error = reply.get("error").and_then(|v| v.as_str()).unwrap_or("?");
        return Err(format!("run: rejected after retries [{code}]: {error}"));
    }
    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
    cell.check_reply(&reply)?;
    Ok((latency_ms, true))
}

/// The counters every `run` reply carries (`RankStats` summed over ranks).
const RUN_COUNTERS: [&str; 9] = [
    "interactions",
    "macs",
    "tree_ops",
    "remote_gets",
    "remote_puts",
    "messages",
    "bytes_in",
    "bytes_out",
    "lock_acquires",
];

/// Checks that an `ok` `run` reply carries a whole report: the simulated
/// makespan, the migration fraction, every phase and every counter in
/// [`RUN_COUNTERS`], with at least one interaction.
fn check_run_reply(reply: &Value) -> Result<(), String> {
    for key in ["total_sim", "migration_fraction"] {
        reply
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("response missing numeric field {key:?}"))?;
    }
    let phases = reply.get("phases").ok_or_else(|| "response missing \"phases\"".to_string())?;
    for phase in Phase::ALL {
        phases
            .get(phase.key())
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("response phases missing {:?}", phase.key()))?;
    }
    for key in RUN_COUNTERS {
        let count = reply
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("response missing counter field {key:?}"))?;
        if key == "interactions" && count == 0 {
            return Err("response reports zero interactions".to_string());
        }
    }
    Ok(())
}

fn session_flow(client: &mut Client, cell: &Cell, tenant: &str) -> Result<(), String> {
    let mut fields = vec![("tenant".to_string(), Value::String(tenant.to_string()))];
    fields.extend(cell.job_fields());
    let opened = match client.call(&request("open", fields)) {
        Ok(reply) => reply,
        Err(e) => return Err(format!("open: transport: {e}")),
    };
    if opened.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        let code = opened.get("code").and_then(|v| v.as_str()).unwrap_or("?");
        let error = opened.get("error").and_then(|v| v.as_str()).unwrap_or("?");
        return Err(format!("open rejected [{code}]: {error}"));
    }
    let id = opened
        .get("session")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "open reply missing session id".to_string())?;
    let sid = ("session".to_string(), Value::UInt(id));
    for _ in 0..2 {
        call_checked(
            client,
            &request("step", vec![sid.clone(), ("steps".to_string(), Value::UInt(1))]),
            "step",
        )?;
    }
    let snap = call_checked(client, &request("snapshot", vec![sid.clone()]), "snapshot")?;
    let bodies = snap
        .get("bodies")
        .and_then(|v| v.as_array().map(|a| a.len()))
        .ok_or_else(|| "snapshot reply missing bodies".to_string())?;
    if bodies != cell.nbodies {
        return Err(format!("snapshot returned {bodies} bodies, expected {}", cell.nbodies));
    }
    call_checked(client, &request("close", vec![sid]), "close")?;
    Ok(())
}

/// Submits the smallest cell's job as tenant `freeloader` until refused
/// (bounded attempts).  Returns the number of quota rejections seen.
fn freeloader_flow(client: &mut Client, mix: &[Cell]) -> Result<usize, String> {
    let cell = mix.iter().min_by_key(|c| c.nbodies).expect("mix is never empty");
    let mut rejections = 0;
    for attempt in 0..8 {
        let mut fields = vec![("tenant".to_string(), Value::String("freeloader".to_string()))];
        fields.extend(cell.job_fields());
        let reply = client
            .call(&request("run", fields))
            .map_err(|e| format!("attempt {attempt}: transport: {e}"))?;
        match reply.get("code").and_then(|v| v.as_str()) {
            Some(code) if code == E_QUOTA_EXCEEDED => rejections += 1,
            Some(code) => {
                let error = reply.get("error").and_then(|v| v.as_str()).unwrap_or("?");
                return Err(format!("attempt {attempt}: unexpected rejection [{code}]: {error}"));
            }
            None => {} // accepted — quota not yet exhausted
        }
        if rejections >= 2 {
            break;
        }
    }
    Ok(rejections)
}

/// Digest of a `snapshot` reply's body state — bodies travel hex-encoded
/// (bit-exact), so equal digests mean bit-identical state.
fn snapshot_digest_of(reply: &Value) -> Result<String, String> {
    let bodies = reply.get("bodies").ok_or_else(|| "snapshot reply missing bodies".to_string())?;
    let text = serde_json::to_string(bodies).map_err(|e| e.to_string())?;
    Ok(snapstore::sha256::hex_digest(text.as_bytes()))
}

/// The chaos-mode suspend→resume bit-identity probe: open a session, step
/// it, snapshot, suspend it to the store, resume the token and verify the
/// resumed snapshot is byte-for-byte the suspended one.  Returns `Ok(None)`
/// when the server offers no snapshot store (nothing to probe); a digest
/// mismatch is a hard failure.
fn resume_flow(client: &mut Client, cell: &Cell, tenant: &str) -> Result<Option<()>, String> {
    let mut fields = vec![("tenant".to_string(), Value::String(tenant.to_string()))];
    fields.extend(cell.job_fields());
    let opened =
        client.call(&request("open", fields)).map_err(|e| format!("open: transport: {e}"))?;
    if opened.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        let code = opened.get("code").and_then(|v| v.as_str()).unwrap_or("?");
        let error = opened.get("error").and_then(|v| v.as_str()).unwrap_or("?");
        return Err(format!("open rejected [{code}]: {error}"));
    }
    let id = opened
        .get("session")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "open reply missing session id".to_string())?;
    let sid = ("session".to_string(), Value::UInt(id));
    call_checked(
        client,
        &request("step", vec![sid.clone(), ("steps".to_string(), Value::UInt(1))]),
        "step",
    )?;
    let snap = call_checked(client, &request("snapshot", vec![sid.clone()]), "snapshot")?;
    let before = snapshot_digest_of(&snap)?;
    let suspended = client
        .call(&request("suspend", vec![sid.clone()]))
        .map_err(|e| format!("suspend: transport: {e}"))?;
    if suspended.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        let code = suspended.get("code").and_then(|v| v.as_str()).unwrap_or("?");
        if code == E_SNAP_UNAVAILABLE {
            // Session still open (suspend never ran): clean up and skip.
            let _ = client.call(&request("close", vec![sid]));
            return Ok(None);
        }
        let error = suspended.get("error").and_then(|v| v.as_str()).unwrap_or("?");
        return Err(format!("suspend rejected [{code}]: {error}"));
    }
    let token = suspended
        .get("token")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "suspend reply missing token".to_string())?
        .to_string();
    let resumed = call_checked(
        client,
        &request(
            "resume",
            vec![
                ("tenant".to_string(), Value::String(tenant.to_string())),
                ("token".to_string(), Value::String(token)),
            ],
        ),
        "resume",
    )?;
    let new_id = resumed
        .get("session")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "resume reply missing session id".to_string())?;
    let new_sid = ("session".to_string(), Value::UInt(new_id));
    let snap = call_checked(client, &request("snapshot", vec![new_sid.clone()]), "snapshot")?;
    let after = snapshot_digest_of(&snap)?;
    if after != before {
        return Err(format!("resumed session diverged from suspended state: {before} != {after}"));
    }
    call_checked(client, &request("close", vec![new_sid]), "close")?;
    Ok(Some(()))
}

/// Opens one probe session on the smallest quick cell, steps it, suspends
/// it and returns `(token, digest)` — the CI chaos job calls this before
/// SIGKILLing the daemon, then checks [`resume_token`] returns the same
/// digest from the restarted daemon (cross-restart bit-identity).
pub fn suspend_one(addr: &SocketAddr) -> Result<(String, String), String> {
    let cell = cells(Mix::Quick).into_iter().min_by_key(|c| c.nbodies).expect("non-empty mix");
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut fields = vec![("tenant".to_string(), Value::String("chaos-probe".to_string()))];
    fields.extend(cell.job_fields());
    let opened = call_checked(&mut client, &request("open", fields), "open")?;
    let id = opened
        .get("session")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "open reply missing session id".to_string())?;
    let sid = ("session".to_string(), Value::UInt(id));
    call_checked(
        &mut client,
        &request("step", vec![sid.clone(), ("steps".to_string(), Value::UInt(2))]),
        "step",
    )?;
    let snap = call_checked(&mut client, &request("snapshot", vec![sid.clone()]), "snapshot")?;
    let digest = snapshot_digest_of(&snap)?;
    let suspended = call_checked(&mut client, &request("suspend", vec![sid]), "suspend")?;
    let token = suspended
        .get("token")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "suspend reply missing token".to_string())?
        .to_string();
    Ok((token, digest))
}

/// Resumes `token` (retrying while a daemon restart settles) and returns
/// the digest of the resumed snapshot — [`suspend_one`]'s counterpart.
pub fn resume_token(addr: &SocketAddr, token: &str) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resumed = call_checked(
        &mut client,
        &request(
            "resume",
            vec![
                ("tenant".to_string(), Value::String("chaos-probe".to_string())),
                ("token".to_string(), Value::String(token.to_string())),
            ],
        ),
        "resume",
    )?;
    let id = resumed
        .get("session")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "resume reply missing session id".to_string())?;
    let sid = ("session".to_string(), Value::UInt(id));
    let snap = call_checked(&mut client, &request("snapshot", vec![sid.clone()]), "snapshot")?;
    let digest = snapshot_digest_of(&snap)?;
    call_checked(&mut client, &request("close", vec![sid]), "close")?;
    Ok(digest)
}

/// Opens a session, steps it once, then drops the connection without
/// closing — the mid-session disconnect the server must absorb.
fn disconnect_flow(mut client: Client, cell: &Cell) -> Result<(), String> {
    let mut fields = vec![("tenant".to_string(), Value::String("tenant-ghost".to_string()))];
    fields.extend(cell.job_fields());
    let opened = call_checked(&mut client, &request("open", fields), "open")?;
    let id = opened
        .get("session")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "open reply missing session id".to_string())?;
    call_checked(
        &mut client,
        &request(
            "step",
            vec![("session".to_string(), Value::UInt(id)), ("steps".to_string(), Value::UInt(1))],
        ),
        "step",
    )?;
    drop(client); // mid-session hang-up, session never closed
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `run` reply with every field the harness checks, `drop` left out.
    fn run_reply(interactions: u64, drop: &str) -> Value {
        let phases = Phase::ALL.iter().map(|p| (p.key().to_string(), Value::Float(0.5))).collect();
        let mut fields = vec![
            ("ok".to_string(), Value::Bool(true)),
            ("phases".to_string(), Value::Object(phases)),
            ("total_sim".to_string(), Value::Float(1.0)),
            ("migration_fraction".to_string(), Value::Float(0.0)),
        ];
        fields.extend(RUN_COUNTERS.map(|key| {
            let count = if key == "interactions" { interactions } else { 1 };
            (key.to_string(), Value::UInt(count))
        }));
        fields.retain(|(key, _)| key != drop);
        Value::Object(fields)
    }

    #[test]
    fn run_replies_must_carry_a_whole_report() {
        assert_eq!(check_run_reply(&run_reply(7, "")), Ok(()));
        let required = ["phases", "total_sim", "migration_fraction"];
        for key in required.into_iter().chain(RUN_COUNTERS) {
            let err = check_run_reply(&run_reply(7, key)).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        let err = check_run_reply(&run_reply(0, "")).unwrap_err();
        assert!(err.contains("zero interactions"), "{err}");
    }

    #[test]
    fn roles_partition_the_client_indices() {
        let opts = LoadOptions { abuse: true, ..LoadOptions::default() };
        assert!(matches!(role_of(1, &opts), Role::Freeloader));
        assert!(matches!(role_of(2, &opts), Role::Disconnector));
        assert!(matches!(role_of(16, &opts), Role::Session));
        assert!(matches!(role_of(0, &opts), Role::Measured));
        assert!(matches!(role_of(3, &opts), Role::Measured));
        let no_abuse = LoadOptions::default();
        assert!(matches!(role_of(1, &no_abuse), Role::Measured));
        assert!(matches!(role_of(2, &no_abuse), Role::Measured));
    }
}

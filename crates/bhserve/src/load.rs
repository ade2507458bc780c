//! The `bhload` stress harness: thousands of concurrent clients against a
//! live server, reported as an [`engine::bench`] record.
//!
//! The mix is a small grid of *cells* — (scenario, backend, size) shapes —
//! and every simulated client is pinned to one cell round-robin.  All
//! clients of a cell submit the *identical* job (same seed, same config),
//! which makes the serving rows deterministic in the engine's counters and
//! exercises the single-flight coalescing path the way a popular demo
//! workload would.
//!
//! Beyond the measured traffic the harness mixes in:
//!
//! * **session clients** — every [`LoadOptions::session_every`]-th client
//!   runs an open/step/step/snapshot/close flow instead of a one-shot job
//!   (excluded from the bench rows: a session chunk is a different
//!   measurement protocol);
//! * **abuse clients** (opt-in) — a `freeloader` tenant that keeps
//!   submitting until it is refused over quota, and a client that drops
//!   its connection mid-session; both pin the failure paths the CI smoke
//!   job watches for.
//!
//! Latency is measured at the client: request write to response read,
//! framing and queueing included.  Wall-clock numbers (latency percentiles,
//! throughput) are host-dependent: the record says what this fleet saw on
//! this host, and nothing compares it with another run's (the serving
//! path's performance is judged by `benchmark/`'s `serve-mix` workload).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use crate::proto::{E_OVERLOADED, E_QUOTA_EXCEEDED, E_SESSION_UNSUPPORTED, E_SNAP_UNAVAILABLE};
use crate::server::{call_with_retry, request, Client};
use engine::bench::{Record, RunRecord, RunSpec, Sample, SERVICE_BHSERVE, SERVICE_CHAOS};
use engine::{OptLevel, Phase, PhaseTimes, SimConfig};
use pgas::{Machine, RankStats};
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
}

/// Which grid of cells to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The three small cells — seconds of runtime, used by the CI smoke job.
    Quick,
    /// The quick cells plus the same shapes at larger sizes.
    Full,
}

/// The serving-mix shapes.
pub fn cells(mix: Mix) -> Vec<Cell> {
    let quick = vec![
        Cell { scenario: "plummer", backend: "upc", nbodies: 48 },
        Cell { scenario: "plummer", backend: "direct", nbodies: 96 },
        Cell { scenario: "king", backend: "mpi", nbodies: 192 },
    ];
    match mix {
        Mix::Quick => quick,
        Mix::Full => {
            let mut all = quick;
            all.extend([
                Cell { scenario: "plummer", backend: "upc", nbodies: 384 },
                Cell { scenario: "plummer", backend: "direct", nbodies: 768 },
                Cell { scenario: "king", backend: "mpi", nbodies: 1536 },
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
    /// The exact configuration the server will decode for this cell's job
    /// — used to build the [`RunSpec`] identifying the cell's bench row.
    pub fn config(&self, scenarios: &scenarios::Registry) -> SimConfig {
        let tuning = scenarios
            .get(self.scenario)
            .unwrap_or_else(|| panic!("unknown mix scenario {:?}", self.scenario))
            .recommended_config();
        let mut cfg =
            SimConfig::new(self.nbodies, Machine::power5(JOB_NODES, 1, false), OptLevel::Subspace);
        cfg.steps = JOB_STEPS;
        cfg.measured_steps = JOB_MEASURED;
        cfg.theta = tuning.theta;
        cfg.eps = tuning.eps;
        cfg.dt = tuning.dt;
        cfg
    }

    /// The bench-row identity of this cell's serving measurements.
    pub fn spec(&self, scenarios: &scenarios::Registry) -> RunSpec {
        self.spec_for(scenarios, SERVICE_BHSERVE)
    }

    /// The bench-row identity under an explicit service axis value —
    /// chaos rows use [`SERVICE_CHAOS`]: the same job measured under
    /// injected failures is a different measurement protocol.
    pub fn spec_for(&self, scenarios: &scenarios::Registry, service: &str) -> RunSpec {
        let mut spec = RunSpec::new(self.scenario, self.backend, &self.config(scenarios));
        spec.service = service.to_string();
        spec
    }

    /// The request fields of this cell's job (shared by every client of the
    /// cell; the `op` and `tenant` are added per request).
    fn job_fields(&self) -> Vec<(String, Value)> {
        vec![
            ("scenario".to_string(), Value::String(self.scenario.to_string())),
            ("backend".to_string(), Value::String(self.backend.to_string())),
            ("n".to_string(), Value::UInt(self.nbodies as u64)),
            ("steps".to_string(), Value::UInt(JOB_STEPS as u64)),
            ("measured".to_string(), Value::UInt(JOB_MEASURED as u64)),
            ("nodes".to_string(), Value::UInt(JOB_NODES as u64)),
        ]
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
    /// Chaos mode: measured rows land under the [`SERVICE_CHAOS`] service
    /// axis, measured requests recover from transport faults and
    /// [`E_OVERLOADED`] sheds via reconnect-with-backoff retries (recording
    /// `recovery_ms`/`error_rate`), and the mix adds mid-frame aborters and
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

/// The outcome of a load run.
pub struct LoadReport {
    /// The serving-only bench record (one row per cell).
    pub record: Record,
    /// One-shot job requests measured into the record.
    pub measured_requests: usize,
    /// Session flows completed (not in the record).
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
    samples: Vec<(usize, Sample)>,
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
pub fn run(opts: &LoadOptions, scenarios: &scenarios::Registry) -> Result<LoadReport, String> {
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

    let mut samples_by_cell: Vec<Vec<Sample>> = vec![Vec::new(); mix.len()];
    let mut sessions = 0;
    let mut quota_rejections = 0;
    let mut disconnects = 0;
    let mut retried = 0;
    let mut aborts = 0;
    let mut resume_checks = 0;
    let mut failures = Vec::new();
    for outcome in Arc::try_unwrap(outcomes).ok().expect("workers joined").into_inner().unwrap() {
        for (cell, sample) in outcome.samples {
            samples_by_cell[cell].push(sample);
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

    let service = if opts.chaos { SERVICE_CHAOS } else { SERVICE_BHSERVE };
    let mut record = Record::new(commit_id(), opts.mix == Mix::Quick);
    let mut measured_requests = 0;
    for (i, cell) in mix.iter().enumerate() {
        let samples = &samples_by_cell[i];
        if samples.is_empty() {
            return Err(format!(
                "cell {}/{}/n{} received no measured requests; raise --clients",
                cell.scenario, cell.backend, cell.nbodies
            ));
        }
        measured_requests += samples.len();
        let mut run = RunRecord::from_samples(cell.spec_for(scenarios, service), samples);
        run.throughput_rps = samples.len() as f64 / elapsed_seconds.max(1e-9);
        record.runs.push(run);
    }
    record.validate()?;
    Ok(LoadReport {
        record,
        measured_requests,
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

/// The current git commit id (with a `-dirty` suffix when the working tree
/// has uncommitted changes), or `"unknown"` outside a checkout.
fn commit_id() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(head) = git(&["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".to_string();
    };
    let head = head.trim().to_string();
    if head.is_empty() {
        return "unknown".to_string();
    }
    match git(&["status", "--porcelain"]) {
        Some(status) if status.trim().is_empty() => head,
        _ => format!("{head}-dirty"),
    }
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
        samples: Vec::new(),
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
                    Ok((sample, was_retried)) => {
                        outcome.retried += was_retried as usize;
                        outcome.samples.push((index % mix.len(), sample));
                    }
                    Err(e) => outcome.failures.push(format!("client {index}: {e}")),
                }
            }
            Role::Measured => match one_shot(&mut client, cell, &tenant) {
                Ok(sample) => outcome.samples.push((index % mix.len(), sample)),
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

fn one_shot(client: &mut Client, cell: &Cell, tenant: &str) -> Result<Sample, String> {
    let mut fields = vec![("tenant".to_string(), Value::String(tenant.to_string()))];
    fields.extend(cell.job_fields());
    let req = request("run", fields);
    let sent = Instant::now();
    let reply = call_checked(client, &req, "run")?;
    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
    sample_of(&reply, latency_ms)
}

/// Chaos-mode measured request: first try the held connection; if that
/// attempt is lost to a fault (injected disconnect, daemon restart) or shed
/// with [`E_OVERLOADED`], fall back to reconnect-per-attempt retries with
/// deterministic backoff.  A recovered request records how long recovery
/// took (`recovery_ms`, first send → final success) and `error_rate = 1.0`
/// (its first attempt failed); a clean request records zeros.
fn one_shot_chaos(
    client: &mut Client,
    addr: &SocketAddr,
    cell: &Cell,
    tenant: &str,
    seed: u64,
) -> Result<(Sample, bool), String> {
    let mut fields = vec![("tenant".to_string(), Value::String(tenant.to_string()))];
    fields.extend(cell.job_fields());
    let req = request("run", fields);
    let sent = Instant::now();
    match client.call(&req) {
        Ok(reply) if reply.get("ok").and_then(|v| v.as_bool()) == Some(true) => {
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            return Ok((sample_of(&reply, latency_ms)?, false));
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
    let total_ms = sent.elapsed().as_secs_f64() * 1e3;
    let mut sample = sample_of(&reply, total_ms)?;
    sample.recovery_ms = total_ms;
    sample.error_rate = 1.0;
    Ok((sample, true))
}

/// Decodes a `run`/`step` response into a bench [`Sample`].  Both wall and
/// latency carry the client-observed request latency: for a serving row,
/// the service *is* the thing under measurement.
fn sample_of(reply: &Value, latency_ms: f64) -> Result<Sample, String> {
    let f = |key: &str| {
        reply
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("response missing numeric field {key:?}"))
    };
    let u = |key: &str| {
        reply
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("response missing counter field {key:?}"))
    };
    let phases_obj =
        reply.get("phases").ok_or_else(|| "response missing \"phases\"".to_string())?;
    let mut phases = PhaseTimes::default();
    for phase in Phase::ALL {
        let v = phases_obj
            .get(phase.key())
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("response phases missing {:?}", phase.key()))?;
        phases.set(phase, v);
    }
    let stats = RankStats {
        interactions: u("interactions")?,
        macs: u("macs")?,
        tree_ops: u("tree_ops")?,
        remote_gets: u("remote_gets")?,
        remote_puts: u("remote_puts")?,
        messages: u("messages")?,
        bytes_in: u("bytes_in")?,
        bytes_out: u("bytes_out")?,
        lock_acquires: u("lock_acquires")?,
        ..Default::default()
    };
    Ok(Sample {
        wall_ms: latency_ms,
        latency_ms,
        phases,
        total_sim: f("total_sim")?,
        migration_fraction: f("migration_fraction")?,
        // Absent on replies from servers predating the node-arena metric.
        tree_bytes: reply.get("tree_bytes").and_then(|v| v.as_u64()).unwrap_or(0),
        recovery_ms: 0.0,
        error_rate: 0.0,
        stats,
    })
}

fn session_flow(client: &mut Client, cell: &Cell, tenant: &str) -> Result<(), String> {
    let mut fields = vec![("tenant".to_string(), Value::String(tenant.to_string()))];
    fields.extend(cell.job_fields());
    let opened = match client.call(&request("open", fields)) {
        Ok(reply) => reply,
        Err(e) => return Err(format!("open: transport: {e}")),
    };
    if opened.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        // A backend may legitimately refuse sessions; that is not a load
        // failure, just a flow that ends early.
        let code = opened.get("code").and_then(|v| v.as_str()).unwrap_or("?");
        if code == E_SESSION_UNSUPPORTED {
            return Ok(());
        }
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
/// when the server offers no sessions or no snapshot store (nothing to
/// probe); a digest mismatch is a hard failure.
fn resume_flow(client: &mut Client, cell: &Cell, tenant: &str) -> Result<Option<()>, String> {
    let mut fields = vec![("tenant".to_string(), Value::String(tenant.to_string()))];
    fields.extend(cell.job_fields());
    let opened =
        client.call(&request("open", fields)).map_err(|e| format!("open: transport: {e}"))?;
    if opened.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        let code = opened.get("code").and_then(|v| v.as_str()).unwrap_or("?");
        if code == E_SESSION_UNSUPPORTED {
            return Ok(None);
        }
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

    #[test]
    fn specs_carry_the_serving_service_axis() {
        let registry = scenarios::builtin();
        for cell in cells(Mix::Full) {
            let spec = cell.spec(&registry);
            assert_eq!(spec.service, SERVICE_BHSERVE);
            assert_eq!(spec.nbodies, cell.nbodies);
            assert_eq!(spec.steps, JOB_STEPS);
            assert!(spec.key().contains("/bhserve/"), "{}", spec.key());
        }
        // Distinct cells have distinct keys.
        let keys: Vec<String> = cells(Mix::Full).iter().map(|c| c.spec(&registry).key()).collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
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

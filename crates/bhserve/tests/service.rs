//! End-to-end tests of the serving stack over real sockets: the
//! session-equivalence guarantee, deterministic tenant accounting, and the
//! `bhload` harness driving a live in-process server.

use barnes_hut_upc::backends;
use bhserve::load::{self, LoadOptions, Mix};
use bhserve::proto::{decode_job, hex_f64};
use bhserve::server::request;
use bhserve::{Client, Server, ServerOptions};
use scenarios::builtin;
use serde::Value;
use std::sync::{Arc, Barrier};

fn start(opts: ServerOptions) -> Server {
    Server::start(opts, builtin(), backends()).unwrap()
}

fn str_field(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(|x| x.as_str())
        .unwrap_or_else(|| panic!("missing {key}: {v:?}"))
        .to_string()
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_u64()).unwrap_or_else(|| panic!("missing {key}: {v:?}"))
}

/// The job every equivalence check uses, as raw request fields.
fn job_fields(backend: &str, n: u64) -> Vec<(String, Value)> {
    vec![
        ("tenant".to_string(), Value::String("equiv".to_string())),
        ("scenario".to_string(), Value::String("plummer".to_string())),
        ("backend".to_string(), Value::String(backend.to_string())),
        ("n".to_string(), Value::UInt(n)),
        ("steps".to_string(), Value::UInt(4)),
        ("measured".to_string(), Value::UInt(2)),
        ("nodes".to_string(), Value::UInt(2)),
    ]
}

/// N `step` requests against a live session must produce the body state of
/// one standalone N-step run **bit for bit** — the [`engine::Backend`]
/// chunked-stepping convention, checked for every backend through the real
/// socket path (framing, JSON, hex encoding included).
#[test]
fn chunked_session_stepping_is_bit_identical_to_one_run() {
    let registry = backends();
    let scenarios = builtin();
    let server = start(ServerOptions::default());
    for backend_name in registry.names() {
        assert!(registry.get(backend_name).unwrap().caps().sessions(), "{backend_name}");
        // The standalone reference: decode the *same* request fields the
        // server will decode, so the configs are identical by construction.
        let req = request("open", job_fields(backend_name, 48));
        let job = decode_job(&req, &scenarios, &registry).unwrap();
        let backend = registry.get(backend_name).unwrap();
        let initial = scenarios.get("plummer").unwrap().generate(48, job.cfg.seed);
        let expected = backend.run(&job.cfg, initial).bodies;
        assert_eq!(expected.len(), 48);

        // The served path: open, 2 + 2 steps, snapshot.
        let mut client = Client::connect(&server.addr()).unwrap();
        let opened = client.call(&req).unwrap();
        assert_eq!(
            opened.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{backend_name}: {opened:?}"
        );
        let sid = ("session".to_string(), Value::UInt(u64_field(&opened, "session")));
        for _ in 0..2 {
            let stepped = client
                .call(&request("step", vec![sid.clone(), ("steps".to_string(), Value::UInt(2))]))
                .unwrap();
            assert_eq!(
                stepped.get("ok").and_then(|v| v.as_bool()),
                Some(true),
                "{backend_name}: {stepped:?}"
            );
        }
        let snap = client.call(&request("snapshot", vec![sid])).unwrap();
        assert_eq!(u64_field(&snap, "steps_done"), 4);
        let bodies = snap.get("bodies").unwrap().as_array().unwrap();
        assert_eq!(bodies.len(), expected.len());

        for (body, exp) in bodies.iter().zip(&expected) {
            assert_eq!(u64_field(body, "id"), exp.id as u64, "{backend_name}");
            let ctx = format!("{backend_name}/body {}", exp.id);
            assert_eq!(str_field(body, "mass"), hex_f64(exp.mass), "{ctx}: mass");
            assert_eq!(str_field(body, "phi"), hex_f64(exp.phi), "{ctx}: phi");
            for (key, vec) in [("pos", exp.pos), ("vel", exp.vel), ("acc", exp.acc)] {
                let got = body.get(key).unwrap().as_array().unwrap();
                let want = [hex_f64(vec.x), hex_f64(vec.y), hex_f64(vec.z)];
                for (axis, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.as_str().unwrap(),
                        w,
                        "{ctx}: {key}[{axis}] diverged — chunked stepping is not bit-identical"
                    );
                }
            }
        }
    }
}

/// The quota ledger is denominated in deterministic counters, so the total
/// charged to a tenant for a set of served jobs must equal the sum of the
/// same jobs' counters measured standalone — exactly, not approximately.
/// The repeated job arrives from two connections at once: each requester
/// gets the job's exact result and pays its full cost.
#[test]
fn tenant_ledger_equals_sum_of_standalone_runs() {
    let registry = backends();
    let scenarios = builtin();
    let server = start(ServerOptions::default());
    let jobs = [("upc", 32u64), ("direct", 48), ("mpi", 64), ("upc", 32)]; // a repeat: charged twice

    let standalone = |backend_name: &str, n: u64| {
        let req = request("run", job_fields(backend_name, n));
        let job = decode_job(&req, &scenarios, &registry).unwrap();
        let initial = scenarios.get("plummer").unwrap().generate(n as usize, job.cfg.seed);
        registry.get(backend_name).unwrap().run(&job.cfg, initial)
    };
    let mut expected_interactions = 0u64;
    let mut expected_tree_ops = 0u64;
    for (backend_name, n) in &jobs {
        let stats = standalone(backend_name, *n).total_stats();
        expected_interactions += stats.interactions;
        expected_tree_ops += stats.tree_ops;
    }

    // The two distinct jobs in turn on one connection, then both copies of
    // the repeated one from two more connections, released together.
    let mut client = Client::connect(&server.addr()).unwrap();
    for (backend_name, n) in &jobs[1..3] {
        let reply = client.call(&request("run", job_fields(backend_name, *n))).unwrap();
        assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(true), "{reply:?}");
    }
    let start_line = Arc::new(Barrier::new(2));
    let concurrent: Vec<_> = (0..2)
        .map(|_| {
            let (addr, start_line) = (server.addr(), Arc::clone(&start_line));
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                start_line.wait();
                client.call(&request("run", job_fields("upc", 32))).unwrap()
            })
        })
        .collect();
    let reference = standalone("upc", 32);
    let stats = reference.total_stats();
    for handle in concurrent {
        let reply = handle.join().unwrap();
        assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(true), "{reply:?}");
        let total = reply.get("total_sim").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(total.to_bits(), reference.total.to_bits(), "total_sim");
        assert_eq!(u64_field(&reply, "interactions"), stats.interactions);
        assert_eq!(u64_field(&reply, "tree_ops"), stats.tree_ops);
        let phases = reply.get("phases").unwrap();
        for phase in engine::Phase::ALL {
            let got = phases.get(phase.key()).and_then(|v| v.as_f64()).unwrap();
            assert_eq!(got.to_bits(), reference.phases.get(phase).to_bits(), "{}", phase.key());
        }
        assert!(reply.get("batched").is_none(), "{reply:?}");
    }

    let ledger = server.quotas().usage("equiv");
    assert_eq!(ledger.runs, jobs.len() as u64);
    assert_eq!(
        ledger.interactions, expected_interactions,
        "served interaction charges must equal standalone totals exactly"
    );
    assert_eq!(ledger.tree_ops, expected_tree_ops);
}

/// A load run's per-cell summary: one line per quick cell, each with
/// measured latencies and throughput.
fn assert_cell_summaries(report: &load::LoadReport) {
    let labels: Vec<&str> = report.cells.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels, ["plummer/upc/n48", "plummer/direct/n96", "king/mpi/n192"]);
    for cell in &report.cells {
        assert!(cell.requests > 0, "{}: no measured requests", cell.label);
        assert!(cell.p50_ms > 0.0, "{}: latency must be measured", cell.label);
        assert!(cell.p99_ms >= cell.p50_ms, "{}: p99 below p50", cell.label);
        assert!(cell.req_per_s > 0.0, "{}: no throughput", cell.label);
    }
}

/// The `bhload` harness against a live server: mixed one-shot, session,
/// over-quota and mid-session-disconnect clients, with every cell of the
/// mix summarised.
#[test]
fn load_harness_drives_a_mixed_fleet() {
    let opts = ServerOptions {
        tenant_quotas: vec![("freeloader".to_string(), 1)],
        ..ServerOptions::default()
    };
    let server = start(opts);
    let load_opts = LoadOptions {
        addr: server.addr(),
        clients: 48,
        threads: 8,
        mix: Mix::Quick,
        session_every: 8,
        abuse: true,
        chaos: false,
    };
    let report = load::run(&load_opts).unwrap();

    assert!(report.quota_rejections >= 1, "the freeloader tenant must be refused");
    assert_eq!(report.disconnects, 1, "the mid-session disconnect must complete");
    assert!(report.sessions >= 1, "session flows must run");
    assert!(report.measured_requests >= 40, "most clients are measured one-shots");
    assert_eq!(report.failures, 0);

    assert_cell_summaries(&report);

    // The server survived the abuse: it still answers.
    let mut client = Client::connect(&server.addr()).unwrap();
    let pong = client.call(&request("ping", Vec::new())).unwrap();
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true));
}

/// A suspended session survives a full daemon restart: `suspend` on one
/// server instance, `resume` on a *fresh* instance pointed at the same
/// `--snap-dir`, and the continued trajectory is bit-identical to an
/// uninterrupted session — plus the structured error codes for a missing
/// store, a malformed token and an unknown token.
#[test]
fn suspended_sessions_survive_daemon_restarts() {
    let snap_dir = std::env::temp_dir().join(format!("bhserve-snap-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let with_store = || ServerOptions {
        snap_dir: Some(snap_dir.to_string_lossy().into_owned()),
        ..ServerOptions::default()
    };
    let fields = job_fields("direct", 32);

    // First daemon: open, advance 2 steps, suspend.
    let token = {
        let server = start(with_store());
        let mut client = Client::connect(&server.addr()).unwrap();
        let opened = client.call(&request("open", fields.clone())).unwrap();
        let sid = ("session".to_string(), Value::UInt(u64_field(&opened, "session")));
        client
            .call(&request("step", vec![sid.clone(), ("steps".to_string(), Value::UInt(2))]))
            .unwrap();
        let suspended = client.call(&request("suspend", vec![sid.clone()])).unwrap();
        assert_eq!(suspended.get("ok").and_then(|v| v.as_bool()), Some(true), "{suspended:?}");
        assert_eq!(u64_field(&suspended, "steps_done"), 2);
        // The session is gone from this connection once suspended.
        let gone = client.call(&request("query", vec![sid])).unwrap();
        assert_eq!(gone.get("code").unwrap().as_str(), Some(bhserve::proto::E_NO_SESSION));
        str_field(&suspended, "token")
    };
    assert_eq!(token.len(), 64, "tokens are manifest hashes");

    // Second daemon, same store directory: resume, finish, snapshot.
    let server = start(with_store());
    let mut client = Client::connect(&server.addr()).unwrap();
    let resumed = client
        .call(&request(
            "resume",
            vec![
                ("tenant".to_string(), Value::String("equiv".to_string())),
                ("token".to_string(), Value::String(token.clone())),
            ],
        ))
        .unwrap();
    assert_eq!(resumed.get("ok").and_then(|v| v.as_bool()), Some(true), "{resumed:?}");
    assert_eq!(u64_field(&resumed, "steps_done"), 2);
    let sid = ("session".to_string(), Value::UInt(u64_field(&resumed, "session")));
    client
        .call(&request("step", vec![sid.clone(), ("steps".to_string(), Value::UInt(2))]))
        .unwrap();
    let snap_resumed = client.call(&request("snapshot", vec![sid])).unwrap();
    assert_eq!(u64_field(&snap_resumed, "steps_done"), 4);

    // Reference: one uninterrupted 4-step session on the same server.
    let opened = client.call(&request("open", fields)).unwrap();
    let sid = ("session".to_string(), Value::UInt(u64_field(&opened, "session")));
    client
        .call(&request("step", vec![sid.clone(), ("steps".to_string(), Value::UInt(4))]))
        .unwrap();
    let snap_straight = client.call(&request("snapshot", vec![sid])).unwrap();
    // The snapshot wire encoding is bit-exact hex, so textual equality of
    // the body arrays *is* bit-for-bit state equality.
    assert_eq!(
        serde_json::to_string(snap_resumed.get("bodies").unwrap()).unwrap(),
        serde_json::to_string(snap_straight.get("bodies").unwrap()).unwrap(),
        "resumed trajectory must be bit-identical to the uninterrupted one"
    );

    // Error vocabulary: unknown token, malformed token, storeless server.
    let resume_req = |token: &str| {
        request(
            "resume",
            vec![
                ("tenant".to_string(), Value::String("equiv".to_string())),
                ("token".to_string(), Value::String(token.to_string())),
            ],
        )
    };
    let missing = client.call(&resume_req(&token.replace(&token[..4], "0000"))).unwrap();
    assert!(
        matches!(
            missing.get("code").unwrap().as_str(),
            Some(bhserve::proto::E_NO_SNAPSHOT) | Some(bhserve::proto::E_SNAP_CORRUPT)
        ),
        "{missing:?}"
    );
    let malformed = client.call(&resume_req("../../etc/passwd")).unwrap();
    assert_eq!(malformed.get("code").unwrap().as_str(), Some(bhserve::proto::E_PROTO));

    let storeless = start(ServerOptions::default());
    let mut client = Client::connect(&storeless.addr()).unwrap();
    let refused = client.call(&resume_req(&token)).unwrap();
    assert_eq!(refused.get("code").unwrap().as_str(), Some(bhserve::proto::E_SNAP_UNAVAILABLE));

    let _ = std::fs::remove_dir_all(&snap_dir);
}

/// Two daemons alive on one `--snap-dir`, each holding its store open since
/// it started: a session suspended on one resumes on the other, which finds
/// the new pack without reopening anything — and the token is the same one
/// a second suspend of the same state gives.
#[test]
fn daemons_sharing_a_snap_dir_see_each_others_snapshots() {
    let snap_dir = std::env::temp_dir().join(format!("bhserve-shared-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let with_store = || ServerOptions {
        snap_dir: Some(snap_dir.to_string_lossy().into_owned()),
        ..ServerOptions::default()
    };
    let (a, b) = (start(with_store()), start(with_store()));
    let (token, digest) = load::suspend_one(&a.addr()).unwrap();
    assert_eq!(load::resume_token(&b.addr(), &token).unwrap(), digest);
    // The same state suspended on the other daemon: same token, and its
    // chunks are already there.
    let (token_b, digest_b) = load::suspend_one(&b.addr()).unwrap();
    assert_eq!((token_b, digest_b), (token.clone(), digest.clone()));
    assert_eq!(std::fs::read_dir(snap_dir.join("packs")).unwrap().count(), 1);
    assert_eq!(load::resume_token(&a.addr(), &token).unwrap(), digest);
    let _ = std::fs::remove_dir_all(&snap_dir);
}

/// The chaos fleet against a live server with injected frame faults and a
/// snapshot store: measured requests recover through retries, abort and
/// suspend→resume probes run, and every cell is summarised — with zero hard
/// failures.
#[test]
fn chaos_fleet_recovers_from_injected_faults() {
    let snap_dir = std::env::temp_dir().join(format!("bhserve-chaos-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let opts = ServerOptions {
        snap_dir: Some(snap_dir.to_string_lossy().into_owned()),
        // One injected mid-frame write disconnect, early in the run: some
        // client loses its response and must recover (or be tolerated as a
        // chaos casualty) — never a hard failure.
        faults: engine::FaultPlan::parse("seed=5,frame.write.disconnect@n2").unwrap(),
        ..ServerOptions::default()
    };
    let server = start(opts);
    let load_opts = LoadOptions {
        addr: server.addr(),
        clients: 64,
        threads: 8,
        mix: Mix::Quick,
        session_every: 8,
        abuse: false,
        chaos: true,
    };
    let report = load::run(&load_opts).unwrap();
    assert_eq!(report.failures, 0);
    assert!(report.aborts >= 1, "chaos mixes in mid-frame aborters");
    assert!(report.resume_checks >= 1, "chaos probes suspend/resume bit-identity");
    assert!(
        report.retried + report.disconnects >= 1,
        "the injected disconnect must have hit someone"
    );
    assert_cell_summaries(&report);
    // The server is still healthy after the chaos pass.
    let mut client = Client::connect(&server.addr()).unwrap();
    let health = client.call(&request("health", Vec::new())).unwrap();
    assert_eq!(health.get("ok").and_then(|v| v.as_bool()), Some(true));
    let _ = std::fs::remove_dir_all(&snap_dir);
}

/// The cross-restart probe pair: `suspend_one` against one daemon,
/// `resume_token` against a fresh daemon on the same store — the digests
/// must match bit-for-bit (what the CI chaos job asserts across a SIGKILL).
#[test]
fn suspend_probe_digest_survives_a_daemon_restart() {
    let snap_dir = std::env::temp_dir().join(format!("bhserve-probe-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let with_store = || ServerOptions {
        snap_dir: Some(snap_dir.to_string_lossy().into_owned()),
        ..ServerOptions::default()
    };
    let (token, digest_before) = {
        let server = start(with_store());
        load::suspend_one(&server.addr()).unwrap()
    };
    let server = start(with_store());
    let digest_after = load::resume_token(&server.addr(), &token).unwrap();
    assert_eq!(digest_before, digest_after, "resume must restore bit-identical state");
    let _ = std::fs::remove_dir_all(&snap_dir);
}

/// A chunk corrupted on disk surfaces as a structured `E_SNAP_CORRUPT`
/// rejection on resume — never a panic, never a silent wrong answer —
/// and the connection stays alive for further requests.
#[test]
fn corrupt_chunks_reject_resume_with_e_snap_corrupt() {
    let snap_dir =
        std::env::temp_dir().join(format!("bhserve-corrupt-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let server = start(ServerOptions {
        snap_dir: Some(snap_dir.to_string_lossy().into_owned()),
        ..ServerOptions::default()
    });
    let (token, _digest) = load::suspend_one(&server.addr()).unwrap();

    // Flip one payload byte (a pack's last byte is a chunk's) in every pack.
    let mut corrupted = 0;
    for pack in std::fs::read_dir(snap_dir.join("packs")).unwrap() {
        let path = pack.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        if let Some(b) = bytes.last_mut() {
            *b ^= 0x01;
        }
        std::fs::write(&path, bytes).unwrap();
        corrupted += 1;
    }
    assert!(corrupted >= 1, "the suspend must have written chunk objects");

    let mut client = Client::connect(&server.addr()).unwrap();
    let refused = client
        .call(&request(
            "resume",
            vec![
                ("tenant".to_string(), Value::String("equiv".to_string())),
                ("token".to_string(), Value::String(token)),
            ],
        ))
        .unwrap();
    assert_eq!(
        refused.get("code").and_then(|v| v.as_str()),
        Some(bhserve::proto::E_SNAP_CORRUPT),
        "{refused:?}"
    );
    // The connection survives the rejection.
    let pong = client.call(&request("ping", Vec::new())).unwrap();
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true));
    let _ = std::fs::remove_dir_all(&snap_dir);
}

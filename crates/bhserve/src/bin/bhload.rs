//! The `bhload` stress driver: point it at a live `bhserve`, drive the
//! mix, and print what the fleet saw on stderr: the client tallies and one
//! line per cell (requests, p50, p99, req/s).
//!
//! Exit codes: 0 success, 1 a failed load run, 2 usage.

use bhserve::load::{self, LoadOptions, Mix};
use engine::cli::Args;

fn usage() -> String {
    "bhload — stress harness for the bhserve simulation service

USAGE:
    bhload --addr HOST:PORT [OPTIONS]

OPTIONS:
    --addr HOST:PORT     the live bhserve to drive (required)
    --clients N          concurrent simulated clients (default 1000)
    --threads N          worker threads multiplexing the clients (default 32)
    --mix quick|full     cell grid to drive (default quick)
    --session-every N    every Nth client runs a session flow (default 16; 0 disables)
    --abuse              mix in an over-quota tenant and a mid-session disconnect
    --chaos              chaos mode: measured requests recover from
                         faults/restarts via retries (counted on the chaos
                         line), and the mix adds mid-frame aborters and
                         suspend/resume bit-identity probes
    --suspend-one        open one probe session, suspend it, print its token
                         and digest as one JSON line and exit (chaos CI)
    --resume-token TOK   resume TOK, print the digest as one JSON line and
                         exit; it must equal the one --suspend-one printed
    --help               show this help
"
    .to_string()
}

/// Every flag `bhload` accepts (see [`engine::cli::Args`]).
const FLAGS: &[&str] = &[
    "--addr",
    "--clients",
    "--threads",
    "--mix",
    "--session-every",
    "--abuse",
    "--chaos",
    "--suspend-one",
    "--resume-token",
];

struct Options {
    load: LoadOptions,
    suspend_one: bool,
    resume_token: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options { load: LoadOptions::default(), suspend_one: false, resume_token: None };
    let mut addr: Option<String> = None;
    let mut args = Args::from_env("bhload", FLAGS, usage);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(args.value("--addr")),
            "--clients" => opts.load.clients = args.number("--clients"),
            "--threads" => opts.load.threads = args.number("--threads"),
            "--mix" => {
                opts.load.mix = match args.value("--mix").as_str() {
                    "quick" => Mix::Quick,
                    "full" => Mix::Full,
                    other => args.reject(&format!("--mix must be quick or full, got {other:?}")),
                }
            }
            "--session-every" => opts.load.session_every = args.number("--session-every"),
            "--abuse" => opts.load.abuse = true,
            "--chaos" => opts.load.chaos = true,
            "--suspend-one" => opts.suspend_one = true,
            "--resume-token" => opts.resume_token = Some(args.value("--resume-token")),
            other => args.unknown(other),
        }
    }
    let Some(addr) = addr else { args.reject("--addr is required") };
    opts.load.addr =
        addr.parse().unwrap_or_else(|e| args.reject(&format!("invalid --addr {addr:?}: {e}")));
    opts
}

fn main() {
    let opts = parse_args();

    // The probe modes: one session suspended / resumed, digests printed as
    // JSON for the CI chaos job's cross-restart bit-identity assertion.
    if opts.suspend_one {
        match load::suspend_one(&opts.load.addr) {
            Ok((token, digest)) => {
                println!("{{\"token\": \"{token}\", \"digest\": \"{digest}\"}}");
                return;
            }
            Err(e) => {
                eprintln!("bhload: suspend probe failed: {e}");
                std::process::exit(1)
            }
        }
    }
    if let Some(token) = &opts.resume_token {
        match load::resume_token(&opts.load.addr, token) {
            Ok(digest) => {
                println!("{{\"digest\": \"{digest}\"}}");
                return;
            }
            Err(e) => {
                eprintln!("bhload: resume probe failed: {e}");
                std::process::exit(1)
            }
        }
    }

    let report = match load::run(&opts.load) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bhload: load run failed: {e}");
            std::process::exit(1)
        }
    };

    eprintln!(
        "bhload: {} clients over {} worker threads, {:.2}s elapsed",
        opts.load.clients, opts.load.threads, report.elapsed_seconds
    );
    eprintln!(
        "bhload: {} measured requests, {} session flows, {} quota rejections, {} disconnects",
        report.measured_requests, report.sessions, report.quota_rejections, report.disconnects
    );
    if opts.load.chaos {
        eprintln!(
            "bhload: chaos: {} retried requests, {} mid-frame aborts, {} resume checks",
            report.retried, report.aborts, report.resume_checks
        );
    }
    for cell in &report.cells {
        eprintln!(
            "bhload: {:<24} reqs {:>4}  p50 {:>8.2}ms  p99 {:>8.2}ms  {:>7.1} req/s",
            cell.label, cell.requests, cell.p50_ms, cell.p99_ms, cell.req_per_s
        );
    }
}

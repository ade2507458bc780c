//! The `bhserve` daemon binary: parse options, start the server, park.
//!
//! Prints `bhserve: listening on <addr>` on stdout once the socket is
//! bound (scripts — the CI smoke job, `bhload` wrappers — parse this line
//! to learn the port when started with `--listen 127.0.0.1:0`).

use bhserve::{Server, ServerOptions};
use engine::cli::Args;

fn usage() -> ! {
    eprintln!(
        "bhserve — multi-tenant Barnes-Hut simulation service

USAGE:
    bhserve [OPTIONS]

OPTIONS:
    --listen ADDR             listen address (default 127.0.0.1:0; port 0 picks a free port)
    --max-concurrent-runs N   engine runs allowed at once (default 2)
    --quota-interactions N    default per-tenant quota, in interactions (default: unmetered)
    --tenant-quota NAME=N     per-tenant quota override (repeatable)
    --max-sessions N          live sessions allowed per connection (default 16)
    --snap-dir DIR            snapshot store for suspend/resume (default: disabled);
                              suspended sessions survive daemon restarts pointed
                              at the same directory
    --read-timeout-secs N     per-connection read deadline; idle connections
                              (including connect-and-say-nothing clients) are
                              reaped after N seconds (default 600; 0 = never)
    --write-timeout-secs N    per-connection write deadline (default 60; 0 = never)
    --idle-session-secs N     evict sessions idle longer than N seconds
                              (default: keep until the connection closes)
    --max-inflight N          shed heavy requests beyond N concurrently
                              dispatching, with E_OVERLOADED + retry_after_ms
                              (default: never shed)
    --faults SPEC             deterministic fault-injection plan, e.g.
                              seed=7,frame.read.short@p0.01,snap.chunk.torn@n2
                              (see the faultline docs for the site vocabulary)
    --help                    show this help"
    );
    std::process::exit(2)
}

/// Every flag `bhserve` accepts (see [`engine::cli::Args`]).
const FLAGS: &[&str] = &[
    "--listen",
    "--max-concurrent-runs",
    "--quota-interactions",
    "--tenant-quota",
    "--max-sessions",
    "--snap-dir",
    "--read-timeout-secs",
    "--write-timeout-secs",
    "--idle-session-secs",
    "--max-inflight",
    "--faults",
    "--help",
    "-h",
];

fn parse_args() -> ServerOptions {
    let mut opts = ServerOptions::default();
    let mut args = Args::from_env("bhserve", FLAGS, usage);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => opts.addr = args.value("--listen"),
            "--max-concurrent-runs" => {
                opts.max_concurrent_runs = args.number("--max-concurrent-runs")
            }
            "--quota-interactions" => {
                opts.default_quota = Some(args.number("--quota-interactions"))
            }
            "--tenant-quota" => {
                let spec = args.value("--tenant-quota");
                let Some((name, limit)) = spec.split_once('=') else {
                    args.reject(&format!("--tenant-quota expects NAME=N, got {spec:?}"))
                };
                opts.tenant_quotas.push((name.to_string(), args.parse("--tenant-quota", limit)));
            }
            "--max-sessions" => opts.max_sessions_per_conn = args.number("--max-sessions"),
            "--snap-dir" => opts.snap_dir = Some(args.value("--snap-dir")),
            "--read-timeout-secs" => {
                opts.read_timeout = timeout_of(args.number("--read-timeout-secs"))
            }
            "--write-timeout-secs" => {
                opts.write_timeout = timeout_of(args.number("--write-timeout-secs"))
            }
            "--idle-session-secs" => {
                opts.idle_session_secs = Some(args.number("--idle-session-secs"))
            }
            "--max-inflight" => opts.max_inflight = Some(args.number("--max-inflight")),
            "--faults" => {
                let spec = args.value("--faults");
                opts.faults = engine::FaultPlan::parse(&spec).unwrap_or_else(|e| args.reject(&e));
            }
            "--help" | "-h" => usage(),
            other => args.unknown(other),
        }
    }
    opts
}

/// `0` disables a deadline (blocking forever), anything else is seconds.
fn timeout_of(secs: u64) -> Option<std::time::Duration> {
    (secs > 0).then(|| std::time::Duration::from_secs(secs))
}

fn main() {
    let opts = parse_args();
    let server = match Server::start(opts, scenarios::builtin(), barnes_hut_upc::backends()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bhserve: failed to start: {e}");
            std::process::exit(1)
        }
    };
    println!("bhserve: listening on {}", server.addr());
    // The accept loop runs on its own thread; park the main thread until
    // the process is killed.  `server` must stay alive — dropping it stops
    // the accept loop.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

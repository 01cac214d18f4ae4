//! `straightd` — the persistent simulation daemon.
//!
//! Owns one long-lived `LabSession` (worker pool + image/run caches)
//! and serves it over the newline-delimited-JSON protocol of
//! `straight_bench::serve` on a TCP address or Unix-domain socket.
//! Repeated submissions of the same cell — from any number of clients
//! — run the simulation once; everyone else reads the cache.
//!
//! SIGTERM/SIGINT (or a `shutdown` request) drain gracefully: the
//! listener stops accepting, in-flight jobs run to completion, then
//! the process exits 0. See `docs/SERVING.md` for the protocol.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use straight_bench::serve::{parse_addr, Daemon, DaemonConfig};

const USAGE: &str = "\
straightd — persistent simulation daemon for the STRAIGHT reproduction

USAGE:
    straightd --listen ADDR [OPTIONS]

OPTIONS:
    --listen ADDR        host:port, or a Unix socket path containing `/`
    --jobs N             Worker-thread cap, 1..=1024 (default: all cores)
    --queue N            Job-queue bound; beyond it submissions get a
                         queue-full error (default: 64)
    --store DIR          Crash-safe on-disk record store; completed
                         pipeline simulations survive restarts (default:
                         memory only)
    --idle-timeout-ms N  Reap connections idle for N ms; 0 disables
                         (default: 300000)
    --help               This text

Clients: `straight-lab --remote ADDR ...`, or any newline-delimited-JSON
speaker (see docs/SERVING.md). SIGTERM drains in-flight jobs and exits.
STRAIGHT_CHAOS_PANIC_CELL=<cell-id|any> injects a worker panic into that
cell's execution (fault-tolerance testing only).
";

/// Set by the signal handler, polled by the accept loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Registers an async-signal-safe handler: just a store to a static
/// atomic, the only thing that is safe to do there. This is the lone
/// unsafe block in the workspace's binaries; the libraries all
/// `forbid(unsafe_code)`.
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

struct Options {
    listen: String,
    jobs: Option<usize>,
    queue: Option<usize>,
    store: Option<std::path::PathBuf>,
    idle_timeout_ms: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut listen = None;
    let mut jobs = None;
    let mut queue = None;
    let mut store = None;
    let mut idle_timeout_ms = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--listen" | "-l" => listen = Some(value_for("--listen")?),
            "--jobs" | "-j" => {
                jobs = Some(straight_bench::parse_jobs(&value_for("--jobs")?)?);
            }
            "--queue" => {
                let value = value_for("--queue")?;
                queue = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--queue: `{value}` is not a positive integer"))?,
                );
            }
            "--store" => store = Some(std::path::PathBuf::from(value_for("--store")?)),
            "--idle-timeout-ms" => {
                let value = value_for("--idle-timeout-ms")?;
                idle_timeout_ms = Some(value.parse::<u64>().map_err(|_| {
                    format!("--idle-timeout-ms: `{value}` is not a non-negative integer")
                })?);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let listen = listen.ok_or_else(|| "--listen is required".to_string())?;
    Ok(Options { listen, jobs, queue, store, idle_timeout_ms })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("straightd: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut config = DaemonConfig::new(parse_addr(&opts.listen));
    if let Some(jobs) = opts.jobs {
        config.jobs = jobs;
    }
    if let Some(queue) = opts.queue {
        config.queue_cap = queue;
    }
    config.store = opts.store;
    if let Some(ms) = opts.idle_timeout_ms {
        config.idle_timeout =
            if ms == 0 { None } else { Some(std::time::Duration::from_millis(ms)) };
    }
    // Chaos injection is env-only (never a flag) so it cannot be
    // reached for by accident from normal command lines.
    if let Ok(victim) = std::env::var("STRAIGHT_CHAOS_PANIC_CELL") {
        if !victim.is_empty() {
            eprintln!("straightd: CHAOS: injecting panics into cell `{victim}`");
            config.chaos_panic_cell = Some(victim);
        }
    }
    let daemon = match Daemon::bind(&config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("straightd: cannot listen on {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers();
    eprintln!(
        "straightd: listening on {} ({} workers, queue bound {})",
        daemon.local_addr(),
        config.jobs,
        config.queue_cap
    );
    if let Some(report) = daemon.store_report() {
        eprintln!("straightd: store: {}", report.summary());
    }
    match daemon.run(&SHUTDOWN) {
        Ok(()) => {
            eprintln!("straightd: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("straightd: listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `straight-lab` — the unified parallel experiment runner.
//!
//! One binary regenerates the paper's whole evaluation: it enumerates
//! the (figure × workload × machine config × ISA profile) grid,
//! executes cells in parallel, writes machine-readable
//! `BENCH_<name>.json` records, and re-renders the paper-shaped text
//! reports from those records. `docs/REPRODUCING.md` maps every paper
//! figure to its invocation.
//!
//! With `--remote <addr>` the same selection runs on a `straightd`
//! daemon instead of in-process: cells execute in the daemon's
//! persistent session (so its caches survive across invocations), and
//! the fetched records are byte-identical — after `normalized()` — to
//! an in-process run at the same revision. See `docs/SERVING.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use straight_bench::serve::{Client, ClientConfig};
use straight_core::experiment::{self, ExperimentId, RunParams};
use straight_core::lab::{default_jobs, validate_file, write_result, LabRun, LabSession};

const USAGE: &str = "\
straight-lab — unified parallel experiment runner for the STRAIGHT reproduction

USAGE:
    straight-lab [OPTIONS]

SELECTION (at least one):
    --all                Run the full grid (fig11..fig17, sensitivity, table1, sampled)
    --figure NAME        Run one experiment; repeatable, accepts comma lists
    --list               List the experiment grid and exit
    --validate FILE      Parse and schema-check a BENCH_*.json file; repeatable
    --normalize FILE     Print a BENCH_*.json file with run-dependent timing
                         fields normalized away (for byte comparison)

OPTIONS:
    --remote ADDR        Run on a straightd daemon instead of in-process
                         (host:port, or a Unix socket path containing `/`)
    --remote-timeout-ms N   Socket read/write timeout for --remote; 0 blocks
                         forever (default: 30000)
    --remote-retries N   Retry budget for transient connect failures and
                         queue-full refusals, with exponential backoff
                         (default: 4)
    --stats              With --remote: print the daemon's stats JSON and exit
    --jobs N             Worker-thread cap, 1..=1024 (default: all cores)
    --quick              Reduced iteration counts for smoke runs (dhry 50, cm 1)
    --out DIR            Where to write BENCH_<name>.json (default: .)
    --no-write           Render reports without writing JSON records
    --quiet              Suppress the text reports (records still written)
    --profile            Print a host-side throughput table (per pipeline
                         cell: simulated cycles, sim wall time, kcycles/s)
                         and the process's peak resident set (Linux)
    --help               This text

ENVIRONMENT:
    STRAIGHT_DHRY_ITERS / STRAIGHT_CM_ITERS   positive iteration counts (default 200 / 3)
    STRAIGHT_GIT_REV                          overrides recorded git revision
";

struct Options {
    all: bool,
    figures: Vec<ExperimentId>,
    list: bool,
    validate: Vec<PathBuf>,
    normalize: Vec<PathBuf>,
    remote: Option<String>,
    remote_timeout_ms: Option<u64>,
    remote_retries: Option<u32>,
    stats: bool,
    jobs: usize,
    /// `--quick`'s counts, or the environment's.
    params: RunParams,
    out: PathBuf,
    no_write: bool,
    quiet: bool,
    profile: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        all: false,
        figures: Vec::new(),
        list: false,
        validate: Vec::new(),
        normalize: Vec::new(),
        remote: None,
        remote_timeout_ms: None,
        remote_retries: None,
        stats: false,
        jobs: default_jobs(),
        params: RunParams::default(),
        out: PathBuf::from("."),
        no_write: false,
        quiet: false,
        profile: false,
    };
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--all" => opts.all = true,
            "--figure" | "-f" => {
                let value = value_for("--figure")?;
                for name in value.split(',').map(str::trim) {
                    // The unknown-name error is structured at parse
                    // time: it carries the full list of valid ids.
                    opts.figures.push(name.parse::<ExperimentId>().map_err(|e| e.to_string())?);
                }
            }
            "--list" => opts.list = true,
            "--validate" => opts.validate.push(PathBuf::from(value_for("--validate")?)),
            "--normalize" => opts.normalize.push(PathBuf::from(value_for("--normalize")?)),
            "--remote" => opts.remote = Some(value_for("--remote")?),
            "--remote-timeout-ms" => {
                let value = value_for("--remote-timeout-ms")?;
                opts.remote_timeout_ms = Some(value.parse::<u64>().map_err(|_| {
                    format!("--remote-timeout-ms: `{value}` is not a non-negative integer")
                })?);
            }
            "--remote-retries" => {
                let value = value_for("--remote-retries")?;
                opts.remote_retries = Some(value.parse::<u32>().map_err(|_| {
                    format!("--remote-retries: `{value}` is not a non-negative integer")
                })?);
            }
            "--stats" => opts.stats = true,
            "--jobs" | "-j" => {
                opts.jobs = straight_bench::parse_jobs(&value_for("--jobs")?)?;
            }
            "--quick" => quick = true,
            "--out" | "-o" => opts.out = PathBuf::from(value_for("--out")?),
            "--no-write" => opts.no_write = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--profile" => opts.profile = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.stats && opts.remote.is_none() {
        return Err("--stats needs --remote ADDR (it queries a daemon)".to_string());
    }
    if !opts.all
        && !opts.list
        && !opts.stats
        && opts.figures.is_empty()
        && opts.validate.is_empty()
        && opts.normalize.is_empty()
    {
        return Err(
            "nothing to do: pass --all, --figure, --list, --stats, --validate, or --normalize"
                .to_string(),
        );
    }
    opts.params = if quick { RunParams::quick() } else { straight_bench::params_from_env()? };
    Ok(opts)
}

fn list_grid() {
    println!("{:<12} {:<14} {:>5}  TITLE", "NAME", "PAPER", "CELLS");
    for spec in experiment::all() {
        println!(
            "{:<12} {:<14} {:>5}  {}",
            spec.id.name(),
            spec.paper_ref,
            spec.cells().len(),
            spec.title
        );
    }
}

fn validate(paths: &[PathBuf]) -> ExitCode {
    let mut failed = false;
    for path in paths {
        match validate_file(path) {
            Ok(result) => println!(
                "OK {}: {} ({} cells, git {})",
                path.display(),
                result.experiment,
                result.cells.len(),
                result.git_rev
            ),
            Err(e) => {
                eprintln!("INVALID {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints each file's records with run-dependent timing zeroed, so two
/// runs of the same revision can be compared with `cmp`/`diff` — the
/// daemon-vs-in-process check `scripts/ci.sh` performs.
fn normalize(paths: &[PathBuf]) -> ExitCode {
    use straight_json::ToJson;
    for path in paths {
        match validate_file(path) {
            Ok(result) => println!("{}", result.normalized().to_json().render_pretty()),
            Err(e) => {
                eprintln!("INVALID {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Prints the host-side profiler summary: one row per pipeline cell
/// with the simulation's wall time and throughput, then totals over
/// the *unique* simulations (cells sharing a config fingerprint share
/// one cached run, so their times are the same measurement), then the
/// process's peak resident set where the OS reports it.
fn print_profile(runs: &[LabRun]) {
    println!();
    println!("{:<44} {:>12} {:>10} {:>10}", "PROFILE (pipeline cells)", "CYCLES", "SIM ms", "KCYC/S");
    let mut seen = std::collections::BTreeSet::new();
    let mut total_cycles = 0u64;
    let mut total_ms = 0.0f64;
    for cell in runs.iter().flat_map(|r| &r.result.cells) {
        let Some(sim_ms) = cell.sim_wall_ms else { continue };
        let kcps = cell.ksim_cycles_per_sec.unwrap_or(0.0);
        let cached = !seen.insert(cell.config_fingerprint.clone());
        if !cached {
            total_cycles += cell.cycles;
            total_ms += sim_ms;
        }
        println!(
            "{:<44} {:>12} {:>10.1} {:>10.0}{}",
            cell.id,
            cell.cycles,
            sim_ms,
            kcps,
            if cached { "  (cached)" } else { "" }
        );
    }
    if seen.is_empty() {
        println!("(no pipeline cells in this selection)");
    } else {
        println!(
            "{:<44} {:>12} {:>10.1} {:>10.0}",
            format!("TOTAL ({} unique simulations)", seen.len()),
            total_cycles,
            total_ms,
            if total_ms > 0.0 { total_cycles as f64 / total_ms } else { 0.0 }
        );
    }
    if let Some(kib) = peak_rss_kib() {
        println!("peak RSS (VmHWM): {:.1} MB", kib as f64 / 1024.0);
    }
}

/// The process's peak resident set in KiB (`VmHWM` in
/// `/proc/self/status`); `None` where that file is absent.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Emits one finished run: report text, record file, write notice.
fn emit_run(opts: &Options, run: &LabRun) {
    if !opts.quiet {
        print!("{}", run.rendered);
    }
    if let Some(path) = &run.path {
        eprintln!(
            "straight-lab: wrote {} ({} cells, {:.0} ms compute)",
            path.display(),
            run.result.cells.len(),
            run.result.wall_ms
        );
    }
}

fn run_local(opts: &Options, ids: &[ExperimentId], params: RunParams) -> ExitCode {
    let session = match LabSession::builder()
        .jobs(opts.jobs)
        .out_dir((!opts.no_write).then(|| opts.out.clone()))
        .build()
    {
        Ok(session) => session,
        Err(e) => {
            eprintln!("straight-lab: {e}");
            return ExitCode::FAILURE;
        }
    };
    match session.run(ids, params) {
        Ok(runs) => {
            for run in &runs {
                emit_run(opts, run);
            }
            if opts.profile {
                print_profile(&runs);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("straight-lab: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The client resilience knobs from the command line: socket timeouts
/// (`--remote-timeout-ms`, 0 disables) and the retry budget
/// (`--remote-retries`).
fn client_config(opts: &Options) -> ClientConfig {
    let mut config = ClientConfig::default();
    if let Some(ms) = opts.remote_timeout_ms {
        config.io_timeout = std::time::Duration::from_millis(ms);
        if ms != 0 {
            config.connect_timeout = std::time::Duration::from_millis(ms);
        }
    }
    if let Some(retries) = opts.remote_retries {
        config.retries = retries;
    }
    config
}

/// Connects with retry/backoff; failures are terminal and explain the
/// budget that was spent.
fn connect_remote(opts: &Options, addr: &str) -> Result<Client, ExitCode> {
    Client::connect_with(addr, &client_config(opts)).map_err(|e| {
        eprintln!("straight-lab: cannot connect to {addr}: {e}");
        ExitCode::FAILURE
    })
}

/// `--stats`: print the daemon's stats snapshot as pretty JSON.
fn run_stats(opts: &Options, addr: &str) -> ExitCode {
    let mut client = match connect_remote(opts, addr) {
        Ok(client) => client,
        Err(code) => return code,
    };
    match client.stats() {
        Ok(stats) => {
            println!("{}", stats.render_pretty());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("straight-lab: stats query failed on {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The remote path: submit every experiment up front (the daemon's
/// pool pipelines their cells), then wait, fetch, render and persist
/// locally.
fn run_remote(opts: &Options, addr: &str, ids: &[ExperimentId], params: RunParams) -> ExitCode {
    let mut client = match connect_remote(opts, addr) {
        Ok(client) => client,
        Err(code) => return code,
    };
    let mut submitted = Vec::with_capacity(ids.len());
    for &id in ids {
        match client.submit_experiment_with_retry(id, &params) {
            Ok(job) => submitted.push((id, job)),
            Err(e) => {
                eprintln!("straight-lab: submit {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut runs = Vec::with_capacity(submitted.len());
    for (id, job) in submitted {
        // Fetch regardless of the terminal state: for failed or
        // cancelled jobs the daemon answers with the structured
        // job-failed error, which is the message we want to surface.
        let outcome = client.wait_job(job).and_then(|_| client.fetch_experiment(job));
        let result = match outcome {
            Ok(result) => result,
            Err(e) => {
                eprintln!("straight-lab: {id} failed on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let rendered = match id.spec().render(&result) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("straight-lab: {id}: daemon records did not render: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = if opts.no_write {
            None
        } else {
            match write_result(&opts.out, &result) {
                Ok(path) => Some(path),
                Err(e) => {
                    eprintln!("straight-lab: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        let run = LabRun { result, rendered, path };
        emit_run(opts, &run);
        runs.push(run);
    }
    if opts.profile {
        print_profile(&runs);
    }
    let (retries, timeouts) = client.retry_counters();
    if retries > 0 || timeouts > 0 {
        eprintln!("straight-lab: remote resilience: {retries} retries, {timeouts} timeouts");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("straight-lab: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every requested action runs, in this order, until one fails.
    if opts.list {
        list_grid();
    }
    if !opts.normalize.is_empty() {
        let code = normalize(&opts.normalize);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    if !opts.validate.is_empty() {
        let code = validate(&opts.validate);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    if opts.stats {
        let Some(addr) = &opts.remote else { unreachable!("parse_args enforces --remote") };
        let code = run_stats(&opts, addr);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    if !opts.all && opts.figures.is_empty() {
        return ExitCode::SUCCESS;
    }

    let ids: Vec<ExperimentId> = if opts.all {
        ExperimentId::ALL.to_vec()
    } else {
        opts.figures.clone()
    };
    match &opts.remote {
        Some(addr) => run_remote(&opts, addr, &ids, opts.params),
        None => run_local(&opts, &ids, opts.params),
    }
}

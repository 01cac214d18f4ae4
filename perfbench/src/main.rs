//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|emulate|serve --seed N --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it makes the separate traced
//! run and reports per-layer metrics. It prints every metric by name
//! with its unit and direction, then, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Working files, span
//! dumps and a provenance record go to `.perfbench/` under the current
//! directory. See `perfbench/README.md` for the workloads and metrics.

mod checks;
mod grid;
mod metrics;
mod replay;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use straight_core::experiment::RunParams;
use straight_json::{obj, Json, ToJson};

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use trace::Span;

/// Iteration counts and sizes of one benchmark scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    /// Iteration counts of the `grid` workload.
    pub grid: RunParams,
    /// Iteration counts of the `emulate` workload.
    pub emulate: RunParams,
    /// Iteration counts of the `serve` hot set.
    pub serve: RunParams,
    /// Cold `serve` requests draw Dhrystone iteration counts from
    /// `serve.dhry_iters + 1 ..= serve.dhry_iters + cold_span`.
    pub cold_span: u32,
    /// `serve` requests per client per pass.
    pub serve_pass: usize,
    /// `serve` requests per client per second of `--seconds`: a run
    /// serves a fixed script of about that length, so the daemon's
    /// per-job memory does not make the peak RSS follow host speed.
    pub serve_rate: usize,
    /// How many times a `serve` run sets up, for the `setup_s` median.
    pub setups: usize,
}

fn params(dhry_iters: u32, cm_iters: u32) -> RunParams {
    RunParams {
        dhry_iters,
        cm_iters,
        ..RunParams::default()
    }
}

impl Scale {
    fn full() -> Scale {
        Scale {
            name: "full",
            grid: params(500, 8),
            emulate: params(30_000, 300),
            serve: params(200, 1),
            cold_span: 150,
            serve_pass: 20,
            serve_rate: 45,
            setups: 15,
        }
    }

    /// A scale small enough for the self-test.
    fn tiny() -> Scale {
        Scale {
            name: "tiny",
            grid: params(20, 1),
            emulate: params(200, 2),
            serve: params(10, 1),
            cold_span: 60,
            serve_pass: 10,
            serve_rate: 100,
            setups: 2,
        }
    }

    fn to_json(self) -> Json {
        obj()
            .field("name", self.name)
            .field("grid", &self.grid)
            .field("emulate", &self.emulate)
            .field("serve", &self.serve)
            .field("cold_span", &self.cold_span)
            .field("serve_pass", &(self.serve_pass as u64))
            .field("serve_rate", &(self.serve_rate as u64))
            .field("setups", &(self.setups as u64))
            .build()
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells or requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub problems: Vec<String>,
    pub values: Values,
    /// Spans of the traced run (empty with tracing off).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(problem.into());
    }
}

/// Run-wide settings every workload receives.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// This run's scratch directory (removed at the end).
    pub work: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    /// Internal: run one `grid`/`emulate` pass for a timed run's parent.
    pass: bool,
}

const USAGE: &str =
    "usage: perfbench --workload grid|emulate|serve --seed N --seconds S --trace 0|1 [--scale full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::full();
    let mut pass = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--pass" => pass = number()? != 0,
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::full(),
                    "tiny" => Scale::tiny(),
                    other => return Err(format!("--scale: `{other}` is not full or tiny")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["grid", "emulate", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if pass && workload == "serve" {
        return Err("--pass runs one grid or emulate pass".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        pass,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, model)| model.trim().to_string(),
        )
}

fn metric_json(defs: &[MetricDef], values: &Values) -> Result<Json, String> {
    let mut out = obj();
    for def in defs {
        let value = values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", def.name));
        }
        out = out.field(
            def.name,
            &obj().field("value", &value).field("unit", def.unit),
        );
    }
    Ok(out.build())
}

fn run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let work = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        scale: args.scale,
        work: work.clone(),
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        (workload, _) if args.pass => {
            let kind = if workload == "grid" {
                grid::Kind::Grid
            } else {
                grid::Kind::Emulate
            };
            // The parent reads this one line.
            grid::child(kind, &run)
                .map(|report| println!("{}", report.render()))
                .map(|()| Outcome::default())
        }
        ("grid", false) => grid::timed(grid::Kind::Grid, &run),
        ("grid", true) => grid::traced(grid::Kind::Grid, &run),
        ("emulate", false) => grid::timed(grid::Kind::Emulate, &run),
        ("emulate", true) => grid::traced(grid::Kind::Emulate, &run),
        (_, false) => serve::timed(&run),
        (_, true) => serve::traced(&run),
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let outcome = match run(&args, &out_dir) {
        Ok(_) if args.pass => return ExitCode::SUCCESS,
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match metric_json(defs, &outcome.values) {
        Ok(metrics) => metrics,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let path = out_dir.join(format!("spans-{tag}.json"));
        if let Err(e) = trace::write_spans(&path, &outcome.spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let provenance = obj()
        .field("workload", args.workload.as_str())
        .field("seed", &args.seed)
        .field("seconds", &args.seconds)
        .field("trace", &args.trace)
        .field("scale", &args.scale.to_json())
        .field("nproc", &(straight_core::lab::default_jobs() as u64))
        .field("cpu", cpu_model().as_str())
        .field("git_rev", straight_core::lab::git_rev().as_str())
        .build();
    let result = obj()
        .field("correct", &correct)
        .field("attempted", &outcome.attempted)
        .field("failed", &outcome.failed)
        .field("metrics", &metrics)
        .build();
    let record = obj()
        .field("provenance", &provenance)
        .field("result", &result)
        .build();
    let path = out_dir.join(format!("result-{tag}.json"));
    if let Err(e) = std::fs::write(&path, record.render_pretty()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("# provenance {}", provenance.render());
    for def in defs {
        let value = outcome.values.get(def.name).unwrap_or_default();
        println!(
            "{:<28} {:>16.6} {:<10} ({} is better)",
            def.name,
            value,
            def.unit,
            def.better.name()
        );
    }
    println!("{}", result.to_json().render());
    ExitCode::SUCCESS
}

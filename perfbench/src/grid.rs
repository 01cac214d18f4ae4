//! The in-process workloads: `grid` (every cell of every experiment, as
//! `straight-lab --all` runs them) and `emulate` (the emulator-bound
//! cells: `fig15`, `fig16` and the `(sampled)` cells of `sampled`).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::process::{Command, Stdio};
use std::time::Instant;

use straight_core::experiment::{
    CellKind, CellRecord, CellSpec, ExperimentId, ExperimentResult, ExperimentSpec, RunParams,
    WorkloadKind,
};
use straight_core::lab::LabSession;
use straight_core::Target;
use straight_json::{obj, read_field, Json, ToJson};
use straight_sim::emu::TierConfig;

use crate::checks;
use crate::metrics::{mean, median, peak_rss_mb, ratio};
use crate::replay::{self, EmuCounts, ModelCounts};
use crate::trace::{self, Profile, Tracer};
use crate::{Outcome, Run};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Grid,
    Emulate,
}

/// One batch of cells submitted together.
struct Part {
    spec: ExperimentSpec,
    cells: Vec<CellSpec>,
    /// Whether the batch is a whole experiment, assembled, rendered and
    /// written like `straight-lab` does.
    assemble: bool,
}

fn parts(kind: Kind) -> Vec<Part> {
    let whole = |id: ExperimentId| Part {
        spec: id.spec(),
        cells: id.spec().cells(),
        assemble: true,
    };
    match kind {
        Kind::Grid => ExperimentId::ALL.into_iter().map(whole).collect(),
        Kind::Emulate => vec![
            whole(ExperimentId::Fig15),
            whole(ExperimentId::Fig16),
            Part {
                spec: ExperimentId::Sampled.spec(),
                cells: ExperimentId::Sampled
                    .spec()
                    .cells()
                    .into_iter()
                    .filter(|c| matches!(c.kind, CellKind::Sampled { .. }))
                    .collect(),
                assemble: false,
            },
        ],
    }
}

fn run_params(kind: Kind, run: &Run) -> RunParams {
    match kind {
        Kind::Grid => run.scale.grid,
        Kind::Emulate => run.scale.emulate,
    }
}

/// Sets up a session as `straight-lab` does: the session defaults,
/// writing records to this run's directory.
fn session(run: &Run) -> Result<LabSession, String> {
    let dir = run.work.join("records");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    LabSession::builder()
        .out_dir(Some(dir))
        .build()
        .map_err(|e| e.to_string())
}

/// One pass over the workload's cells.
struct Pass {
    wall_s: f64,
    records: Vec<CellRecord>,
    results: Vec<ExperimentResult>,
}

/// Submits every part up front (the pool pipelines them), then waits,
/// assembles and writes in order, as `LabSession::run` does.
fn run_pass(session: &LabSession, kind: Kind, params: RunParams, out: &mut Outcome) -> Pass {
    let started = Instant::now();
    let submitted: Vec<_> = parts(kind)
        .into_iter()
        .map(|part| {
            let batch = session.submit(part.cells.clone(), params);
            (part, batch)
        })
        .collect();
    let mut records = Vec::new();
    let mut results = Vec::new();
    for (part, batch) in submitted {
        let outcomes = batch.wait();
        out.attempted += outcomes.len() as u64;
        let mut ok = true;
        for (cell, outcome) in part.cells.iter().zip(&outcomes) {
            match outcome {
                Ok(record) => records.push(record.clone()),
                Err(e) => {
                    ok = false;
                    out.fail(format!("{}: {e}", cell.id()));
                }
            }
        }
        if part.assemble && ok {
            match session.assemble(&part.spec, params, &batch, outcomes) {
                Ok(run) => results.push(run.result),
                Err(e) => out.fail(format!("{}: {e}", part.spec.id)),
            }
        }
    }
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        records,
        results,
    }
}

/// The output checks of one pass: expected stdout digests, and sampled
/// instruction counts equal to the emulator's.
fn check_pass(kind: Kind, params: &RunParams, records: &[CellRecord], out: &mut Outcome) {
    for problem in checks::check_digests(records, params) {
        out.fail(problem);
    }
    for (group, prefix) in checks::SAMPLED_PAIRS {
        let Some(sampled) = records.iter().find(|r| {
            r.experiment == "sampled"
                && r.group == group
                && r.label == format!("{prefix} (sampled)")
        }) else {
            out.fail(format!("sampled/{group}/{prefix} (sampled): missing"));
            continue;
        };
        // The emulator count to compare with: the full run's retired
        // count on `grid`; the fig15 mix cell of the same target on
        // `emulate` (fig15 runs CoreMark only).
        let reference = match kind {
            Kind::Grid => records.iter().find(|r| {
                r.experiment == "sampled"
                    && r.group == group
                    && r.label == format!("{prefix} (full)")
            }),
            Kind::Emulate => records
                .iter()
                .find(|r| r.experiment == "fig15" && r.group == group && r.label == prefix),
        };
        if let Some(reference) = reference {
            if reference.retired != sampled.retired {
                out.fail(format!(
                    "{}: retired {} but {} retired {}",
                    sampled.id, sampled.retired, reference.id, reference.retired
                ));
            }
        }
    }
}

fn sampled_cycles(records: &[CellRecord], group: &str, prefix: &str) -> Option<u64> {
    checks::cycles_of(records, "sampled", group, &format!("{prefix} (sampled)"))
}

/// `paper_gap_pct` and `sample_err_pct` of one pass's records.
fn accuracy(kind: Kind, params: &RunParams, records: &[CellRecord]) -> Result<(f64, f64), String> {
    let (gap, err) = match kind {
        Kind::Grid => {
            let gap = checks::paper_gap_pct(|width, workload, label| {
                let experiment = if width == "4-way" { "fig11" } else { "fig12" };
                checks::cycles_of(records, experiment, workload, label)
            });
            let err = checks::sample_err_pct(
                |g, p| sampled_cycles(records, g, p),
                |g, p| checks::cycles_of(records, "sampled", g, &format!("{p} (full)")),
            );
            (gap, err)
        }
        Kind::Emulate => {
            // Only the 2-way points: the sampled cells run 2-way machines.
            let gap = checks::paper_gap_pct(|width, workload, label| {
                (width == "2-way").then(|| sampled_cycles(records, workload, label))?
            });
            let reference = checks::full_reference(params)?;
            let err = checks::sample_err_pct(
                |g, p| sampled_cycles(records, g, p),
                |g, p| {
                    reference
                        .iter()
                        .find(|(rg, rp, _)| rg == g && rp == p)
                        .map(|r| r.2)
                },
            );
            (gap, err)
        }
    };
    Ok((
        gap.ok_or("no paper point was measured")?,
        err.ok_or("no sampled pair was measured")?,
    ))
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Grid => "grid",
            Kind::Emulate => "emulate",
        }
    }
}

/// One pass in a process of its own, as one `straight-lab` invocation:
/// build a session, run the cells, and report as one JSON line.
pub fn child(kind: Kind, run: &Run) -> Result<Json, String> {
    let started = Instant::now();
    let session = session(run)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut out = Outcome::default();
    let pass = run_pass(&session, kind, run_params(kind, run), &mut out);
    Ok(obj()
        .field("setup_s", &setup_s)
        .field("wall_s", &pass.wall_s)
        .field("peak_rss_mb", &peak_rss_mb())
        .field("attempted", &out.attempted)
        .field("problems", &out.problems)
        .field("records", &pass.records)
        .build())
}

/// What a child pass reported.
struct ChildPass {
    setup_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    records: Vec<CellRecord>,
}

/// Runs one pass in a child process (this binary with `--pass 1`).
fn child_pass(kind: Kind, run: &Run, out: &mut Outcome) -> Result<ChildPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string(), "--trace", "0"])
        .args(["--scale", run.scale.name, "--pass", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("child pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let report = Json::parse(line)
        .ok()
        .filter(|_| output.status.success())
        .ok_or_else(|| format!("child pass failed ({})", output.status))?;
    let number = |key: &str| report.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    out.attempted += report.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    let problems: Vec<String> = read_field(&report, "problems").map_err(|e| e.to_string())?;
    for problem in problems {
        out.fail(problem);
    }
    Ok(ChildPass {
        setup_s: number("setup_s"),
        wall_s: number("wall_s"),
        peak_rss_mb: number("peak_rss_mb"),
        records: read_field(&report, "records").map_err(|e| e.to_string())?,
    })
}

/// The timed run: passes, each in a fresh process as each
/// `straight-lab --all` is, until the time is up.
pub fn timed(kind: Kind, run: &Run) -> Result<Outcome, String> {
    let params = run_params(kind, run);
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < run.seconds {
        passes.push(child_pass(kind, run, &mut out)?);
    }
    let first = &passes[0].records;
    check_pass(kind, &params, first, &mut out);
    let normal: Vec<CellRecord> = first.iter().map(checks::normalized).collect();
    for (k, pass) in passes.iter().enumerate().skip(1) {
        let again: Vec<CellRecord> = pass.records.iter().map(checks::normalized).collect();
        if again != normal {
            out.fail(format!("pass {k}: records differ from pass 0"));
        }
    }
    let (gap, err) = accuracy(kind, &params, first)?;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let cells: usize = passes.iter().map(|p| p.records.len()).sum();
    let v = &mut out.values;
    v.set("setup_s", median(&setups));
    // Means, not medians: pass times and peaks are bimodal (which cells
    // the pool happens to run side by side), and a median flips between
    // the modes.
    v.set("wall_s", mean(&walls));
    v.set("peak_rss_mb", mean(&peaks));
    v.set("req_per_s", ratio(cells as f64, walls.iter().sum()));
    let ok = 1.0 - ratio(out.failed as f64, out.attempted as f64);
    out.values.set("ok_frac", ok);
    out.values.set("paper_gap_pct", gap);
    out.values.set("sample_err_pct", err);
    eprintln!("perfbench: {kind:?} at {params:?}: pass walls {walls:.3?} s, peaks {peaks:.1?} MB");
    Ok(out)
}

/// Replays the pass's distinct work through the layers with spans,
/// checking every result against the pass's records.
fn replay(
    tr: &Tracer,
    kind: Kind,
    params: &RunParams,
    pass: &Pass,
    run: &Run,
    out: &mut Outcome,
) -> Result<(ModelCounts, EmuCounts, u64), String> {
    let mut model = ModelCounts::default();
    let mut emu = EmuCounts::default();
    let mut images: HashMap<(WorkloadKind, Target, u32), straight_asm::Image> = HashMap::new();
    let mut simulated: HashSet<String> = HashSet::new();
    let cells: Vec<CellSpec> = parts(kind).into_iter().flat_map(|p| p.cells).collect();
    for cell in &cells {
        let (Some(workload), Some(target)) = (cell.workload, cell.target()) else {
            continue;
        };
        let Some(record) = pass.records.iter().find(|r| r.id == cell.id()) else {
            continue;
        };
        let key = (workload, target, workload.iters(params));
        let image = match images.entry(key) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => slot.insert(replay::build_image(tr, workload, target, params)?),
        };
        let digest = |stdout: &str| format!("{:016x}", straight_json::fnv1a64(stdout.as_bytes()));
        let mismatch =
            |what: &str| format!("{}: replay {what} differs from the lab's record", cell.id());
        match &cell.kind {
            CellKind::Pipeline { machine, .. } => {
                if simulated.insert(cell.fingerprint(params)) {
                    let result = replay::run_full(tr, image, machine.clone(), &mut model)?;
                    if result.stats.cycles != record.cycles
                        || Some(digest(&result.stdout)) != record.stdout_digest
                    {
                        out.fail(mismatch("cycles or output"));
                    }
                }
            }
            CellKind::EmuMix { .. } => {
                let result = replay::run_mix(tr, image, target, TierConfig::interp(), &mut emu);
                if result.stats.retired != record.retired
                    || Some(digest(&result.stdout)) != record.stdout_digest
                {
                    out.fail(mismatch("instruction count or output"));
                }
            }
            CellKind::EmuDistance { .. } => {
                let result = replay::run_distance(tr, image, &mut emu);
                if result.stats.retired != record.retired {
                    out.fail(mismatch("instruction count"));
                }
            }
            CellKind::Sampled { machine, .. } => {
                let sampled =
                    replay::run_sampled(tr, image, machine.clone(), target, &mut model, &mut emu)?;
                if sampled.cycles_est != record.cycles
                    || sampled.retired != record.retired
                    || Some(digest(&sampled.stdout)) != record.stdout_digest
                {
                    out.fail(mismatch("estimate"));
                }
            }
            CellKind::ConfigDump { .. } => {}
        }
    }
    let mut json_bytes = 0u64;
    let dir = run.work.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for result in &pass.results {
        let id: ExperimentId = result.experiment.parse().map_err(|e| format!("{e}"))?;
        if let Err(e) = tr.span("report.render", || id.spec().render(result)) {
            out.fail(format!("{id}: render: {e}"));
        }
        let text = tr.span("json.encode", || result.to_json().render_pretty());
        json_bytes += text.len() as u64;
        let path = dir.join(format!("BENCH_{id}.json"));
        tr.span("lab.write", || std::fs::write(&path, &text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok((model, emu, json_bytes))
}

/// Sets every per-layer metric the replay measures from its profile.
pub fn layer_metrics(out: &mut Outcome, profile: &Profile, model: &ModelCounts, emu: &EmuCounts) {
    let v = &mut out.values;
    v.set("ir.frontend_ms", profile.self_ms("ir.frontend"));
    v.set("ir.passes_ms", profile.self_ms("ir.passes"));
    v.set("compiler.straight_ms", profile.self_ms("compiler.straight"));
    v.set("compiler.riscv_ms", profile.self_ms("compiler.riscv"));
    v.set("asm.link_ms", profile.self_ms("asm.link"));
    let interp_s = profile.self_s("emu.interp");
    let fast_s = profile.self_s("emu.fast");
    v.set("emu.interp_s", interp_s);
    v.set(
        "emu.interp_minst_per_s",
        ratio(emu.interp_inst as f64 / 1e6, interp_s),
    );
    v.set("emu.fast_s", fast_s);
    v.set(
        "emu.fast_minst_per_s",
        ratio(emu.fast_inst as f64 / 1e6, fast_s),
    );
    v.set("emu.checkpoint_ms", profile.self_ms("emu.checkpoint"));
    v.set("emu.checkpoint_bytes", emu.checkpoint_bytes as f64);
    let pipeline_s = profile.self_s("pipeline.run");
    v.set("pipeline.s", pipeline_s);
    v.set(
        "pipeline.kcycles_per_s",
        ratio(model.cycles as f64 / 1e3, pipeline_s),
    );
    v.set("pipeline.resume_ms", profile.self_ms("pipeline.resume"));
    v.set("model.cycles", model.cycles as f64);
    v.set("model.retired", model.retired as f64);
    v.set(
        "pipeline.squash_frac",
        ratio(
            model.squashed as f64,
            (model.retired + model.squashed) as f64,
        ),
    );
    v.set(
        "pipeline.recovery_stall_frac",
        ratio(model.recovery_stall_cycles as f64, model.cycles as f64),
    );
    v.set(
        "predict.mispredict_rate",
        ratio(model.mispredicts as f64, model.branches as f64),
    );
    v.set(
        "mem.l1d_miss_rate",
        ratio(model.l1d_misses as f64, model.l1d_accesses as f64),
    );
    v.set("lab.write_ms", profile.self_ms("lab.write"));
    v.set("report.render_ms", profile.self_ms("report.render"));
    v.set("json.encode_ms", profile.self_ms("json.encode"));
    v.set("store.open_ms", profile.self_ms("store.open"));
    v.set("store.read_ms", profile.self_ms("store.get"));
    v.set("store.write_ms", profile.self_ms("store.put"));
    v.set("trace.spans", profile.spans as f64);
}

/// The traced run: one untraced pass (the lab counters and the wall
/// time the replay is compared with), then the replay with spans.
pub fn traced(kind: Kind, run: &Run) -> Result<Outcome, String> {
    let params = run_params(kind, run);
    let mut out = Outcome::default();
    let session = session(run)?;
    let pass = run_pass(&session, kind, params, &mut out);
    check_pass(kind, &params, &pass.records, &mut out);
    let stats = session.cache_stats();
    let busy_ms: f64 = pass.records.iter().map(|r| r.wall_ms).sum();
    drop(session);

    let tr = Tracer::new();
    let started = Instant::now();
    let (model, emu, json_bytes) = replay(&tr, kind, &params, &pass, run, &mut out)?;
    let traced_s = started.elapsed().as_secs_f64();
    out.spans = tr.spans();
    let profile = Profile::of(&out.spans);
    layer_metrics(&mut out, &profile, &model, &emu);
    let v = &mut out.values;
    v.set(
        "lab.image_hit_frac",
        ratio(stats.image_hits() as f64, stats.image_lookups as f64),
    );
    v.set(
        "lab.run_hit_frac",
        ratio(stats.run_hits() as f64, stats.run_lookups as f64),
    );
    v.set(
        "lab.worker_busy_frac",
        ratio(
            busy_ms / 1e3,
            straight_core::lab::default_jobs() as f64 * pass.wall_s,
        ),
    );
    v.set("json.bytes", json_bytes as f64);
    for name in [
        "serve.hot_p50_ms",
        "serve.hot_p99_ms",
        "serve.cold_p50_ms",
        "serve.cold_p90_ms",
        "serve.submit_ms",
        "serve.fetch_ms",
        "serve.status_polls",
        "serve.wait_ms",
        "serve.service_ms",
        "serve.submit_ms_growth",
        "serve.refused",
        "store.hit_frac",
        "store.writes",
    ] {
        v.set(name, 0.0);
    }
    v.set("trace.wall_s", traced_s);
    v.set("trace.wall_ratio", ratio(traced_s, pass.wall_s));
    v.set(
        "trace.overhead_frac",
        ratio(profile.spans as f64 * trace::span_cost_ns() / 1e9, traced_s),
    );
    v.set(
        "trace.attributed_frac",
        ratio(profile.root_ns as f64 / 1e9, traced_s),
    );
    eprintln!(
        "perfbench: traced {kind:?} at {params:?}: untraced pass {:.3} s, replay {traced_s:.3} s",
        pass.wall_s
    );
    Ok(out)
}

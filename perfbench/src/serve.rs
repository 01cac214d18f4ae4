//! The `serve` workload: a closed loop of `submit-cell` → `wait_job` →
//! `fetch` requests from one client connection per core to a `Daemon`
//! with a record store, over a Unix socket.
//!
//! Every request names a `fig12` pipeline cell. Hot requests ask for a
//! cell at the hot-set iteration counts, which setup computed into the
//! store before the daemon booted over it (a warm restart), so they are
//! store reads. Cold requests ask for a Dhrystone cell at an iteration
//! count no earlier request used, so each one builds an image,
//! simulates and writes a store entry. Each client's script is drawn
//! from the seed: in every block of `serve_pass` requests, 15% are cold.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use straight_bench::serve::{Client, ClientConfig, Daemon, DaemonConfig, Listen};
use straight_bench::store::RecordStore;
use straight_core::experiment::{
    CellRecord, CellSpec, ExperimentId, ExperimentResult, RunParams, WorkloadKind, SCHEMA_VERSION,
};
use straight_core::lab::{default_jobs, LabSession, RecordCache};
use straight_isa::rng::SplitMix64;
use straight_json::{obj, Json, ToJson};

use crate::checks;
use crate::grid::layer_metrics;
use crate::metrics::{mean, median, peak_rss_mb, percentile, ratio};
use crate::replay::{self, EmuCounts, ModelCounts};
use crate::trace::{self, Profile, Tracer};
use crate::{Outcome, Run};

/// One scripted request.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Index into the `fig12` cells.
    cell: usize,
    params: RunParams,
    hot: bool,
}

/// What one request saw.
#[derive(Debug)]
struct Sample {
    req: Req,
    /// Start, relative to the loop's start, ms.
    start_ms: f64,
    latency_ms: f64,
    submit_ms: f64,
    fetch_ms: f64,
    record: Result<CellRecord, String>,
}

fn fig12_cells() -> Vec<CellSpec> {
    ExperimentId::Fig12.spec().cells()
}

/// Per-client scripts drawn from the seed: `seconds × serve_rate`
/// requests each, rounded up to whole passes, or fewer if the cold
/// iteration counts run out.
fn scripts(run: &Run, cells: &[CellSpec], clients: usize) -> Vec<Vec<Req>> {
    let base = run.scale.serve;
    let pass = run.scale.serve_pass;
    let passes = (run.seconds * run.scale.serve_rate as f64 / pass as f64).ceil() as usize;
    let cold_per_pass = ((pass as f64 * 0.15).round() as usize).max(1);
    let dhry: Vec<usize> = (0..cells.len())
        .filter(|&i| cells[i].workload == Some(WorkloadKind::Dhrystone))
        .collect();
    let capacity = dhry.len() * run.scale.cold_span as usize;
    let mut rng = SplitMix64::new(run.seed);
    let mut used: HashSet<(usize, u32)> = HashSet::new();
    let mut out = vec![Vec::new(); clients];
    for _ in 0..passes {
        if used.len() + clients * cold_per_pass > capacity {
            break;
        }
        for script in &mut out {
            let mut cold = vec![false; pass];
            cold[..cold_per_pass].fill(true);
            for i in (1..pass).rev() {
                cold.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for is_cold in cold {
                let req = if is_cold {
                    loop {
                        let cell = dhry[rng.below(dhry.len() as u64) as usize];
                        let iters =
                            base.dhry_iters + 1 + rng.below(u64::from(run.scale.cold_span)) as u32;
                        if used.insert((cell, iters)) {
                            break Req {
                                cell,
                                params: RunParams {
                                    dhry_iters: iters,
                                    ..base
                                },
                                hot: false,
                            };
                        }
                    }
                } else {
                    Req {
                        cell: rng.below(cells.len() as u64) as usize,
                        params: base,
                        hot: true,
                    }
                };
                script.push(req);
            }
        }
    }
    out
}

/// A daemon booted over a prepared store, with its client connections.
struct Served {
    daemon: Arc<Daemon>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
    store_dir: PathBuf,
    /// The hot set's records, by fingerprint.
    hot: HashMap<String, CellRecord>,
}

fn setup(run: &Run, k: usize, cells: &[CellSpec]) -> Result<Served, String> {
    let dir = run.work.join(format!("setup{k}"));
    let store_dir = dir.join("store");
    // The hot set, computed into the store by a session using it as its
    // record cache, as a daemon that had served these cells would have.
    let (store, _) = RecordStore::open(&store_dir);
    let store = Arc::new(store);
    let session = LabSession::builder()
        .record_cache(Arc::clone(&store) as Arc<dyn RecordCache>)
        .build()
        .map_err(|e| e.to_string())?;
    let mut hot = HashMap::new();
    for (cell, outcome) in cells
        .iter()
        .zip(session.submit(cells.to_vec(), run.scale.serve).wait())
    {
        let record = outcome.map_err(|e| format!("hot set {}: {e}", cell.id()))?;
        hot.insert(cell.fingerprint(&run.scale.serve), record);
    }
    drop(session);
    drop(store);
    // The warm restart: a daemon with the session defaults boots over
    // the store.
    let socket = dir.join("d.sock");
    let mut config = DaemonConfig::new(Listen::Unix(socket.clone()));
    config.store = Some(store_dir.clone());
    let daemon =
        Arc::new(Daemon::bind(&config).map_err(|e| format!("bind {}: {e}", socket.display()))?);
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let (daemon, stop) = (Arc::clone(&daemon), Arc::clone(&stop));
        std::thread::spawn(move || daemon.run(&stop))
    };
    let addr = socket.display().to_string();
    let clients = (0..default_jobs())
        .map(|_| {
            Client::connect_with(&addr, &ClientConfig::default())
                .map_err(|e| format!("connect {addr}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Served {
        daemon,
        stop,
        thread,
        clients,
        store_dir,
        hot,
    })
}

fn teardown(mut served: Served) -> Result<(), String> {
    let asked = served.clients.first_mut().map(Client::shutdown);
    drop(served.clients);
    if !matches!(asked, Some(Ok(()))) {
        served.stop.store(true, Ordering::SeqCst);
    }
    let joined = served.thread.join();
    drop(served.daemon);
    match joined {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("daemon thread panicked".to_string()),
    }
}

fn submit_request(cell: &CellSpec, params: &RunParams) -> Json {
    obj()
        .field("op", "submit-cell")
        .field("cell", &cell.id())
        .field("params", params)
        .build()
}

fn job_of(response: &Json) -> Result<u64, String> {
    response
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "submit response lacks `job`".to_string())
}

/// One request as `straight-lab --remote` makes it: submit, `wait_job`, fetch.
fn request(client: &mut Client, cell: &CellSpec, req: Req, start_ms: f64) -> Sample {
    let t0 = Instant::now();
    let job = client
        .request(&submit_request(cell, &req.params))
        .map_err(|e| e.to_string())
        .and_then(|r| job_of(&r));
    let t1 = Instant::now();
    let state = job.and_then(|job| {
        client
            .wait_job(job)
            .map(|s| (job, s))
            .map_err(|e| e.to_string())
    });
    let t2 = Instant::now();
    let record = state.and_then(|(job, state)| {
        if state == "done" {
            client.fetch_cell(job).map_err(|e| e.to_string())
        } else {
            Err(format!("job {job} ended `{state}`"))
        }
    });
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Sample {
        req,
        start_ms,
        latency_ms: ms(t0.elapsed()),
        submit_ms: ms(t1 - t0),
        fetch_ms: ms(t2.elapsed()),
        record,
    }
}

/// The same request with a span around every client call, polling
/// `status` as `Client::wait_job` does (every 20 ms).
fn traced_request(
    tr: &Tracer,
    client: &mut Client,
    cell: &CellSpec,
    req: Req,
    start_ms: f64,
) -> Sample {
    let t0 = Instant::now();
    let mut submit_ms = 0.0;
    let mut fetch_ms = 0.0;
    let record = tr.span("serve.request", || {
        let job = tr
            .span("serve.submit", || {
                client.request(&submit_request(cell, &req.params))
            })
            .map_err(|e| e.to_string())
            .and_then(|r| job_of(&r))?;
        submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        loop {
            let status = tr
                .span("serve.poll", || {
                    client.request(&obj().field("op", "status").field("job", &job).build())
                })
                .map_err(|e| e.to_string())?;
            match status.get("state").and_then(Json::as_str) {
                Some("queued" | "running") => tr.span("serve.sleep", || {
                    std::thread::sleep(Duration::from_millis(20))
                }),
                Some("done") => break,
                other => return Err(format!("job {job} ended {other:?}")),
            }
        }
        let t2 = Instant::now();
        let record = tr
            .span("serve.fetch", || client.fetch_cell(job))
            .map_err(|e| e.to_string());
        fetch_ms = t2.elapsed().as_secs_f64() * 1e3;
        record
    });
    Sample {
        req,
        start_ms,
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        submit_ms,
        fetch_ms,
        record,
    }
}

/// Each client runs up to `passes` passes of `serve_pass` requests from
/// its script (stopping early only past `deadline_s`, a guard against a
/// wedged host). Returns every client-pass's wall time and the loop's
/// wall time; samples are appended.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    served: &mut Served,
    scripts: &[Vec<Req>],
    cursors: &mut [usize],
    cells: &[CellSpec],
    pass_len: usize,
    passes: usize,
    deadline_s: f64,
    tracer: Option<&Tracer>,
    samples: &mut Vec<Sample>,
) -> (Vec<f64>, f64) {
    let loop_start = Instant::now();
    let per_client: Vec<(Vec<f64>, Vec<Sample>)> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(scripts)
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(c, ((client, script), next))| {
                s.spawn(move || {
                    let (mut walls, mut mine) = (Vec::new(), Vec::new());
                    while walls.len() < passes
                        && *next + pass_len <= script.len()
                        && loop_start.elapsed().as_secs_f64() < deadline_s
                    {
                        let pass_start = Instant::now();
                        for &req in &script[*next..*next + pass_len] {
                            let start_ms = loop_start.elapsed().as_secs_f64() * 1e3;
                            mine.push(match tracer {
                                Some(tr) => {
                                    tr.set_request((c as u64 + 1) << 32 | (*next as u64 + 1));
                                    traced_request(tr, client, &cells[req.cell], req, start_ms)
                                }
                                None => request(client, &cells[req.cell], req, start_ms),
                            });
                            *next += 1;
                        }
                        walls.push(pass_start.elapsed().as_secs_f64());
                    }
                    (walls, mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let loop_s = loop_start.elapsed().as_secs_f64();
    let mut walls = Vec::new();
    for (client_walls, client_samples) in per_client {
        walls.extend(client_walls);
        samples.extend(client_samples);
    }
    (walls, loop_s)
}

/// The output checks: every request done; hot answers equal the hot
/// set; cold answers never repeat a fingerprint; a seeded sample equals
/// an in-process session's records.
fn check(
    run: &Run,
    cells: &[CellSpec],
    hot: &HashMap<String, CellRecord>,
    samples: &[Sample],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut cold_seen = HashSet::new();
    for sample in samples {
        out.attempted += 1;
        let cell = &cells[sample.req.cell];
        let fingerprint = cell.fingerprint(&sample.req.params);
        let record = match &sample.record {
            Ok(record) => record,
            Err(e) => {
                out.fail(format!("{}: {e}", cell.id()));
                continue;
            }
        };
        if record.config_fingerprint != fingerprint {
            out.fail(format!(
                "{}: answered fingerprint {}, asked {fingerprint}",
                cell.id(),
                record.config_fingerprint
            ));
        } else if sample.req.hot {
            match hot.get(&fingerprint) {
                Some(expected) if checks::same_measurement(record, expected) => {}
                _ => out.fail(format!(
                    "{}: hot answer differs from the hot set",
                    cell.id()
                )),
            }
        } else if !cold_seen.insert(fingerprint.clone()) {
            out.fail(format!(
                "{}: cold fingerprint {fingerprint} repeated",
                cell.id()
            ));
        }
    }
    // A seeded sample, recomputed in-process.
    let mut rng = SplitMix64::new(run.seed ^ 0x5eed_c0ff_ee00_0001);
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.record.is_ok()).collect();
    let mut picked = Vec::new();
    for want_hot in [false, false, false, false, true, true] {
        let pool: Vec<&&Sample> = ok.iter().filter(|s| s.req.hot == want_hot).collect();
        if !pool.is_empty() {
            picked.push(*pool[rng.below(pool.len() as u64) as usize]);
        }
    }
    let session = LabSession::builder().build().map_err(|e| e.to_string())?;
    for sample in picked {
        let cell = &cells[sample.req.cell];
        let outcome = session
            .submit(vec![cell.clone()], sample.req.params)
            .wait()
            .remove(0);
        let served = sample.record.as_ref().map(checks::normalized);
        match outcome {
            Ok(local) if served.as_ref() == Ok(&checks::normalized(&local)) => {}
            _ => out.fail(format!(
                "{} at {:?}: served record differs from an in-process run",
                cell.id(),
                sample.req.params
            )),
        }
    }
    Ok(())
}

/// `paper_gap_pct` from the hot set (the 2-way points), and
/// `sample_err_pct` of the `sampled` experiment at the hot-set counts.
fn accuracy(run: &Run, hot: &HashMap<String, CellRecord>) -> Result<(f64, f64), String> {
    let records: Vec<CellRecord> = hot.values().cloned().collect();
    let gap = checks::paper_gap_pct(|width, workload, label| {
        (width == "2-way").then(|| checks::cycles_of(&records, "fig12", workload, label))?
    })
    .ok_or("no paper point was measured")?;
    let session = LabSession::builder().build().map_err(|e| e.to_string())?;
    let sampled = session
        .run_experiment(ExperimentId::Sampled, run.scale.serve)
        .map_err(|e| e.to_string())?;
    let cells = &sampled.result.cells;
    let err = checks::sample_err_pct(
        |g, p| checks::cycles_of(cells, "sampled", g, &format!("{p} (sampled)")),
        |g, p| checks::cycles_of(cells, "sampled", g, &format!("{p} (full)")),
    )
    .ok_or("no sampled pair was measured")?;
    Ok((gap, err))
}

fn latency_metrics(out: &mut Outcome, samples: &[Sample]) {
    let select = |hot: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.req.hot == hot && s.record.is_ok())
            .map(|s| s.latency_ms)
            .collect()
    };
    let (hot, cold) = (select(true), select(false));
    let v = &mut out.values;
    v.set("serve.hot_p50_ms", percentile(&hot, 0.50));
    v.set("serve.hot_p99_ms", percentile(&hot, 0.99));
    v.set("serve.cold_p50_ms", percentile(&cold, 0.50));
    v.set("serve.cold_p90_ms", percentile(&cold, 0.90));
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.record.is_ok()).collect();
    let per_request =
        |f: &dyn Fn(&Sample) -> f64| mean(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
    let service = |s: &Sample| s.record.as_ref().map_or(0.0, |r| r.wall_ms);
    v.set("serve.submit_ms", per_request(&|s| s.submit_ms));
    v.set("serve.fetch_ms", per_request(&|s| s.fetch_ms));
    v.set("serve.service_ms", per_request(&service));
    v.set(
        "serve.wait_ms",
        per_request(&|s| s.latency_ms - s.submit_ms - s.fetch_ms - service(s)),
    );
    let mut by_start: Vec<&&Sample> = ok.iter().collect();
    by_start.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
    let tenth = (by_start.len() / 10).max(1).min(by_start.len());
    let submits = |part: &[&&Sample]| median(&part.iter().map(|s| s.submit_ms).collect::<Vec<_>>());
    v.set(
        "serve.submit_ms_growth",
        ratio(
            submits(&by_start[by_start.len() - tenth..]),
            submits(&by_start[..tenth]),
        ),
    );
}

/// The timed run.
pub fn timed(run: &Run) -> Result<Outcome, String> {
    let cells = fig12_cells();
    let scripts = scripts(run, &cells, default_jobs());
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut served = None;
    for k in 0..run.scale.setups {
        if let Some(previous) = served.take() {
            teardown(previous)?;
        }
        let started = Instant::now();
        served = Some(setup(run, k, &cells)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut served = served.ok_or("no setup ran")?;
    let mut samples = Vec::new();
    let mut cursors = vec![0; scripts.len()];
    let pass = run.scale.serve_pass;
    let passes = scripts[0].len() / pass;
    let deadline = 3.0 * run.seconds;
    let (walls, loop_s) = closed_loop(
        &mut served,
        &scripts,
        &mut cursors,
        &cells,
        pass,
        passes,
        deadline,
        None,
        &mut samples,
    );
    // Taken before the checks, which are not the workload. The daemon
    // keeps every job, so memory grows with the requests served.
    out.values.set("peak_rss_mb", peak_rss_mb());
    let hot = std::mem::take(&mut served.hot);
    teardown(served)?;
    check(run, &cells, &hot, &samples, &mut out)?;
    let (gap, err) = accuracy(run, &hot)?;
    out.values.set("setup_s", median(&setups));
    // The mean over client passes, which includes the cold requests'
    // spread of costs and the hot requests' occasional poll sleep.
    out.values.set("wall_s", mean(&walls));
    out.values
        .set("req_per_s", ratio(samples.len() as f64, loop_s));
    out.values.set(
        "ok_frac",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
    );
    out.values.set("paper_gap_pct", gap);
    out.values.set("sample_err_pct", err);
    let slow_hot = samples
        .iter()
        .filter(|s| s.req.hot && s.latency_ms > 10.0)
        .count();
    let cold: Vec<f64> = samples
        .iter()
        .filter(|s| !s.req.hot)
        .map(|s| s.latency_ms)
        .collect();
    eprintln!(
        "perfbench: {} client passes, {} requests in {loop_s:.3} s; {slow_hot} hot requests waited a poll; \
         cold mean {:.1} ms",
        walls.len(),
        samples.len(),
        mean(&cold),
    );
    Ok(out)
}

/// The traced run: half the time untraced, half with client spans, then
/// a replay of the daemon-side work of the traced half with spans.
pub fn traced(run: &Run) -> Result<Outcome, String> {
    let cells = fig12_cells();
    let scripts = scripts(run, &cells, default_jobs());
    let mut out = Outcome::default();
    let mut served = setup(run, 0, &cells)?;
    let tr = Tracer::new();
    let mut samples = Vec::new();
    let mut cursors = vec![0; scripts.len()];
    let pass = run.scale.serve_pass;
    let half = scripts[0].len() / pass / 2;
    let deadline = 1.5 * run.seconds;
    let (untraced, untraced_s) = closed_loop(
        &mut served,
        &scripts,
        &mut cursors,
        &cells,
        pass,
        half,
        deadline,
        None,
        &mut samples,
    );
    let untraced_count = samples.len();
    let (traced_walls, loop_s) = closed_loop(
        &mut served,
        &scripts,
        &mut cursors,
        &cells,
        pass,
        half,
        deadline,
        Some(&tr),
        &mut samples,
    );
    let stats = served.clients[0]
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    let hot = std::mem::take(&mut served.hot);
    let store_dir = served.store_dir.clone();
    let workers = straight_core::lab::default_jobs() as f64;
    teardown(served)?;
    check(run, &cells, &hot, &samples, &mut out)?;

    // The daemon-side work of the traced half, replayed with spans.
    let replay_started = Instant::now();
    let mut model = ModelCounts::default();
    let mut json_bytes = 0u64;
    let (store, _) = tr.span("store.open", || RecordStore::open(&store_dir));
    let (scratch, _) = RecordStore::open(&run.work.join("replay-store"));
    for sample in &samples[untraced_count..] {
        let Ok(record) = &sample.record else { continue };
        let cell = &cells[sample.req.cell];
        let fingerprint = cell.fingerprint(&sample.req.params);
        if sample.req.hot {
            if tr.span("store.get", || store.get(&fingerprint)).is_none() {
                out.fail(format!("{fingerprint}: hot entry missing from the store"));
            }
        } else {
            let (Some(workload), Some(target), Some(machine)) =
                (cell.workload, cell.target(), cell.machine())
            else {
                continue;
            };
            let image = replay::build_image(&tr, workload, target, &sample.req.params)?;
            let result = replay::run_full(&tr, &image, machine.clone(), &mut model)?;
            if result.stats.cycles != record.cycles {
                out.fail(format!(
                    "{}: replay cycles differ from the served record",
                    cell.id()
                ));
            }
            tr.span("store.put", || scratch.put(&fingerprint, record));
        }
        json_bytes += tr.span("json.encode", || record.to_json().render()).len() as u64;
    }
    let fig12 = ExperimentId::Fig12.spec();
    let result = ExperimentResult {
        schema_version: SCHEMA_VERSION,
        experiment: fig12.id.to_string(),
        title: fig12.title.to_string(),
        paper_ref: fig12.paper_ref.to_string(),
        git_rev: String::new(),
        params: run.scale.serve,
        wall_ms: 0.0,
        cells: cells
            .iter()
            .filter_map(|c| hot.get(&c.fingerprint(&run.scale.serve)).cloned())
            .collect(),
    };
    if let Err(e) = tr.span("report.render", || fig12.render(&result)) {
        out.fail(format!("fig12 render: {e}"));
    }
    let replay_s = replay_started.elapsed().as_secs_f64();

    out.spans = tr.spans();
    let profile = Profile::of(&out.spans);
    layer_metrics(&mut out, &profile, &model, &EmuCounts::default());
    latency_metrics(&mut out, &samples);
    let count = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |j, key| j.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let service_s: f64 = samples
        .iter()
        .filter_map(|s| s.record.as_ref().ok())
        .map(|r| r.wall_ms / 1e3)
        .sum();
    let v = &mut out.values;
    v.set(
        "serve.status_polls",
        out.spans.iter().filter(|s| s.name == "serve.poll").count() as f64,
    );
    v.set("serve.refused", count(&["queue_full_refusals"]));
    v.set(
        "lab.image_hit_frac",
        ratio(
            count(&["cache", "image_hits"]),
            count(&["cache", "image_lookups"]),
        ),
    );
    v.set(
        "lab.run_hit_frac",
        ratio(
            count(&["cache", "run_hits"]),
            count(&["cache", "run_lookups"]),
        ),
    );
    v.set(
        "lab.worker_busy_frac",
        ratio(service_s, workers * (untraced_s + loop_s)),
    );
    v.set(
        "store.hit_frac",
        ratio(
            count(&["store", "hits"]),
            count(&["store", "hits"]) + count(&["store", "misses"]),
        ),
    );
    v.set("store.writes", count(&["store", "writes"]));
    v.set("json.bytes", json_bytes as f64);
    let traced_s = loop_s + replay_s;
    v.set("trace.wall_s", traced_s);
    v.set(
        "trace.wall_ratio",
        ratio(median(&traced_walls), median(&untraced)),
    );
    v.set(
        "trace.overhead_frac",
        ratio(profile.spans as f64 * trace::span_cost_ns() / 1e9, traced_s),
    );
    // Client threads count while they run passes; replay runs on this one.
    let busy_s: f64 = traced_walls.iter().sum();
    v.set(
        "trace.attributed_frac",
        ratio(profile.root_ns as f64 / 1e9, busy_s + replay_s),
    );
    eprintln!(
        "perfbench: serve traced: {} untraced + {} traced passes, replay {replay_s:.3} s",
        untraced.len(),
        traced_walls.len()
    );
    Ok(out)
}

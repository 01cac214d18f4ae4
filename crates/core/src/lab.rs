//! The lab: a long-lived experiment-running session.
//!
//! [`LabSession`] is the one entry point to executing grid cells. It
//! owns everything that used to be per-invocation state of the old
//! `run_lab` free function:
//!
//! * a persistent **worker pool** (`jobs` threads; plain
//!   `std::thread` — the container has no rayon) that outlives any
//!   single run, so a daemon can keep submitting work to warm threads;
//! * an **image cache** — each (workload, target, iteration-count)
//!   triple is compiled and linked once and then shared by every cell
//!   that runs it. The cache holds at most [`IMAGE_CAPACITY`] images
//!   and evicts the least recently used one to admit another: the
//!   workloads bake their iteration count into the source, so a
//!   daemon answering requests at ever new counts would otherwise keep
//!   one image per count it ever saw. The whole grid needs 10 images,
//!   so no in-process run evicts;
//! * a **run cache** — cells with identical configuration
//!   fingerprints (e.g. Figure 17's Dhrystone/SS-2way run, which
//!   Figure 12 also needs, or the same cell submitted by two daemon
//!   clients) simulate once and share the result. A slot is filled from
//!   the persistent [`RecordCache`], if any, before simulating; at most
//!   [`RUN_CAPACITY`] stay resident, least recently used out first;
//! * **cache counters** ([`CacheStats`]) making the deduplication
//!   observable.
//!
//! Construction is explicit:
//! `LabSession::builder().jobs(8).build()?`. Work enters
//! either through the blocking [`LabSession::run`] (what `straight-lab`
//! uses in-process) or the asynchronous [`LabSession::submit`] /
//! [`Batch`] pair (what the `straightd` daemon builds its job queue
//! on). Each cell yields a [`CellRecord`]; per experiment they are
//! wrapped in an [`ExperimentResult`] carrying provenance (git
//! revision, parameters, wall time) and written to `BENCH_<name>.json`.
//! The paper-shaped text report is re-rendered from those records.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use straight_asm::Image;
use straight_json::{fnv1a64, obj, FromJson, Json, ToJson};
use straight_sim::emu::{ExecBackend, RiscvEmu, StraightEmu, TierConfig};

use crate::experiment::{
    build_for, run_checked, run_sampled, target_name, CellKind, CellRecord, CellSpec,
    ExperimentError, ExperimentId, ExperimentResult, ExperimentSpec, RunParams, WorkloadKind,
    SCHEMA_VERSION,
};
use crate::Target;

/// The machine's available parallelism (1 when unknown).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A failure of the runner as a whole.
#[derive(Debug)]
pub enum LabError {
    /// A session was configured with zero worker threads.
    InvalidJobs,
    /// The operating system refused a worker thread.
    Spawn {
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A cell failed to build or run.
    Cell {
        /// Cell id (`experiment/group/label`).
        cell: String,
        /// The underlying failure.
        source: Arc<ExperimentError>,
    },
    /// Records could not be assembled into the figure (divergence or
    /// missing cells).
    Assemble {
        /// Experiment name.
        experiment: String,
        /// The underlying failure.
        source: ExperimentError,
    },
    /// A `BENCH_*.json` file could not be written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::InvalidJobs => {
                write!(f, "--jobs must be at least 1 (0 would run nothing)")
            }
            LabError::Spawn { source } => write!(f, "cannot start a worker thread: {source}"),
            LabError::Cell { cell, source } => write!(f, "cell {cell}: {source}"),
            LabError::Assemble { experiment, source } => write!(f, "{experiment}: {source}"),
            LabError::Io { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for LabError {}

/// One completed experiment: the machine-readable result, its
/// re-rendered text report, and where the JSON landed (if written).
#[derive(Debug, Clone)]
pub struct LabRun {
    /// The serializable result (the `BENCH_<name>.json` content).
    pub result: ExperimentResult,
    /// The paper-shaped text report.
    pub rendered: String,
    /// Path of the written JSON file.
    pub path: Option<PathBuf>,
}

/// The checked-out git revision, for record provenance. Honors
/// `STRAIGHT_GIT_REV` (useful in CI), then asks `git rev-parse HEAD`,
/// then falls back to `"unknown"`.
#[must_use]
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("STRAIGHT_GIT_REV") {
        return rev;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

type ImageKey = (WorkloadKind, Target, u32);
/// Images a session keeps resident (about 42 KB each). The full
/// `--all` grid builds 10 distinct images, so only a daemon serving
/// many iteration counts ever evicts.
pub const IMAGE_CAPACITY: usize = 16;
/// Run-cache records a session keeps resident (a few KB each). The
/// full `--all` grid runs 23 distinct simulations, so no in-process
/// run evicts.
pub const RUN_CAPACITY: usize = 64;
type ImageSlot = Arc<OnceLock<Result<Arc<Image>, Arc<ExperimentError>>>>;
/// A finished simulation's measurement, as a record without identity
/// fields: cells sharing a fingerprint differ in identity.
type RunSlot = Arc<OnceLock<Result<Arc<CellRecord>, Arc<ExperimentError>>>>;
type CellOutcome = Result<CellRecord, Arc<ExperimentError>>;

/// A snapshot of the session's cache activity. Hits minus misses make
/// the image/run deduplication externally observable (the daemon
/// reports this through its `stats` op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Image-cache lookups (one per cell that compiles a workload).
    pub image_lookups: u64,
    /// Image-cache lookups that compiled (first sight of the key, or
    /// the key's image was evicted since).
    pub image_misses: u64,
    /// Images resident now (at most [`IMAGE_CAPACITY`]).
    pub images_held: u64,
    /// Run-cache lookups (one per pipeline cell).
    pub run_lookups: u64,
    /// Run-slot initialisations that simulated (the record cache, if
    /// any, counts the ones it served).
    pub run_misses: u64,
    /// Run-cache records resident now (at most [`RUN_CAPACITY`]).
    pub runs_held: u64,
}

impl CacheStats {
    /// Image-cache lookups served from the cache.
    #[must_use]
    pub fn image_hits(&self) -> u64 {
        self.image_lookups - self.image_misses
    }

    /// Run-cache lookups that did not simulate.
    #[must_use]
    pub fn run_hits(&self) -> u64 {
        self.run_lookups - self.run_misses
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        obj()
            .field("image_lookups", &self.image_lookups)
            .field("image_hits", &self.image_hits())
            .field("image_misses", &self.image_misses)
            .field("images_held", &self.images_held)
            .field("run_lookups", &self.run_lookups)
            .field("run_hits", &self.run_hits())
            .field("run_misses", &self.run_misses)
            .field("runs_held", &self.runs_held)
            .build()
    }
}

/// The slot for `key`, evicting the slot with the oldest `lookups`
/// stamp when a new key finds the table full. A cell already holding
/// an evicted slot keeps using it; the next lookup fills a new one.
fn lru_slot<K: Eq + std::hash::Hash + Clone, S: Clone + Default>(
    table: &Mutex<HashMap<K, (u64, S)>>,
    lookups: &AtomicU64,
    capacity: usize,
    key: K,
) -> S {
    let mut table = lock(table);
    // Counted under the lock, so the count orders the lookups.
    let stamp = lookups.fetch_add(1, Ordering::Relaxed);
    if table.len() >= capacity && !table.contains_key(&key) {
        let lru = table.iter().min_by_key(|(_, (used, _))| *used).map(|(k, _)| k.clone());
        if let Some(lru) = lru {
            table.remove(&lru);
        }
    }
    let (used, slot) = table.entry(key).or_default();
    *used = stamp;
    slot.clone()
}

/// Shared state of one session: both caches plus their counters.
#[derive(Default)]
struct Caches {
    images: Mutex<HashMap<ImageKey, (u64, ImageSlot)>>,
    runs: Mutex<HashMap<String, (u64, RunSlot)>>,
    image_lookups: AtomicU64,
    image_misses: AtomicU64,
    run_lookups: AtomicU64,
    run_misses: AtomicU64,
}

impl Caches {
    fn stats(&self) -> CacheStats {
        CacheStats {
            image_lookups: self.image_lookups.load(Ordering::Relaxed),
            image_misses: self.image_misses.load(Ordering::Relaxed),
            images_held: lock(&self.images).len() as u64,
            run_lookups: self.run_lookups.load(Ordering::Relaxed),
            run_misses: self.run_misses.load(Ordering::Relaxed),
            runs_held: lock(&self.runs).len() as u64,
        }
    }
}

fn hex_digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// A persistent cache of completed cell records, keyed by
/// configuration fingerprint. The session consults it when a pipeline
/// cell's fingerprint has no run-cache slot (first sight, or evicted)
/// and offers every record it simulates back to it, so an
/// implementation backed by disk (the bench crate's `RecordStore`)
/// survives process restarts and lets a rebooted daemon answer
/// `fetch` without re-simulating. The run cache is the in-memory copy.
///
/// Only pipeline cells go through the cache: their fingerprint
/// captures everything that determines the measurement, and they are
/// the expensive kind. Emulator and config-dump cells re-execute (the
/// fingerprint does not distinguish emulator cell kinds, and they are
/// cheap and deterministic anyway).
///
/// Implementations must be infallible at this boundary: a failing
/// backend degrades (e.g. to memory-only mode) rather than erroring,
/// so simulation always proceeds.
pub trait RecordCache: Send + Sync {
    /// The stored record for `fingerprint`, if any. Identity fields
    /// (`id`, `group`, ...) of the returned record may describe a
    /// different cell with the same fingerprint; callers take only the
    /// measurement fields.
    fn get(&self, fingerprint: &str) -> Option<CellRecord>;

    /// Offers a freshly simulated record, identity fields included.
    /// Implementations deduplicate by fingerprint.
    fn put(&self, fingerprint: &str, record: &CellRecord);
}

/// Copies the measurement fields of `from` into `into`; the identity
/// fields (`id`, `config_fingerprint`, ...) stay `into`'s.
fn copy_measurement(into: &mut CellRecord, from: &CellRecord) {
    into.cycles = from.cycles;
    into.retired = from.retired;
    into.ipc = from.ipc;
    into.stats = from.stats.clone();
    into.stdout_digest = from.stdout_digest.clone();
    into.sim_wall_ms = from.sim_wall_ms;
    into.ksim_cycles_per_sec = from.ksim_cycles_per_sec;
}

/// Compiles (or fetches) the image for a cell's workload/target.
fn image_for(
    caches: &Caches,
    workload: WorkloadKind,
    target: Target,
    params: &RunParams,
) -> Result<Arc<Image>, Arc<ExperimentError>> {
    let key = (workload, target, workload.iters(params));
    let slot = lru_slot(&caches.images, &caches.image_lookups, IMAGE_CAPACITY, key);
    slot.get_or_init(|| {
        caches.image_misses.fetch_add(1, Ordering::Relaxed);
        build_for(workload.name(), &workload.source(params), target)
            .map(Arc::new)
            .map_err(Arc::new)
    })
    .clone()
}

/// Executes one cell, producing its record.
fn exec_cell(spec: &CellSpec, params: &RunParams, shared: &SessionShared) -> CellOutcome {
    let caches = &shared.caches;
    if let Some(victim) = shared.chaos_panic_cell.as_deref() {
        if victim == "any" || victim == spec.id() {
            panic!("chaos: injected panic in {}", spec.id());
        }
    }
    let started = Instant::now();
    let fingerprint = spec.fingerprint(params);
    let mut record = CellRecord {
        id: spec.id(),
        experiment: spec.experiment.to_string(),
        group: spec.group.clone(),
        label: spec.label.clone(),
        workload: spec.workload.map(|w| w.name().to_string()),
        target: spec.target().map(|t| target_name(t).to_string()),
        machine: spec.machine().map(|m| m.name.clone()),
        config_fingerprint: fingerprint.clone(),
        param: spec.param,
        ..CellRecord::default()
    };
    // Every kind but a configuration dump runs the cell's workload.
    let workload = || {
        spec.workload.ok_or_else(|| {
            Arc::new(ExperimentError::Malformed {
                experiment: spec.experiment.to_string(),
                msg: format!("cell `{}` without a workload", spec.id()),
            })
        })
    };
    match &spec.kind {
        CellKind::Pipeline { target, machine } => {
            let workload = workload()?;
            // Identical (workload, target, machine, iters) cells — the
            // same point appearing in several figures, or the same
            // cell submitted by several daemon clients — share one
            // slot, filled from the record cache or by one simulation.
            let slot =
                lru_slot(&caches.runs, &caches.run_lookups, RUN_CAPACITY, fingerprint.clone());
            let measured = slot
                .get_or_init(|| {
                    let record_cache = shared.record_cache.as_deref();
                    if let Some(stored) = record_cache.and_then(|c| c.get(&fingerprint)) {
                        let mut measured = CellRecord::default();
                        copy_measurement(&mut measured, &stored);
                        return Ok(Arc::new(measured));
                    }
                    let image = image_for(caches, workload, *target, params)?;
                    caches.run_misses.fetch_add(1, Ordering::Relaxed);
                    let sim_started = Instant::now();
                    let result =
                        run_checked(workload.name(), &image, machine.clone(), params.max_cycles)
                            .map_err(Arc::new)?;
                    // The simulation alone: no compile time, no record assembly.
                    let sim_wall_ms = sim_started.elapsed().as_secs_f64() * 1e3;
                    let cycles = result.stats.cycles;
                    let measured = CellRecord {
                        cycles,
                        retired: result.stats.retired,
                        ipc: result.stats.ipc(),
                        stdout_digest: Some(hex_digest(&result.stdout)),
                        stats: Some(result.stats),
                        sim_wall_ms: Some(sim_wall_ms),
                        // cycles per millisecond ≡ kilo-cycles per second.
                        ksim_cycles_per_sec: (sim_wall_ms > 0.0)
                            .then(|| cycles as f64 / sim_wall_ms),
                        ..CellRecord::default()
                    };
                    if let Some(cache) = record_cache {
                        copy_measurement(&mut record, &measured);
                        record.wall_ms = started.elapsed().as_secs_f64() * 1e3;
                        cache.put(&fingerprint, &record);
                    }
                    Ok(Arc::new(measured))
                })
                .clone()?;
            copy_measurement(&mut record, &measured);
        }
        CellKind::EmuMix { target } | CellKind::EmuDistance { target } => {
            let workload = workload()?;
            let image = image_for(caches, workload, *target, params)?;
            let profile = matches!(spec.kind, CellKind::EmuDistance { .. });
            let result = match target {
                Target::Riscv => {
                    RiscvEmu::new(image).run_tiered(u64::MAX, TierConfig::fast())
                }
                _ => {
                    let mut emu = StraightEmu::new(image);
                    emu.profile_distances = profile;
                    emu.run_tiered(u64::MAX, TierConfig::fast())
                }
            };
            if result.exit_code().is_none() {
                return Err(Arc::new(ExperimentError::Abnormal {
                    workload: workload.name().to_string(),
                    machine: if profile {
                        "STRAIGHT emulator".to_string()
                    } else {
                        format!("{} emulator", spec.label)
                    },
                    exit: format!("{:?}", result.exit),
                }));
            }
            record.retired = result.stats.retired;
            record.stdout_digest = Some(hex_digest(&result.stdout));
            if profile {
                record.distances = Some(
                    (0..=10)
                        .map(|k| {
                            let d = 1u32 << k;
                            (d, result.stats.cumulative_fraction(d as usize))
                        })
                        .collect(),
                );
                record.max_distance_used = Some(result.stats.max_distance_used() as u64);
            } else {
                record.kinds = Some(result.stats.kinds);
            }
        }
        CellKind::ConfigDump { .. } => {}
        // Sampled cells bypass the run cache and so the record cache:
        // their estimate is cheap relative to a full simulation, and
        // intentionally re-derived every run.
        CellKind::Sampled { target, machine } => {
            let workload = workload()?;
            let image = image_for(caches, workload, *target, params)?;
            let outcome =
                run_sampled(workload.name(), &image, machine.clone(), params.max_cycles, *target)
                    .map_err(Arc::new)?;
            record.cycles = outcome.cycles_est;
            record.retired = outcome.retired;
            record.ipc = outcome.ipc_est;
            record.stdout_digest = Some(hex_digest(&outcome.stdout));
        }
    }
    record.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(record)
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Extracts the human-readable message from a caught panic payload
/// (`panic!` with a literal yields `&str`, with a format string
/// `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// State shared between a session handle and its worker threads.
struct SessionShared {
    caches: Caches,
    queue: Mutex<SessionQueue>,
    available: Condvar,
    git_rev: String,
    /// Optional persistent record cache (the daemon's on-disk store).
    record_cache: Option<Arc<dyn RecordCache>>,
    /// Caught worker panics (each one is also a structured
    /// [`ExperimentError::Panic`] outcome).
    panics: AtomicU64,
    /// Chaos injection: a cell id (or `"any"`) whose execution
    /// deliberately panics, exercising the panic-isolation path.
    chaos_panic_cell: Option<String>,
}

struct SessionQueue {
    tasks: std::collections::VecDeque<Task>,
    shutdown: bool,
}

/// Progress/result state of one submitted batch of cells.
struct BatchShared {
    cells: Vec<CellSpec>,
    slots: Vec<Mutex<Option<CellOutcome>>>,
    started: AtomicUsize,
    done: Mutex<usize>,
    done_cv: Condvar,
    cancelled: AtomicBool,
}

/// A handle to an asynchronously submitted batch of cells (see
/// [`LabSession::submit`]). Cells execute on the session's worker
/// pool in submission order; the handle observes progress, waits for
/// completion, or cancels cells that have not started yet.
#[derive(Clone)]
pub struct Batch {
    shared: Arc<BatchShared>,
}

impl Batch {
    /// `(completed, total)` cell counts.
    #[must_use]
    pub fn progress(&self) -> (usize, usize) {
        (*lock(&self.shared.done), self.shared.cells.len())
    }

    /// Whether any cell has begun executing.
    #[must_use]
    pub fn started(&self) -> bool {
        self.shared.started.load(Ordering::Relaxed) > 0
    }

    /// Whether every cell has completed (successfully or not).
    #[must_use]
    pub fn is_done(&self) -> bool {
        let (done, total) = self.progress();
        done == total
    }

    /// Whether [`Batch::cancel`] was called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Relaxed)
    }

    /// Requests cancellation: cells that have not started resolve to
    /// [`ExperimentError::Cancelled`] instead of executing. Cells
    /// already in flight run to completion (the simulator has no
    /// preemption points), so [`Batch::wait`] still returns promptly.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// Blocks until every cell has completed, then returns the
    /// per-cell outcomes in submission order.
    #[must_use]
    pub fn wait(&self) -> Vec<CellOutcome> {
        let total = self.shared.cells.len();
        let mut done = lock(&self.shared.done);
        while *done < total {
            done = self
                .shared
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(done);
        self.outcomes()
    }

    /// Blocks until every cell has completed or `timeout` passes,
    /// whichever comes first; returns whether the batch is done.
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let total = self.shared.cells.len();
        let done = lock(&self.shared.done);
        let (done, _) = self
            .shared
            .done_cv
            .wait_timeout_while(done, timeout, |done| *done < total)
            .unwrap_or_else(PoisonError::into_inner);
        *done == total
    }

    /// The error of the first failed cell among those completed so
    /// far, in submission order, without cloning any record.
    #[must_use]
    pub fn first_error(&self) -> Option<Arc<ExperimentError>> {
        self.shared.slots.iter().find_map(|slot| match &*lock(slot) {
            Some(Err(e)) => Some(Arc::clone(e)),
            _ => None,
        })
    }

    /// The cell specs this batch executes, in submission order.
    #[must_use]
    pub fn cells(&self) -> &[CellSpec] {
        &self.shared.cells
    }

    /// The per-cell outcomes recorded so far (`Err(Cancelled)` slots
    /// included); unfinished cells are absent from their slot and
    /// reported as a `Malformed` error. Prefer [`Batch::wait`] unless
    /// the batch is known to be done.
    #[must_use]
    pub fn outcomes(&self) -> Vec<CellOutcome> {
        self.shared
            .cells
            .iter()
            .zip(&self.shared.slots)
            .map(|(cell, slot)| {
                lock(slot).clone().unwrap_or_else(|| {
                    Err(Arc::new(ExperimentError::Malformed {
                        experiment: cell.experiment.to_string(),
                        msg: "cell was never executed".to_string(),
                    }))
                })
            })
            .collect()
    }
}

/// Configures and constructs a [`LabSession`]; see
/// [`LabSession::builder`].
#[derive(Clone)]
pub struct LabSessionBuilder {
    jobs: usize,
    out_dir: Option<PathBuf>,
    record_cache: Option<Arc<dyn RecordCache>>,
    chaos_panic_cell: Option<String>,
}

impl LabSessionBuilder {
    /// Worker-thread count. Must be at least 1; [`Self::build`]
    /// rejects 0 with [`LabError::InvalidJobs`] instead of clamping
    /// silently.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> LabSessionBuilder {
        self.jobs = jobs;
        self
    }

    /// Where completed experiments write `BENCH_<name>.json`; `None`
    /// (the default) skips writing.
    #[must_use]
    pub fn out_dir(mut self, dir: Option<PathBuf>) -> LabSessionBuilder {
        self.out_dir = dir;
        self
    }

    /// Attaches a persistent record cache (see [`RecordCache`]):
    /// pipeline cells consult it before simulating and offer their
    /// records back to it, so a disk-backed implementation makes
    /// completed simulations survive restarts.
    #[must_use]
    pub fn record_cache(mut self, cache: Arc<dyn RecordCache>) -> LabSessionBuilder {
        self.record_cache = Some(cache);
        self
    }

    /// Chaos injection for fault-tolerance tests: executing the cell
    /// with this id (or any cell, when `"any"`) panics deliberately.
    /// The panic must surface as a structured
    /// [`ExperimentError::Panic`] outcome without harming the pool.
    #[must_use]
    pub fn chaos_panic_cell(mut self, cell: impl Into<String>) -> LabSessionBuilder {
        self.chaos_panic_cell = Some(cell.into());
        self
    }

    /// Starts the session: spawns the worker pool and initializes
    /// empty caches.
    ///
    /// # Errors
    ///
    /// [`LabError::InvalidJobs`] when `jobs` is 0, and
    /// [`LabError::Spawn`] when the operating system refuses a worker
    /// thread (the workers already started are shut down and joined).
    pub fn build(self) -> Result<LabSession, LabError> {
        if self.jobs == 0 {
            return Err(LabError::InvalidJobs);
        }
        let shared = Arc::new(SessionShared {
            caches: Caches::default(),
            queue: Mutex::new(SessionQueue {
                tasks: std::collections::VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            git_rev: git_rev(),
            record_cache: self.record_cache,
            panics: AtomicU64::new(0),
            chaos_panic_cell: self.chaos_panic_cell,
        });
        let mut session = LabSession {
            shared,
            workers: Vec::new(),
            jobs: self.jobs,
            out_dir: self.out_dir,
        };
        for _ in 0..self.jobs {
            let shared = Arc::clone(&session.shared);
            // Dropping `session` on failure shuts down and joins the
            // workers already started.
            let worker = std::thread::Builder::new()
                .spawn(move || loop {
                    let task = {
                        let mut queue = lock(&shared.queue);
                        loop {
                            if let Some(task) = queue.tasks.pop_front() {
                                break task;
                            }
                            if queue.shutdown {
                                return;
                            }
                            queue = shared
                                .available
                                .wait(queue)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    // Panic containment, second layer: tasks catch
                    // cell panics themselves (and turn them into
                    // structured outcomes), but even a panic escaping
                    // a task must not take the worker thread with it —
                    // the loop continues, which is equivalent to
                    // respawning the worker without losing the queue.
                    if catch_unwind(AssertUnwindSafe(task)).is_err() {
                        shared.panics.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .map_err(|source| LabError::Spawn { source })?;
            session.workers.push(worker);
        }
        Ok(session)
    }
}

/// A long-lived experiment-running session: worker pool, image/run
/// caches, and cache counters, with explicit caller-controlled
/// lifetime (dropping the session drains and joins the pool). See the
/// module docs for the full picture.
pub struct LabSession {
    shared: Arc<SessionShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    jobs: usize,
    out_dir: Option<PathBuf>,
}

impl LabSession {
    /// Starts configuring a session. Defaults: [`default_jobs`]
    /// workers, no output directory.
    #[must_use]
    pub fn builder() -> LabSessionBuilder {
        LabSessionBuilder {
            jobs: default_jobs(),
            out_dir: None,
            record_cache: None,
            chaos_panic_cell: None,
        }
    }

    /// The worker-pool size.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// A snapshot of the cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.caches.stats()
    }

    /// How many cell executions have panicked in this session. Each
    /// panic is caught at the worker boundary: the submitter sees a
    /// structured [`ExperimentError::Panic`] outcome and the pool
    /// keeps its full worker count.
    #[must_use]
    pub fn panic_count(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Enqueues `cells` on the worker pool and returns immediately
    /// with a [`Batch`] handle. Cells of concurrent batches interleave
    /// in FIFO order; results are deduplicated through the session
    /// caches.
    #[must_use]
    pub fn submit(&self, cells: Vec<CellSpec>, params: RunParams) -> Batch {
        let batch = Arc::new(BatchShared {
            slots: cells.iter().map(|_| Mutex::new(None)).collect(),
            cells,
            started: AtomicUsize::new(0),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            cancelled: AtomicBool::new(false),
        });
        {
            let mut queue = lock(&self.shared.queue);
            for index in 0..batch.cells.len() {
                let batch = Arc::clone(&batch);
                let shared = Arc::clone(&self.shared);
                queue.tasks.push_back(Box::new(move || {
                    let cell = &batch.cells[index];
                    let outcome = if batch.cancelled.load(Ordering::Relaxed) {
                        Err(Arc::new(ExperimentError::Cancelled { cell: cell.id() }))
                    } else {
                        batch.started.fetch_add(1, Ordering::Relaxed);
                        // Panic containment, first layer: a panicking
                        // cell becomes a structured failed outcome the
                        // submitter can observe, never a dead worker
                        // or a forever-pending batch slot.
                        match catch_unwind(AssertUnwindSafe(|| exec_cell(cell, &params, &shared)))
                        {
                            Ok(outcome) => outcome,
                            Err(payload) => {
                                shared.panics.fetch_add(1, Ordering::Relaxed);
                                Err(Arc::new(ExperimentError::Panic {
                                    cell: cell.id(),
                                    msg: panic_message(payload.as_ref()),
                                }))
                            }
                        }
                    };
                    *lock(&batch.slots[index]) = Some(outcome);
                    let mut done = lock(&batch.done);
                    *done += 1;
                    batch.done_cv.notify_all();
                }));
            }
        }
        self.shared.available.notify_all();
        Batch { shared: batch }
    }

    /// Runs one experiment to completion: submits its cells, waits,
    /// assembles the [`ExperimentResult`], renders the text report,
    /// and writes `BENCH_<name>.json` when an output directory is
    /// configured.
    ///
    /// # Errors
    ///
    /// The first cell/assembly/write failure, as a [`LabError`]. A
    /// failing cell does not cancel in-flight cells, but no file is
    /// written for the failing experiment.
    pub fn run_experiment(&self, id: ExperimentId, params: RunParams) -> Result<LabRun, LabError> {
        let spec = id.spec();
        let batch = self.submit(spec.cells(), params);
        let outcomes = batch.wait();
        self.assemble(&spec, params, &batch, outcomes)
    }

    /// Runs several experiments, pipelining their cells through the
    /// pool (all cells are enqueued up front, results are assembled in
    /// request order).
    ///
    /// # Errors
    ///
    /// As [`LabSession::run_experiment`]; the first failure wins.
    pub fn run(&self, ids: &[ExperimentId], params: RunParams) -> Result<Vec<LabRun>, LabError> {
        let submitted: Vec<(ExperimentSpec, Batch)> = ids
            .iter()
            .map(|id| {
                let spec = id.spec();
                let batch = self.submit(spec.cells(), params);
                (spec, batch)
            })
            .collect();
        submitted
            .into_iter()
            .map(|(spec, batch)| {
                let outcomes = batch.wait();
                self.assemble(&spec, params, &batch, outcomes)
            })
            .collect()
    }

    /// Builds the [`ExperimentResult`] (and [`LabRun`]) from a
    /// completed batch's outcomes.
    ///
    /// # Errors
    ///
    /// [`LabError::Cell`]/[`LabError::Assemble`]/[`LabError::Io`] as
    /// in [`LabSession::run_experiment`].
    pub fn assemble(
        &self,
        spec: &ExperimentSpec,
        params: RunParams,
        batch: &Batch,
        outcomes: Vec<CellOutcome>,
    ) -> Result<LabRun, LabError> {
        let mut cells = Vec::with_capacity(outcomes.len());
        for (cell, outcome) in batch.cells().iter().zip(outcomes) {
            match outcome {
                Ok(record) => cells.push(record),
                Err(source) => return Err(LabError::Cell { cell: cell.id(), source }),
            }
        }
        let result = ExperimentResult {
            schema_version: SCHEMA_VERSION,
            experiment: spec.id.to_string(),
            title: spec.title.to_string(),
            paper_ref: spec.paper_ref.to_string(),
            git_rev: self.shared.git_rev.clone(),
            params,
            wall_ms: cells.iter().map(|c| c.wall_ms).sum(),
            cells,
        };
        let rendered = spec.render(&result).map_err(|source| LabError::Assemble {
            experiment: spec.id.to_string(),
            source,
        })?;
        let path = match &self.out_dir {
            Some(dir) => Some(write_result(dir, &result)?),
            None => None,
        };
        Ok(LabRun { result, rendered, path })
    }
}

impl Drop for LabSession {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Writes one experiment's records to `<dir>/BENCH_<name>.json`.
///
/// # Errors
///
/// [`LabError::Io`] when the directory cannot be created or the file
/// cannot be written.
pub fn write_result(dir: &Path, result: &ExperimentResult) -> Result<PathBuf, LabError> {
    std::fs::create_dir_all(dir)
        .map_err(|source| LabError::Io { path: dir.to_path_buf(), source })?;
    let path = dir.join(format!("BENCH_{}.json", result.experiment));
    std::fs::write(&path, result.to_json().render_pretty())
        .map_err(|source| LabError::Io { path: path.clone(), source })?;
    Ok(path)
}

/// Parses and shape-checks a `BENCH_<name>.json` file, and checks
/// that its records render (see [`ExperimentSpec::render`]), returning
/// the typed result.
///
/// # Errors
///
/// [`LabError::Io`] when unreadable; [`LabError::Assemble`] when the
/// JSON is invalid, does not match the record schema, names no known
/// experiment, or holds records its figure cannot render.
pub fn validate_file(path: &Path) -> Result<ExperimentResult, LabError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| LabError::Io { path: path.to_path_buf(), source })?;
    let malformed = |experiment: &str, msg: String| LabError::Assemble {
        experiment: experiment.to_string(),
        source: ExperimentError::Malformed { experiment: experiment.to_string(), msg },
    };
    let file = path.display().to_string();
    let result = Json::parse(&text)
        .and_then(|parsed| ExperimentResult::from_json(&parsed))
        .map_err(|e| malformed(&file, e.to_string()))?;
    if result.schema_version != SCHEMA_VERSION {
        return Err(malformed(
            &result.experiment,
            format!("schema version {} (this binary reads {SCHEMA_VERSION})", result.schema_version),
        ));
    }
    let id: ExperimentId = result.experiment.parse().map_err(|e| malformed(&file, format!("{e}")))?;
    id.spec()
        .render(&result)
        .map_err(|source| LabError::Assemble { experiment: result.experiment.clone(), source })?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> LabSession {
        LabSession::builder().jobs(2).build().unwrap()
    }

    #[test]
    fn zero_jobs_is_rejected_not_clamped() {
        let err = LabSession::builder().jobs(0).build().err().expect("jobs(0) must be rejected");
        assert!(matches!(err, LabError::InvalidJobs));
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn unknown_experiment_never_reaches_the_session() {
        // Stringly-typed selection dies at the edge now: the parse
        // error carries the full list of valid ids.
        let err = "fig99".parse::<ExperimentId>().unwrap_err();
        assert_eq!(err.name, "fig99");
        let msg = err.to_string();
        for id in ExperimentId::ALL {
            assert!(msg.contains(id.name()), "{msg} should list {id}");
        }
    }

    #[test]
    fn table1_runs_without_simulation() {
        let session = session();
        let run = session.run_experiment(ExperimentId::Table1, RunParams::default()).unwrap();
        assert_eq!(run.result.cells.len(), 4);
        assert!(run.rendered.contains("== Table I: evaluated models =="));
        assert!(run.result.cells.iter().all(|c| c.stats.is_none() && c.cycles == 0));
        // Fingerprints must distinguish the four models.
        let mut fps: Vec<&str> =
            run.result.cells.iter().map(|c| c.config_fingerprint.as_str()).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 4);
    }

    #[test]
    fn cancelled_batches_resolve_without_executing() {
        let session = session();
        let spec = ExperimentId::Table1.spec();
        let batch = session.submit(spec.cells(), RunParams::default());
        // Whether or not cells started, cancellation completes the
        // batch and wait() returns.
        batch.cancel();
        let outcomes = batch.wait();
        assert_eq!(outcomes.len(), 4);
        assert!(batch.is_done());
        for outcome in outcomes {
            match outcome {
                Ok(record) => assert_eq!(record.experiment, "table1"),
                Err(e) => assert!(matches!(*e, ExperimentError::Cancelled { .. })),
            }
        }
    }

    #[test]
    fn panicking_cell_is_a_structured_outcome_and_the_pool_survives() {
        let spec = ExperimentId::Table1.spec();
        let cells = spec.cells();
        let victim = cells[0].id();
        // One worker: if the panic killed it, the remaining cells
        // would never run and wait() would hang.
        let session = LabSession::builder()
            .jobs(1)
            .chaos_panic_cell(victim.clone())
            .build()
            .unwrap();
        let batch = session.submit(cells.clone(), RunParams::default());
        let outcomes = batch.wait();
        assert_eq!(outcomes.len(), 4);
        assert!(matches!(batch.first_error().as_deref(), Some(ExperimentError::Panic { .. })));
        match &outcomes[0] {
            Err(e) => {
                assert!(matches!(**e, ExperimentError::Panic { .. }), "got {e}");
                let msg = e.to_string();
                assert!(msg.contains("panicked") && msg.contains(&victim), "got {msg}");
            }
            Ok(_) => panic!("the chaos cell must fail"),
        }
        for outcome in &outcomes[1..] {
            assert!(outcome.is_ok(), "non-victim cells still run on the surviving worker");
        }
        assert_eq!(session.panic_count(), 1);
        // The same worker keeps serving subsequent jobs.
        let survivors: Vec<_> = cells.into_iter().filter(|c| c.id() != victim).collect();
        let again = session.submit(survivors, RunParams::default()).wait();
        assert!(again.iter().all(Result::is_ok));
        assert_eq!(session.panic_count(), 1, "only the injected panic fired");
    }

    fn pipeline_cell() -> CellSpec {
        ExperimentId::Fig17
            .spec()
            .cells()
            .into_iter()
            .find(|c| matches!(c.kind, CellKind::Pipeline { .. }))
            .expect("fig17 has pipeline cells")
    }

    #[test]
    fn cells_fail_when_the_cycle_budget_runs_out() {
        let cells = [
            ExperimentId::Fig11.spec().cells()[0].clone(),
            ExperimentId::Sampled.spec().cells()[1].clone(),
        ];
        assert!(matches!(cells[0].kind, CellKind::Pipeline { .. }), "{}", cells[0].id());
        assert!(matches!(cells[1].kind, CellKind::Sampled { .. }), "{}", cells[1].id());
        let params = RunParams { max_cycles: 1_000, ..RunParams::quick() };
        let outcomes = session().submit(cells.to_vec(), params).wait();
        for (cell, outcome) in cells.iter().zip(outcomes) {
            let id = cell.id();
            match outcome {
                Err(e) => assert!(matches!(*e, ExperimentError::Abnormal { .. }), "{id}: {e}"),
                Ok(record) => panic!("{id}: completed in {} cycles", record.cycles),
            }
        }
    }

    /// A record under another cell's identity, as a restarted daemon
    /// would load it from disk.
    fn sentinel_record(fingerprint: &str) -> CellRecord {
        CellRecord {
            id: "other/Cell/Identity".to_string(),
            experiment: "other".to_string(),
            group: "Cell".to_string(),
            label: "Identity".to_string(),
            workload: Some("Dhrystone".to_string()),
            target: None,
            machine: None,
            config_fingerprint: fingerprint.to_string(),
            param: None,
            cycles: 424_242,
            retired: 7,
            ipc: 1.5,
            stats: None,
            kinds: None,
            distances: None,
            max_distance_used: None,
            stdout_digest: Some("cafe".to_string()),
            wall_ms: 99.0,
            sim_wall_ms: Some(3.0),
            ksim_cycles_per_sec: Some(141_414.0),
        }
    }

    #[test]
    fn wait_timeout_returns_at_once_when_done_and_expires_while_queued() {
        let session = session();
        let done = session.submit(ExperimentId::Table1.spec().cells(), RunParams::default());
        let _ = done.wait();
        let started = Instant::now();
        assert!(done.wait_timeout(Duration::from_secs(60)));
        assert!(started.elapsed() < Duration::from_secs(1), "a done batch must not block");

        // A record cache whose lookup blocks until the gate opens keeps
        // the single worker busy, with no simulation to time.
        struct Gate {
            open: Mutex<bool>,
            opened: Condvar,
            record: CellRecord,
        }
        impl RecordCache for Gate {
            fn get(&self, _: &str) -> Option<CellRecord> {
                let open = lock(&self.open);
                drop(self.opened.wait_while(open, |open| !*open).unwrap_or_else(PoisonError::into_inner));
                Some(self.record.clone())
            }
            fn put(&self, _: &str, _: &CellRecord) {}
        }
        let cell = pipeline_cell();
        let params = RunParams { dhry_iters: 5, cm_iters: 1, ..RunParams::default() };
        let gate = Arc::new(Gate {
            open: Mutex::new(false),
            opened: Condvar::new(),
            record: sentinel_record(&cell.fingerprint(&params)),
        });
        let session = LabSession::builder()
            .jobs(1)
            .record_cache(Arc::clone(&gate) as Arc<dyn RecordCache>)
            .build()
            .unwrap();
        let busy = session.submit(vec![cell], params);
        let queued = session.submit(ExperimentId::Table1.spec().cells(), RunParams::default());
        let started = Instant::now();
        assert!(!queued.wait_timeout(Duration::from_millis(50)));
        assert!(started.elapsed() >= Duration::from_millis(50));
        assert!(!queued.started(), "the queued batch waits behind the busy worker");

        *lock(&gate.open) = true;
        gate.opened.notify_all();
        assert!(queued.wait_timeout(Duration::from_secs(60)));
        assert!(busy.is_done());
        assert!(queued.first_error().is_none());
    }

    #[test]
    fn record_cache_hits_skip_simulation_and_keep_cell_identity() {
        struct MemCache {
            map: Mutex<HashMap<String, CellRecord>>,
            puts: AtomicU64,
        }
        impl RecordCache for MemCache {
            fn get(&self, fingerprint: &str) -> Option<CellRecord> {
                lock(&self.map).get(fingerprint).cloned()
            }
            fn put(&self, fingerprint: &str, record: &CellRecord) {
                self.puts.fetch_add(1, Ordering::Relaxed);
                lock(&self.map).insert(fingerprint.to_string(), record.clone());
            }
        }

        let cell = pipeline_cell();
        let params = RunParams { dhry_iters: 5, cm_iters: 1, ..RunParams::default() };
        let fingerprint = cell.fingerprint(&params);
        let cache = Arc::new(MemCache {
            map: Mutex::new(HashMap::from([(fingerprint.clone(), sentinel_record(&fingerprint))])),
            puts: AtomicU64::new(0),
        });
        let session = LabSession::builder()
            .jobs(1)
            .record_cache(Arc::clone(&cache) as Arc<dyn RecordCache>)
            .build()
            .unwrap();
        let outcomes = session.submit(vec![cell.clone()], params).wait();
        let record = outcomes[0].as_ref().expect("cache hit succeeds");
        // Measurement fields come from the cache...
        assert_eq!(record.cycles, 424_242);
        assert_eq!(record.stdout_digest.as_deref(), Some("cafe"));
        assert_eq!(record.sim_wall_ms, Some(3.0));
        // ...identity fields stay the requested cell's...
        assert_eq!(record.id, cell.id());
        assert_eq!(record.experiment, "fig17");
        // ...and neither a build nor a simulation happened.
        let stats = session.cache_stats();
        assert_eq!(stats.image_lookups, 0);
        assert_eq!(stats.run_misses, 0);
        assert_eq!(cache.puts.load(Ordering::Relaxed), 0, "a hit is not re-offered");
    }

    #[test]
    fn session_caches_persist_across_runs() {
        let session = session();
        let params = RunParams { dhry_iters: 5, cm_iters: 1, ..RunParams::default() };
        let first = session.run_experiment(ExperimentId::Fig16, params).unwrap();
        let after_first = session.cache_stats();
        assert_eq!(after_first.image_hits(), 0, "cold cache compiles everything");
        assert!(after_first.image_misses > 0);
        let second = session.run_experiment(ExperimentId::Fig16, params).unwrap();
        let after_second = session.cache_stats();
        assert_eq!(
            after_second.image_misses, after_first.image_misses,
            "second run recompiles nothing"
        );
        assert!(after_second.image_hits() > 0);
        assert_eq!(first.result.normalized(), second.result.normalized());
    }

    #[test]
    fn image_cache_holds_at_most_its_capacity_and_rebuilds_evicted_images() {
        let session = session();
        // Each run builds a Dhrystone image at a new count; the CoreMark
        // image is looked up by every run, so it is never the LRU one.
        let params = |dhry_iters| RunParams { dhry_iters, cm_iters: 1, ..RunParams::default() };
        let run = |dhry_iters| session.run_experiment(ExperimentId::Fig16, params(dhry_iters)).unwrap();
        let counts = IMAGE_CAPACITY as u32 + 1;
        let first = run(1);
        for dhry_iters in 2..=counts {
            let _ = run(dhry_iters);
        }
        let full = session.cache_stats();
        assert_eq!(full.image_misses, u64::from(counts) + 1, "every distinct image built once");
        assert_eq!(full.images_held, IMAGE_CAPACITY as u64);

        let again = run(1);
        let after = session.cache_stats();
        assert_eq!(after.image_misses, full.image_misses + 1, "the evicted image is rebuilt");
        assert_eq!(after.images_held, IMAGE_CAPACITY as u64);
        assert_eq!(
            first.result.normalized().to_json().render_pretty(),
            again.result.normalized().to_json().render_pretty()
        );
    }

    #[test]
    fn run_cache_holds_at_most_its_capacity_and_resimulates_evicted_records() {
        let session = session();
        let cell = pipeline_cell();
        // The cycle budget is part of the fingerprint, so each budget is
        // a distinct simulation of one cheap image.
        let params = |extra: u64| RunParams {
            dhry_iters: 1,
            cm_iters: 1,
            max_cycles: RunParams::default().max_cycles + extra,
        };
        let normalized = |extra| {
            let outcomes = session.submit(vec![cell.clone()], params(extra)).wait();
            let record = outcomes[0].as_ref().expect("the cell runs");
            CellRecord {
                wall_ms: 0.0,
                sim_wall_ms: None,
                ksim_cycles_per_sec: None,
                ..record.clone()
            }
            .to_json()
            .render_pretty()
        };
        let first = normalized(0);
        for extra in 1..=RUN_CAPACITY as u64 {
            let _ = normalized(extra);
        }
        let full = session.cache_stats();
        assert_eq!(full.run_misses, RUN_CAPACITY as u64 + 1, "every fingerprint simulated once");
        assert_eq!(full.runs_held, RUN_CAPACITY as u64);

        let again = normalized(0);
        let after = session.cache_stats();
        assert_eq!(after.run_misses, full.run_misses + 1, "the evicted record is simulated again");
        assert_eq!(after.runs_held, RUN_CAPACITY as u64);
        assert_eq!(first, again);
    }
}

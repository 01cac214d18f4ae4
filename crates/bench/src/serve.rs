//! The `straightd` simulation service: a persistent daemon front-end
//! over a [`LabSession`].
//!
//! One daemon process owns a single session — worker pool, image
//! cache, run cache — and serves it over a newline-delimited-JSON
//! protocol on a TCP or Unix-domain listener. Because the session
//! outlives any request, repeated cells are O(cache lookup): the
//! second client asking for `fig12/Dhrystone/SS` gets the first
//! client's simulation, observable through the `stats` op's cache-hit
//! counters.
//!
//! ## Protocol
//!
//! Each request is one JSON object on one line (at most
//! [`MAX_REQUEST_LINE`] bytes); each response is one JSON object on
//! one line. Success responses carry `"ok": true`; failures carry
//! `"ok": false` and a structured `"error": {"kind", "msg", ...}`
//! object. Malformed framing (oversized or non-JSON lines) yields an
//! error response, never a dropped connection without explanation and
//! never a daemon panic. See `docs/SERVING.md` for the full
//! request/response catalog with examples.
//!
//! Ops: `ping`, `submit-experiment`, `submit-cell`, `status`, `wait`,
//! `fetch`, `cancel`, `stats`, `shutdown`. `wait` blocks (at most
//! [`MAX_WAIT`]) until the job is terminal, so clients learn of
//! completion without polling.
//!
//! ## Lifecycle
//!
//! Jobs land in a bounded queue ([`DaemonConfig::queue_cap`]); when
//! the bound is hit, submissions are refused with a `queue-full`
//! error — backpressure the client can retry on. A `fetch` of a
//! terminal job retires it once the answer is written, and at most
//! [`RETAINED_JOBS`] finished jobs wait unfetched; a request naming a
//! retired job gets an `expired` error. `shutdown` (or
//! SIGTERM, wired up by the `straightd` binary) stops the accept loop
//! and drains in-flight jobs before [`Daemon::run`] returns; queued
//! cells of cancelled jobs resolve without executing.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use straight_core::experiment::{
    CellRecord, CellSpec, ExperimentId, ExperimentResult, RunParams, UnknownExperiment,
};
use straight_core::lab::{Batch, LabError, LabRun, LabSession, RecordCache};
use straight_isa::rng::SplitMix64;
use straight_json::{obj, FromJson, Json, JsonBuilder};

use crate::store::{RecordStore, StoreReport};

/// Upper bound on one request line, bytes. Requests are small (the
/// largest is a `submit-cell` with explicit parameters); anything
/// larger is a framing error, answered structurally and then the
/// connection is closed.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Upper bound on one response line read by [`Client`], bytes.
/// Responses carry whole `ExperimentResult`s, so the bound is
/// generous.
pub const MAX_RESPONSE_LINE: usize = 1 << 28;

/// Upper bound on how long one `wait` request blocks; a longer
/// `timeout_ms` is clamped to it.
pub const MAX_WAIT: Duration = Duration::from_secs(1);

/// Finished jobs that nobody fetched which the daemon keeps at most;
/// past it the oldest is retired. A fetched job retires at once and
/// unfinished jobs are bounded by [`DaemonConfig::queue_cap`], so
/// clients that fetch every job (`straight-lab --remote`) never
/// reach this bound: only clients that die between submit and fetch
/// leave jobs behind.
pub const RETAINED_JOBS: usize = 256;

/// How a daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address, e.g. `127.0.0.1:4155`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// Splits an address argument: anything containing a `/` is a
/// Unix-socket path, everything else is `host:port`.
#[must_use]
pub fn parse_addr(addr: &str) -> Listen {
    if addr.contains('/') {
        Listen::Unix(PathBuf::from(addr))
    } else {
        Listen::Tcp(addr.to_string())
    }
}

/// Daemon construction parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where to listen.
    pub listen: Listen,
    /// Worker threads of the underlying [`LabSession`].
    pub jobs: usize,
    /// Maximum number of jobs that may be queued or running at once;
    /// submissions beyond it get a `queue-full` error.
    pub queue_cap: usize,
    /// Root of the crash-safe on-disk record store; `None` runs with
    /// in-memory caches only (completed simulations die on restart).
    pub store: Option<PathBuf>,
    /// How long a connection may sit without sending a request before
    /// it is reaped (so a stalled client cannot pin a handler thread
    /// forever); `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Chaos injection for fault-tolerance tests: a cell id (or
    /// `"any"`) whose execution deliberately panics. See
    /// `LabSessionBuilder::chaos_panic_cell`.
    pub chaos_panic_cell: Option<String>,
}

impl DaemonConfig {
    /// A config listening on `listen` with [`default_jobs`] workers, a
    /// queue bound of 64 jobs, no store, and a 5-minute idle timeout.
    ///
    /// [`default_jobs`]: straight_core::lab::default_jobs
    #[must_use]
    pub fn new(listen: Listen) -> DaemonConfig {
        DaemonConfig {
            listen,
            jobs: straight_core::lab::default_jobs(),
            queue_cap: 64,
            store: None,
            idle_timeout: Some(Duration::from_secs(300)),
            chaos_panic_cell: None,
        }
    }
}

/// What a job computes.
enum JobKind {
    /// All cells of one experiment; `fetch` returns the assembled
    /// `ExperimentResult`.
    Experiment(ExperimentId),
    /// One cell; `fetch` returns its `CellRecord`.
    Cell,
}

/// One submitted job: its identity, parameters, and batch handle.
struct JobEntry {
    kind: JobKind,
    params: RunParams,
    batch: Batch,
}

/// The jobs the daemon still answers for. Ids are issued in order
/// from 1, so an id below `next` that is not held was retired, and
/// the first finished entry is the oldest.
struct JobTable {
    /// The id the next submission gets.
    next: u64,
    /// Unfinished jobs, and finished ones not yet fetched. Handlers
    /// clone an entry out and release the lock before blocking or
    /// building a response.
    held: BTreeMap<u64, Arc<JobEntry>>,
}

impl JobTable {
    /// Issues the next id to `entry`.
    fn insert(&mut self, entry: JobEntry) -> u64 {
        let job = self.next;
        self.next += 1;
        self.held.insert(job, Arc::new(entry));
        job
    }

    /// The jobs not yet finished: what the queue bound counts and the
    /// drain waits on.
    fn unfinished(&self) -> impl Iterator<Item = &Arc<JobEntry>> {
        self.held.values().filter(|entry| !entry.batch.is_done())
    }

    /// Retires the oldest finished jobs beyond [`RETAINED_JOBS`].
    fn retire_unfetched(&mut self) {
        let finished = self.held.values().filter(|entry| entry.batch.is_done()).count();
        let mut excess = finished.saturating_sub(RETAINED_JOBS);
        // `retain` visits ids in ascending order: oldest first.
        self.held.retain(|_, entry| {
            let retire = excess > 0 && entry.batch.is_done();
            excess -= usize::from(retire);
            !retire
        });
    }
}

/// State shared by the accept loop and every connection thread.
struct DaemonState {
    session: LabSession,
    /// The daemon's only job registry. Read through
    /// [`DaemonState::jobs`], which applies the [`RETAINED_JOBS`] bound.
    jobs: Mutex<JobTable>,
    queue_cap: usize,
    shutdown: AtomicBool,
    /// The on-disk record store, when configured (also wired into the
    /// session as its record cache).
    store: Option<Arc<RecordStore>>,
    /// Per-connection request deadline; see [`DaemonConfig::idle_timeout`].
    idle_timeout: Option<Duration>,
    /// Submissions refused with `queue-full` (each one is a client
    /// retry trigger).
    queue_full_refusals: AtomicU64,
    /// Connections closed for sitting idle past the timeout.
    idle_reaped: AtomicU64,
    /// When the daemon bound its listener, for the `stats` uptime.
    started: Instant,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Formats a fallible `Display` for logging, collapsing the error
/// case to `<unknown>` — the one helper for peer/local-address and
/// similar best-effort formatting.
fn or_unknown<T: std::fmt::Display, E>(value: Result<T, E>) -> String {
    value.map(|v| v.to_string()).unwrap_or_else(|_| "<unknown>".to_string())
}

/// Whether an I/O error is a blocking-socket timeout (both kinds
/// occur, platform-dependently, for `set_read_timeout` expiries).
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

impl DaemonState {
    /// The job table, after retiring the finished jobs beyond
    /// [`RETAINED_JOBS`].
    fn jobs(&self) -> MutexGuard<'_, JobTable> {
        let mut jobs = lock(&self.jobs);
        jobs.retire_unfetched();
        jobs
    }
}

/// Either kind of stream, so one code path serves TCP and Unix
/// connections.
enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Conn {
    /// Applies a read+write timeout to the underlying socket (`None`
    /// clears it). A timed-out read surfaces as a `WouldBlock`/
    /// `TimedOut` I/O error.
    fn set_io_timeouts(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Conn::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    /// A second handle on the same socket.
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Best-effort peer description for log lines.
    fn peer_name(&self) -> String {
        match self {
            Conn::Tcp(s) => or_unknown(s.peer_addr()),
            Conn::Unix(s) => or_unknown(s.peer_addr().map(|a| format!("unix:{a:?}"))),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A framing failure while reading one protocol line.
#[derive(Debug)]
pub enum FrameError {
    /// The line exceeded the size limit before a newline appeared.
    Oversized {
        /// The limit that was exceeded, bytes.
        limit: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one newline-terminated frame, tolerating arbitrarily
/// fragmented reads. Returns `Ok(None)` on a clean disconnect (EOF at
/// a frame boundary *or* mid-line: a half-written request from a dying
/// client is discarded, not misparsed).
///
/// # Errors
///
/// [`FrameError::Oversized`] when `limit` bytes accumulate without a
/// newline; [`FrameError::Io`] on transport errors.
pub fn read_frame(
    reader: &mut impl BufRead,
    limit: usize,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut line = Vec::new();
    loop {
        let (consumed, finished) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            };
            if buf.is_empty() {
                return Ok(None);
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    line.extend_from_slice(&buf[..nl]);
                    (nl + 1, true)
                }
                None => {
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if line.len() > limit {
            return Err(FrameError::Oversized { limit });
        }
        if finished {
            return Ok(Some(line));
        }
    }
}

/// One response line, and the job to retire once it is written: a
/// `fetch` that answered for a terminal job.
struct Answer {
    response: Json,
    retire: Option<u64>,
}

impl From<Json> for Answer {
    fn from(response: Json) -> Answer {
        Answer { response, retire: None }
    }
}

fn ok_response() -> JsonBuilder {
    obj().field("ok", &true)
}

fn error_response(kind: &str, msg: impl Into<String>, extra: Option<(&str, Json)>) -> Json {
    let mut error = obj().field("kind", kind).field("msg", &msg.into());
    if let Some((key, value)) = extra {
        error = error.field(key, &value);
    }
    obj().field("ok", &false).field("error", &error.build()).build()
}

/// The per-job state string reported by the `status` op.
fn job_state(entry: &JobEntry) -> (&'static str, Option<String>) {
    if entry.batch.is_done() {
        if entry.batch.is_cancelled() {
            return ("cancelled", None);
        }
        return match entry.batch.first_error() {
            Some(e) => ("failed", Some(e.to_string())),
            None => ("done", None),
        };
    }
    if entry.batch.started() || entry.batch.progress().0 > 0 {
        ("running", None)
    } else {
        ("queued", None)
    }
}

/// Assembles a done experiment job into its result (no file output —
/// the daemon's session has no `out_dir`; clients persist records
/// themselves).
fn assemble_job(state: &DaemonState, entry: &JobEntry, id: ExperimentId) -> Result<LabRun, LabError> {
    let spec = id.spec();
    let outcomes = entry.batch.outcomes();
    state.session.assemble(&spec, entry.params, &entry.batch, outcomes)
}

fn handle_request(state: &DaemonState, line: &[u8]) -> Answer {
    let Ok(text) = std::str::from_utf8(line) else {
        return error_response("malformed", "request is not UTF-8", None).into();
    };
    let request = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            return error_response("malformed", format!("request is not JSON: {e}"), None).into()
        }
    };
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return error_response("malformed", "missing string field `op`", None).into();
    };
    let response = match op {
        "ping" => ok_response().field("op", "pong").build(),
        "submit-experiment" => submit_experiment(state, &request),
        "submit-cell" => submit_cell(state, &request),
        "status" => with_job(state, &request, |_, job, entry| status_response(job, entry)),
        "wait" => wait_for_job(state, &request),
        "fetch" => return with_job(state, &request, fetch_job),
        "cancel" => with_job(state, &request, |_, job, entry| {
            entry.batch.cancel();
            ok_response().field("job", &job).field("state", "cancelled").build()
        }),
        "stats" => {
            let (submitted, active, held) = {
                let jobs = state.jobs();
                (jobs.next - 1, jobs.unfinished().count() as u64, jobs.held.len() as u64)
            };
            ok_response()
                .field("cache", &state.session.cache_stats())
                .field("jobs_submitted", &submitted)
                .field("jobs_active", &active)
                .field("jobs_held", &held)
                .field("queue_cap", &(state.queue_cap as u64))
                .field("workers", &(state.session.jobs() as u64))
                .field("uptime_ms", &(state.started.elapsed().as_millis() as u64))
                .field("worker_panics", &state.session.panic_count())
                .field("queue_full_refusals", &state.queue_full_refusals.load(Ordering::Relaxed))
                .field("idle_reaped", &state.idle_reaped.load(Ordering::Relaxed))
                .field("store", &state.store.as_ref().map(|s| s.stats()))
                .build()
        }
        "shutdown" => {
            state.shutdown.store(true, Ordering::SeqCst);
            ok_response().field("op", "shutdown").build()
        }
        other => error_response(
            "unknown-op",
            format!(
                "unknown op `{other}` (valid: ping, submit-experiment, submit-cell, status, \
                 wait, fetch, cancel, stats, shutdown)"
            ),
            None,
        ),
    };
    response.into()
}

/// Parses the optional `params` field (absent → defaults).
fn request_params(request: &Json) -> Result<RunParams, Json> {
    match request.get("params") {
        None | Some(Json::Null) => Ok(RunParams::default()),
        Some(value) => RunParams::from_json(value).map_err(|e| {
            error_response("malformed", format!("bad `params`: {e}"), None)
        }),
    }
}

/// Admits and submits a job: refuses when draining or when the job
/// queue is at its bound. Admission holds the job table's lock from
/// the checks through the insert, so concurrent submissions cannot
/// overshoot the bound and the drain in [`Daemon::run`] sees every
/// admitted job.
fn register_job(state: &DaemonState, kind: JobKind, params: RunParams, cells: Vec<CellSpec>) -> Json {
    let total = cells.len();
    let mut jobs = state.jobs();
    if state.shutdown.load(Ordering::SeqCst) {
        return error_response("shutting-down", "daemon is draining; resubmit elsewhere", None);
    }
    if jobs.unfinished().count() >= state.queue_cap {
        state.queue_full_refusals.fetch_add(1, Ordering::Relaxed);
        return error_response(
            "queue-full",
            format!("job queue is at its bound ({}); retry later", state.queue_cap),
            None,
        );
    }
    let batch = state.session.submit(cells, params);
    let job = jobs.insert(JobEntry { kind, params, batch });
    ok_response().field("job", &job).field("cells", &total).build()
}

/// Parses an experiment name, or builds the `unknown-experiment` error
/// response listing the valid names.
fn parse_experiment(name: &str) -> Result<ExperimentId, Json> {
    name.parse::<ExperimentId>().map_err(|e| {
        let valid = UnknownExperiment::valid_names().into_iter().map(|n| Json::Str(n.to_string()));
        let valid = Some(("valid", Json::Arr(valid.collect())));
        error_response("unknown-experiment", e.to_string(), valid)
    })
}

fn submit_experiment(state: &DaemonState, request: &Json) -> Json {
    let Some(name) = request.get("experiment").and_then(Json::as_str) else {
        return error_response("malformed", "missing string field `experiment`", None);
    };
    let id = match parse_experiment(name) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    let params = match request_params(request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    register_job(state, JobKind::Experiment(id), params, id.spec().cells())
}

fn submit_cell(state: &DaemonState, request: &Json) -> Json {
    let Some(cell_id) = request.get("cell").and_then(Json::as_str) else {
        return error_response("malformed", "missing string field `cell`", None);
    };
    let Some((experiment, _)) = cell_id.split_once('/') else {
        return error_response(
            "malformed",
            format!("cell id `{cell_id}` is not of the form experiment/group/label"),
            None,
        );
    };
    let id = match parse_experiment(experiment) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    let cells = id.spec().cells();
    let Some(cell) = cells.into_iter().find(|c| c.id() == cell_id) else {
        let valid = id.spec().cells().iter().map(|c| Json::Str(c.id())).collect();
        return error_response(
            "unknown-cell",
            format!("experiment `{id}` has no cell `{cell_id}`"),
            Some(("valid", Json::Arr(valid))),
        );
    };
    let params = match request_params(request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    register_job(state, JobKind::Cell, params, vec![cell])
}

/// Runs `f` on the job the request names, or answers `malformed`,
/// `expired` (an issued id no longer held) or `unknown-job` (an id
/// never issued).
fn with_job<T: From<Json>>(
    state: &DaemonState,
    request: &Json,
    f: impl FnOnce(&DaemonState, u64, &JobEntry) -> T,
) -> T {
    let Some(job) = request.get("job").and_then(Json::as_u64) else {
        return error_response("malformed", "missing integer field `job`", None).into();
    };
    // Clone the entry out so the global lock is not held while `f`
    // blocks or builds its response.
    let (entry, next) = {
        let jobs = state.jobs();
        (jobs.held.get(&job).cloned(), jobs.next)
    };
    match entry {
        Some(entry) => f(state, job, &entry),
        None if (1..next).contains(&job) => error_response(
            "expired",
            format!(
                "job {job} was retired: it was fetched, or it finished and was left \
                 unfetched past the {RETAINED_JOBS} finished jobs the daemon keeps"
            ),
            None,
        )
        .into(),
        None => error_response("unknown-job", format!("no job {job}"), None).into(),
    }
}

/// Blocks until the job is terminal or the request's `timeout_ms`
/// (default and ceiling [`MAX_WAIT`]) passes, then answers as `status`.
fn wait_for_job(state: &DaemonState, request: &Json) -> Json {
    let timeout = match request.get("timeout_ms") {
        None | Some(Json::Null) => MAX_WAIT,
        Some(ms) => match ms.as_u64() {
            Some(ms) => Duration::from_millis(ms).min(MAX_WAIT),
            None => {
                return error_response("malformed", "`timeout_ms` must be a non-negative integer", None)
            }
        },
    };
    with_job(state, request, |_, job, entry| {
        let _ = entry.batch.wait_timeout(timeout);
        status_response(job, entry)
    })
}

/// The `status` (and `wait`) answer for one job.
fn status_response(job: u64, entry: &JobEntry) -> Json {
    let (job_status, error) = job_state(entry);
    let (done, total) = entry.batch.progress();
    ok_response()
        .field("job", &job)
        .field("state", job_status)
        .field("done_cells", &done)
        .field("total_cells", &total)
        .field("error", &error)
        .build()
}

/// Answers a `fetch`; any answer for a terminal job — record, result
/// or `job-failed` — retires the job once it is written.
fn fetch_job(state: &DaemonState, job: u64, entry: &JobEntry) -> Answer {
    if !entry.batch.is_done() {
        let (done, total) = entry.batch.progress();
        return error_response(
            "not-done",
            format!("job {job} has completed {done}/{total} cells; `wait` for it first"),
            None,
        )
        .into();
    }
    let response = match &entry.kind {
        JobKind::Experiment(id) => match assemble_job(state, entry, *id) {
            Ok(run) => ok_response()
                .field("job", &job)
                .field("kind", "experiment")
                .field("result", &run.result)
                .build(),
            Err(e) => error_response("job-failed", e.to_string(), None),
        },
        JobKind::Cell => match entry.batch.outcomes().into_iter().next() {
            Some(Ok(record)) => ok_response()
                .field("job", &job)
                .field("kind", "cell")
                .field("record", &record)
                .build(),
            Some(Err(e)) => error_response("job-failed", e.to_string(), None),
            None => error_response("job-failed", "job has no cells", None),
        },
    };
    Answer { response, retire: Some(job) }
}

fn serve_connection(stream: Conn, state: &Arc<DaemonState>) {
    let peer = stream.peer_name();
    // The idle timeout doubles as the write timeout: a client that
    // neither sends nor drains cannot pin this handler thread.
    let _ = stream.set_io_timeouts(state.idle_timeout);
    // One BufReader per connection; writes go through the same stream
    // (requests and responses strictly alternate, so the read buffer
    // never hides a write).
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, MAX_REQUEST_LINE) {
            Ok(None) => return, // client disconnected (possibly mid-job: jobs keep running)
            Ok(Some(line)) => {
                let answer = handle_request(state, &line);
                if write_json_line(reader.get_mut(), &answer.response).is_err() {
                    return; // a retiring fetch stays fetchable
                }
                if let Some(job) = answer.retire {
                    state.jobs().held.remove(&job);
                }
            }
            Err(FrameError::Oversized { limit }) => {
                // Cannot resync reliably mid-line; answer structurally
                // and close.
                let response = error_response(
                    "oversized",
                    format!("request line exceeds {limit} bytes"),
                    None,
                );
                let _ = write_json_line(reader.get_mut(), &response);
                return;
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                // Idle reap: answer structurally (best effort — the
                // peer may be gone) and free the handler thread. Jobs
                // the connection submitted keep running and stay
                // fetchable from any later connection.
                state.idle_reaped.fetch_add(1, Ordering::Relaxed);
                let timeout = state.idle_timeout.unwrap_or_default();
                let response = error_response(
                    "idle-timeout",
                    format!("no request in {timeout:?}; closing idle connection"),
                    None,
                );
                let _ = write_json_line(reader.get_mut(), &response);
                eprintln!("straightd: reaped idle connection from {peer}");
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

fn write_json_line(writer: &mut impl Write, value: &Json) -> io::Result<()> {
    let mut line = value.render().into_bytes();
    line.push(b'\n');
    writer.write_all(&line)?;
    writer.flush()
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A bound, not-yet-running daemon. Construct with [`Daemon::bind`],
/// then drive the accept loop with [`Daemon::run`].
pub struct Daemon {
    state: Arc<DaemonState>,
    listener: ListenerKind,
    store_report: Option<StoreReport>,
}

impl Daemon {
    /// Binds the listener, opens the record store (when configured),
    /// and starts the session's worker pool. A pre-existing Unix
    /// socket file at the same path is replaced. An unusable store
    /// directory does not fail the bind: the store opens in
    /// memory-only mode and says so in [`Daemon::store_report`].
    ///
    /// # Errors
    ///
    /// An `InvalidInput` I/O error when `queue_cap` is 0, and
    /// [`LabError::InvalidJobs`] (so) when `jobs` is 0 or
    /// [`LabError::Spawn`] (so) when the operating system refuses a
    /// worker thread; otherwise whatever binding the listener raised.
    pub fn bind(config: &DaemonConfig) -> io::Result<Daemon> {
        if config.queue_cap == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "queue_cap must be at least 1 (0 would admit no job)",
            ));
        }
        let mut builder = LabSession::builder().jobs(config.jobs);
        let mut store = None;
        let mut store_report = None;
        if let Some(root) = &config.store {
            let (opened, report) = RecordStore::open(root);
            let opened = Arc::new(opened);
            builder = builder.record_cache(Arc::clone(&opened) as Arc<dyn RecordCache>);
            store = Some(opened);
            store_report = Some(report);
        }
        if let Some(cell) = &config.chaos_panic_cell {
            builder = builder.chaos_panic_cell(cell.clone());
        }
        let session = builder
            .build()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = match &config.listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                ListenerKind::Tcp(l)
            }
            Listen::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                ListenerKind::Unix(l, path.clone())
            }
        };
        Ok(Daemon {
            state: Arc::new(DaemonState {
                session,
                jobs: Mutex::new(JobTable { next: 1, held: BTreeMap::new() }),
                queue_cap: config.queue_cap,
                shutdown: AtomicBool::new(false),
                store,
                idle_timeout: config.idle_timeout,
                queue_full_refusals: AtomicU64::new(0),
                idle_reaped: AtomicU64::new(0),
                started: Instant::now(),
            }),
            listener,
            store_report,
        })
    }

    /// The bound address, printable: the actual TCP address (useful
    /// after binding port 0) or the socket path.
    #[must_use]
    pub fn local_addr(&self) -> String {
        match &self.listener {
            ListenerKind::Tcp(l) => or_unknown(l.local_addr()),
            ListenerKind::Unix(_, path) => path.display().to_string(),
        }
    }

    /// What the boot scan of the record store found (`None` when no
    /// store is configured). The binary logs its summary.
    #[must_use]
    pub fn store_report(&self) -> Option<&StoreReport> {
        self.store_report.as_ref()
    }

    /// Accepts and serves connections until a `shutdown` request
    /// arrives or `external_shutdown` (e.g. a SIGTERM flag) becomes
    /// true, then drains: new submissions are refused and in-flight
    /// jobs run to completion before this returns. Each connection is
    /// served on its own thread.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection errors are contained
    /// to their connection.
    pub fn run(&self, external_shutdown: &AtomicBool) -> io::Result<()> {
        // The listener is non-blocking and polled: `straightd`'s signal
        // handlers restart interrupted syscalls, so a blocking `accept`
        // would not notice `external_shutdown` until the next client.
        let poll = Duration::from_millis(25);
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) || external_shutdown.load(Ordering::SeqCst)
            {
                break;
            }
            let accepted = match &self.listener {
                ListenerKind::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                ListenerKind::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match accepted {
                Ok(conn) => self.spawn_handler(conn),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Graceful drain: stop accepting, let submitted work finish.
        // Admission checks the flag under the job table's lock, so once
        // it is set no job joins the table.
        self.state.shutdown.store(true, Ordering::SeqCst);
        let pending: Vec<_> = self.state.jobs().unfinished().cloned().collect();
        for entry in pending {
            let _ = entry.batch.wait();
        }
        Ok(())
    }

    /// Serves `conn` on a thread of its own. When the operating system
    /// refuses the thread, only this connection is refused: it gets one
    /// `overloaded` error line (best effort) and is closed, and the
    /// accept loop keeps running.
    fn spawn_handler(&self, conn: Conn) {
        // A refused spawn drops the closure and `conn` with it, so the
        // refusal is answered on a second handle.
        let refusal = conn.try_clone();
        let state = Arc::clone(&self.state);
        if let Err(e) = std::thread::Builder::new().spawn(move || serve_connection(conn, &state)) {
            let peer = refusal.as_ref().map_or_else(|_| "unknown".to_string(), Conn::peer_name);
            eprintln!("straightd: refused connection from {peer}: no handler thread ({e})");
            if let Ok(mut refusal) = refusal {
                let response = error_response(
                    "overloaded",
                    format!("the daemon cannot start a handler thread ({e}); retry later"),
                    None,
                );
                let _ = write_json_line(&mut refusal, &response);
            }
        }
    }

    /// A snapshot of the underlying session's cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> straight_core::lab::CacheStats {
        self.state.session.cache_stats()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let ListenerKind::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(io::Error),
    /// A read or write did not complete within the configured
    /// timeout — the daemon is wedged, overloaded, or unreachable.
    Timeout {
        /// The timeout that expired.
        after: Duration,
    },
    /// The server's bytes were not a valid protocol response.
    Protocol(String),
    /// The server answered with a structured error.
    Remote {
        /// The error's `kind` discriminator.
        kind: String,
        /// Human-readable message.
        msg: String,
    },
    /// The retry budget ran out. Terminal: carries the attempt count
    /// and the last underlying failure.
    Exhausted {
        /// Total attempts made (initial try plus retries).
        attempts: u32,
        /// The failure of the final attempt.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "{e}"),
            ClientError::Timeout { after } => {
                write!(f, "request timed out after {after:?} (daemon wedged or unreachable)")
            }
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Remote { kind, msg } => write!(f, "daemon error ({kind}): {msg}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Client-side resilience parameters: connect/read/write timeouts and
/// the bounded-retry budget with exponential backoff plus
/// deterministic jitter.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout (Unix-socket connects are effectively
    /// immediate and ignore this).
    pub connect_timeout: Duration,
    /// Per-read/per-write socket timeout; [`Duration::ZERO`] disables
    /// it (the pre-timeout behavior: block forever on a wedged
    /// daemon).
    pub io_timeout: Duration,
    /// Retries after the first attempt, for transient connect
    /// failures and `queue-full` refusals.
    pub retries: u32,
    /// First backoff delay; doubles each retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed of the jitter sequence. Fixed per client, so chaos tests
    /// replay identical schedules; defaults to the process id to
    /// decorrelate concurrent clients.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(30),
            retries: 4,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: u64::from(std::process::id()),
        }
    }
}

/// The delay before retry number `attempt` (1-based): exponential in
/// the attempt, capped, with deterministic jitter in the upper half
/// of the window (so concurrent clients spread out but a fixed seed
/// replays exactly).
#[must_use]
pub fn backoff_delay(config: &ClientConfig, attempt: u32, rng: &mut SplitMix64) -> Duration {
    let base = config.backoff_base.as_millis() as u64;
    let cap = config.backoff_cap.as_millis() as u64;
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20)).min(cap).max(1);
    let jitter = rng.next_u64() % (exp / 2 + 1);
    Duration::from_millis(exp / 2 + jitter)
}

/// Runs `attempt` until it returns anything but a `retryable` error,
/// sleeping [`backoff_delay`] (jitter seeded with `seed`) before each
/// of at most `config.retries` retries; then [`ClientError::Exhausted`].
/// Returns the outcome and the number of retries made.
fn with_retries<T>(
    config: &ClientConfig,
    seed: u64,
    retryable: fn(&ClientError) -> bool,
    mut attempt: impl FnMut() -> Result<T, ClientError>,
) -> (Result<T, ClientError>, u32) {
    let mut rng = SplitMix64::new(seed);
    let mut tries = 0u32;
    loop {
        tries += 1;
        match attempt() {
            Err(e) if retryable(&e) => {
                if tries > config.retries {
                    let exhausted = ClientError::Exhausted { attempts: tries, last: Box::new(e) };
                    return (Err(exhausted), tries - 1);
                }
                std::thread::sleep(backoff_delay(config, tries, &mut rng));
            }
            outcome => return (outcome, tries - 1),
        }
    }
}

/// Whether a connect failure is worth retrying: the daemon may be
/// restarting (refused / socket file not there yet) or briefly
/// unresponsive (timeout).
fn transient_connect(e: &ClientError) -> bool {
    match e {
        ClientError::Io(io) => {
            is_timeout(io)
                || matches!(
                    io.kind(),
                    io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::NotFound
                        | io::ErrorKind::AddrNotAvailable
                )
        }
        ClientError::Timeout { .. } => true,
        _ => false,
    }
}

/// A blocking protocol client over one connection. This is what
/// `straight-lab --remote` uses; tests drive it directly.
pub struct Client {
    reader: BufReader<Conn>,
    config: ClientConfig,
    retries_used: u64,
    timeouts_seen: u64,
}

impl Client {
    /// Connects to `addr` (a `host:port` or, when it contains `/`, a
    /// Unix-socket path) with default timeouts ([`ClientConfig`]) and
    /// no connect retries.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_once(addr, &ClientConfig::default())
    }

    /// One connect attempt under `config`'s timeouts.
    fn connect_once(addr: &str, config: &ClientConfig) -> io::Result<Client> {
        let conn = match parse_addr(addr) {
            Listen::Tcp(a) => {
                if config.connect_timeout.is_zero() {
                    Conn::Tcp(TcpStream::connect(a.as_str())?)
                } else {
                    let resolved = a.to_socket_addrs()?.next().ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::AddrNotAvailable,
                            format!("`{a}` resolved to no addresses"),
                        )
                    })?;
                    Conn::Tcp(TcpStream::connect_timeout(&resolved, config.connect_timeout)?)
                }
            }
            Listen::Unix(p) => Conn::Unix(UnixStream::connect(p)?),
        };
        if !config.io_timeout.is_zero() {
            conn.set_io_timeouts(Some(config.io_timeout))?;
        }
        Ok(Client {
            reader: BufReader::new(conn),
            config: config.clone(),
            retries_used: 0,
            timeouts_seen: 0,
        })
    }

    /// Connects with `config`'s timeouts, retrying transient failures
    /// (connection refused, socket file not yet created, timeouts)
    /// with exponential backoff and jitter up to the retry budget.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] once the budget runs out; the first
    /// non-transient failure immediately otherwise.
    pub fn connect_with(addr: &str, config: &ClientConfig) -> Result<Client, ClientError> {
        let (outcome, retries) = with_retries(config, config.jitter_seed, transient_connect, || {
            Client::connect_once(addr, config).map_err(ClientError::Io)
        });
        let mut client = outcome?;
        client.retries_used = u64::from(retries);
        Ok(client)
    }

    /// `(retries_used, timeouts_seen)` — how often this client had to
    /// retry (connects and `queue-full` submissions) and how many
    /// reads/writes timed out.
    #[must_use]
    pub fn retry_counters(&self) -> (u64, u64) {
        (self.retries_used, self.timeouts_seen)
    }

    /// Sends one request object and reads one response object.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure, [`ClientError::Protocol`]
    /// when the response is not parseable, [`ClientError::Remote`] when
    /// the daemon answered `"ok": false`.
    pub fn request(&mut self, request: &Json) -> Result<Json, ClientError> {
        let io_timeout = self.config.io_timeout;
        let mut classify = |io: io::Error| {
            if is_timeout(&io) {
                self.timeouts_seen += 1;
                ClientError::Timeout { after: io_timeout }
            } else {
                ClientError::Io(io)
            }
        };
        write_json_line(self.reader.get_mut(), request).map_err(&mut classify)?;
        let line = read_frame(&mut self.reader, MAX_RESPONSE_LINE)
            .map_err(|e| match e {
                FrameError::Io(io) => classify(io),
                FrameError::Oversized { limit } => {
                    ClientError::Protocol(format!("response exceeds {limit} bytes"))
                }
            })?
            .ok_or_else(|| ClientError::Protocol("connection closed mid-request".to_string()))?;
        let text = std::str::from_utf8(&line)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".to_string()))?;
        let response =
            Json::parse(text).map_err(|e| ClientError::Protocol(format!("bad response: {e}")))?;
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(response),
            Some(false) => {
                let error = response.get("error");
                let get = |key: &str| {
                    error
                        .and_then(|e| e.get(key))
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string()
                };
                Err(ClientError::Remote { kind: get("kind"), msg: get("msg") })
            }
            None => Err(ClientError::Protocol("response lacks `ok`".to_string())),
        }
    }

    /// Submits one experiment; returns the job id.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn submit_experiment(
        &mut self,
        id: ExperimentId,
        params: &RunParams,
    ) -> Result<u64, ClientError> {
        let request = obj()
            .field("op", "submit-experiment")
            .field("experiment", &id.to_string())
            .field("params", params)
            .build();
        let response = self.request(&request)?;
        response
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit response lacks `job`".to_string()))
    }

    /// Submits one experiment, retrying `queue-full` refusals with
    /// exponential backoff and jitter up to the configured budget. A
    /// `queue-full` refusal leaves the connection synced (one request,
    /// one structured error response), so retrying on the same
    /// connection is safe.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] once the budget runs out; any other
    /// failure immediately.
    pub fn submit_experiment_with_retry(
        &mut self,
        id: ExperimentId,
        params: &RunParams,
    ) -> Result<u64, ClientError> {
        let config = self.config.clone();
        let seed = config.jitter_seed ^ 0x9e37_79b9_7f4a_7c15;
        let queue_full =
            |e: &ClientError| matches!(e, ClientError::Remote { kind, .. } if kind == "queue-full");
        let (outcome, retries) =
            with_retries(&config, seed, queue_full, || self.submit_experiment(id, params));
        self.retries_used += u64::from(retries);
        outcome
    }

    /// Blocks until the job leaves the queue/run states, through
    /// `wait` requests that each block at most half the io timeout
    /// (so a long job never reads as a wedged daemon). Returns the
    /// terminal state string (`done`, `failed`, or `cancelled`).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn wait_job(&mut self, job: u64) -> Result<String, ClientError> {
        let io_timeout = self.config.io_timeout;
        let block = if io_timeout.is_zero() { MAX_WAIT } else { (io_timeout / 2).min(MAX_WAIT) };
        let request = obj()
            .field("op", "wait")
            .field("job", &job)
            .field("timeout_ms", &(block.as_millis() as u64))
            .build();
        loop {
            let response = self.request(&request)?;
            let state = response
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| ClientError::Protocol("wait lacks `state`".to_string()))?;
            if !matches!(state, "queued" | "running") {
                return Ok(state.to_string());
            }
        }
    }

    /// Fetches a done experiment job's typed result. The daemon then
    /// retires the job: a second fetch gets `expired`.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]; `Protocol` when the payload does not
    /// deserialize as an `ExperimentResult`.
    pub fn fetch_experiment(&mut self, job: u64) -> Result<ExperimentResult, ClientError> {
        self.fetch(job, "result")
    }

    /// Fetches a done cell job's record, retiring the job as
    /// [`Client::fetch_experiment`] does.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]; `Protocol` when the payload does not
    /// deserialize as a `CellRecord`.
    pub fn fetch_cell(&mut self, job: u64) -> Result<CellRecord, ClientError> {
        self.fetch(job, "record")
    }

    /// Fetches a done job and deserializes the response's `field`.
    fn fetch<T: FromJson>(&mut self, job: u64, field: &str) -> Result<T, ClientError> {
        let response = self.request(&obj().field("op", "fetch").field("job", &job).build())?;
        let payload = response
            .get(field)
            .ok_or_else(|| ClientError::Protocol(format!("fetch response lacks `{field}`")))?;
        T::from_json(payload)
            .map_err(|e| ClientError::Protocol(format!("bad {field} payload: {e}")))
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&obj().field("op", "shutdown").build()).map(|_| ())
    }

    /// The daemon's `stats` snapshot (cache counters, job counts).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&obj().field("op", "stats").build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse_by_shape() {
        assert_eq!(parse_addr("127.0.0.1:4155"), Listen::Tcp("127.0.0.1:4155".to_string()));
        assert_eq!(parse_addr("/tmp/d.sock"), Listen::Unix(PathBuf::from("/tmp/d.sock")));
        assert_eq!(parse_addr("./d.sock"), Listen::Unix(PathBuf::from("./d.sock")));
    }

    #[test]
    fn frames_tolerate_fragmentation_and_bound_length() {
        // A reader that yields one byte at a time exercises the
        // partial-read path.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut r = BufReader::with_capacity(1, OneByte(b"{\"op\":\"ping\"}\nrest", 0));
        let frame = read_frame(&mut r, 64).unwrap().unwrap();
        assert_eq!(frame, b"{\"op\":\"ping\"}");
        // Trailing bytes without a newline are a clean EOF, not a frame.
        assert!(read_frame(&mut r, 64).unwrap().is_none());
        // An over-long line errors instead of buffering unboundedly.
        let long = [b'x'; 100];
        let mut r = BufReader::with_capacity(8, &long[..]);
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Oversized { limit: 64 })));
    }
}

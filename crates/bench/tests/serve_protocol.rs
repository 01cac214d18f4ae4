//! Integration tests of the `straightd` wire protocol: framing
//! robustness (partial reads, oversized lines, malformed JSON,
//! mid-job disconnects), the submit/status/wait/fetch lifecycle,
//! backpressure, cross-client deduplication, shutdown/cancel races,
//! idle-connection reaping, and byte-identity of daemon records with
//! in-process records.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::Duration;

use straight_bench::serve::{
    read_frame, Client, ClientConfig, ClientError, Daemon, DaemonConfig, Listen, MAX_REQUEST_LINE,
    RETAINED_JOBS,
};
use straight_core::experiment::{CellKind, CellRecord, ExperimentId, RunParams};
use straight_core::lab::{LabSession, IMAGE_CAPACITY, RUN_CAPACITY};
use straight_json::{Json, ToJson};

/// Tiny parameters so pipeline cells finish quickly in debug builds.
fn tiny_params() -> RunParams {
    RunParams { dhry_iters: 5, cm_iters: 1, ..RunParams::default() }
}

struct TestDaemon {
    addr: String,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestDaemon {
    /// Binds on an ephemeral local port and runs the accept loop on a
    /// background thread.
    fn start(jobs: usize, queue_cap: usize) -> TestDaemon {
        TestDaemon::start_with(jobs, queue_cap, |_| {})
    }

    /// As [`TestDaemon::start`], with a configuration hook for tests
    /// that need a store, idle timeout, or chaos injection.
    fn start_with(
        jobs: usize,
        queue_cap: usize,
        tweak: impl FnOnce(&mut DaemonConfig),
    ) -> TestDaemon {
        let mut config = DaemonConfig::new(Listen::Tcp("127.0.0.1:0".to_string()));
        config.jobs = jobs;
        config.queue_cap = queue_cap;
        tweak(&mut config);
        let daemon = Daemon::bind(&config).expect("bind ephemeral port");
        let addr = daemon.local_addr();
        let handle = std::thread::spawn(move || {
            static NEVER: AtomicBool = AtomicBool::new(false);
            daemon.run(&NEVER)
        });
        TestDaemon { addr, handle: Some(handle) }
    }

    /// Sends `shutdown` and waits for the accept loop to drain out.
    fn stop(mut self) {
        let mut client = Client::connect(&self.addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown accepted");
        self.handle.take().unwrap().join().unwrap().unwrap();
    }
}

/// A raw (non-`Client`) request, for inspecting error payloads and
/// driving the wire directly.
fn raw_request(stream: &mut TcpStream, line: &[u8]) -> Json {
    stream.write_all(line).unwrap();
    stream.flush().unwrap();
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> Json {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let frame = read_frame(&mut reader, 1 << 26).unwrap().expect("server sent a response");
    Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()
}

fn error_kind(response: &Json) -> &str {
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false), "expected an error");
    response.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str).unwrap()
}

#[test]
fn malformed_requests_get_structured_errors_not_disconnects() {
    let daemon = TestDaemon::start(1, 4);
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();

    // Non-JSON bytes.
    let response = raw_request(&mut stream, b"this is not json\n");
    assert_eq!(error_kind(&response), "malformed");

    // JSON without an `op`.
    let response = raw_request(&mut stream, b"{\"job\": 3}\n");
    assert_eq!(error_kind(&response), "malformed");

    // Unknown op; the message names the valid ones.
    let response = raw_request(&mut stream, b"{\"op\": \"frobnicate\"}\n");
    assert_eq!(error_kind(&response), "unknown-op");
    let msg = response.get("error").and_then(|e| e.get("msg")).and_then(Json::as_str).unwrap();
    assert!(msg.contains("submit-experiment") && msg.contains("wait"), "got: {msg}");

    // The connection survived all of the above.
    let response = raw_request(&mut stream, b"{\"op\": \"ping\"}\n");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    daemon.stop();
}

#[test]
fn partial_writes_assemble_into_one_frame() {
    let daemon = TestDaemon::start(1, 4);
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    // One request, dribbled across several writes with pauses: the
    // framing layer must buffer until the newline.
    for chunk in [&b"{\"op\""[..], &b": \"pi"[..], &b"ng\"}"[..], &b"\n"[..]] {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let response = read_response(&mut stream);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("op").and_then(Json::as_str), Some("pong"));
    daemon.stop();
}

#[test]
fn oversized_lines_error_and_close_without_panicking() {
    let daemon = TestDaemon::start(1, 4);
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    // Slightly past the limit: the server answers as soon as the bound
    // is exceeded, so nothing here blocks on full socket buffers.
    let oversized = vec![b'x'; MAX_REQUEST_LINE + 16];
    let _ = stream.write_all(&oversized); // server may close mid-write
    let response = read_response(&mut stream);
    assert_eq!(error_kind(&response), "oversized");
    // The connection is then closed (cannot resync mid-line)…
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    // …but the daemon itself is fine.
    let mut client = Client::connect(&daemon.addr).unwrap();
    client.request(&straight_json::obj().field("op", "ping").build()).unwrap();
    daemon.stop();
}

#[test]
fn unknown_experiment_and_cell_errors_list_valid_ids() {
    let daemon = TestDaemon::start(1, 4);
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();

    let response =
        raw_request(&mut stream, b"{\"op\": \"submit-experiment\", \"experiment\": \"fig99\"}\n");
    assert_eq!(error_kind(&response), "unknown-experiment");
    let valid = response.get("error").and_then(|e| e.get("valid")).unwrap();
    let Json::Arr(valid) = valid else { panic!("`valid` should be an array") };
    let names: Vec<&str> = valid.iter().filter_map(Json::as_str).collect();
    assert_eq!(names.len(), 10);
    assert!(
        names.contains(&"fig11") && names.contains(&"table1") && names.contains(&"sampled")
    );

    let response =
        raw_request(&mut stream, b"{\"op\": \"submit-cell\", \"cell\": \"fig15/Nope/Nope\"}\n");
    assert_eq!(error_kind(&response), "unknown-cell");
    let valid = response.get("error").and_then(|e| e.get("valid")).unwrap();
    let Json::Arr(valid) = valid else { panic!("`valid` should be an array") };
    assert!(!valid.is_empty(), "unknown-cell error lists the experiment's real cells");

    // Unknown job ids are structured too.
    let response = raw_request(&mut stream, b"{\"op\": \"status\", \"job\": 12345}\n");
    assert_eq!(error_kind(&response), "unknown-job");
    daemon.stop();
}

#[test]
fn daemon_records_are_byte_identical_to_in_process_records() {
    let daemon = TestDaemon::start(2, 8);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let params = tiny_params();

    // fig15/fig16 cover the emulator cell kinds, table1 the config
    // kind; all three are fast in debug builds.
    for id in [ExperimentId::Fig15, ExperimentId::Fig16, ExperimentId::Table1] {
        let job = client.submit_experiment(id, &params).unwrap();
        assert_eq!(client.wait_job(job).unwrap(), "done");
        let remote = client.fetch_experiment(job).unwrap();

        let session = LabSession::builder().jobs(2).build().unwrap();
        let local = session.run_experiment(id, params).unwrap();

        // Byte-identical after normalization (wall times necessarily
        // differ between the two runs).
        assert_eq!(
            remote.normalized().to_json().render_pretty(),
            local.result.normalized().to_json().render_pretty(),
            "{id}: daemon and in-process records diverged"
        );
        // And the daemon result renders to the same paper-shaped text.
        assert_eq!(id.spec().render(&remote).unwrap(), local.rendered);
    }
    daemon.stop();
}

fn job_request(op: &str, job: u64) -> Vec<u8> {
    format!("{{\"op\": \"{op}\", \"job\": {job}}}\n").into_bytes()
}

fn remote_kind<T: std::fmt::Debug>(result: Result<T, ClientError>) -> String {
    match result {
        Err(ClientError::Remote { kind, .. }) => kind,
        other => panic!("expected a structured error, got {other:?}"),
    }
}

#[test]
fn a_fetched_job_retires_and_later_requests_for_it_expire() {
    let daemon = TestDaemon::start(1, 4);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let job = client.submit_experiment(ExperimentId::Table1, &tiny_params()).unwrap();
    assert_eq!(client.wait_job(job).unwrap(), "done");
    assert_eq!(client.fetch_experiment(job).unwrap().experiment, "table1");

    // The first fetch retired the job: every op naming it now expires,
    // while ids never issued stay unknown.
    assert_eq!(remote_kind(client.fetch_experiment(job)), "expired");
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    for op in ["status", "wait", "fetch", "cancel"] {
        assert_eq!(error_kind(&raw_request(&mut stream, &job_request(op, job))), "expired", "{op}");
        for never in [0, 12345] {
            let response = raw_request(&mut stream, &job_request(op, never));
            assert_eq!(error_kind(&response), "unknown-job", "{op} {never}");
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("jobs_held").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("jobs_submitted").and_then(Json::as_u64), Some(1));
    daemon.stop();
}

#[test]
fn unfetched_finished_jobs_are_capped_oldest_first() {
    let daemon = TestDaemon::start(1, 1);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let cell = ExperimentId::Table1.spec().cells()[0].id();
    let request = straight_json::obj().field("op", "submit-cell").field("cell", &cell).build();
    let jobs: Vec<u64> = (0..RETAINED_JOBS + 8)
        .map(|_| {
            let job = client.request(&request).unwrap().get("job").and_then(Json::as_u64).unwrap();
            assert_eq!(client.wait_job(job).unwrap(), "done");
            job
        })
        .collect();
    let held = |client: &mut Client| {
        client.stats().unwrap().get("jobs_held").and_then(Json::as_u64).unwrap()
    };
    assert_eq!(held(&mut client), RETAINED_JOBS as u64);

    for &job in &jobs[..8] {
        assert_eq!(remote_kind(client.fetch_cell(job)), "expired", "job {job}");
    }
    for &job in &jobs[8..] {
        assert_eq!(client.fetch_cell(job).unwrap().id, cell, "job {job}");
    }
    assert_eq!(held(&mut client), 0);
    daemon.stop();
}

#[test]
fn a_daemon_serving_many_iteration_counts_holds_a_bounded_image_cache() {
    let store = std::env::temp_dir().join(format!("straight-serve-images-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let daemon = TestDaemon::start_with(2, 8, |config| config.store = Some(store.clone()));
    let mut client = Client::connect(&daemon.addr).unwrap();
    let session = LabSession::builder().jobs(2).build().unwrap();

    // Every fig16 request builds a Dhrystone image at a count no
    // earlier request used, one more than the cache can hold.
    for dhry_iters in 1..=IMAGE_CAPACITY as u32 + 1 {
        let params = RunParams { dhry_iters, cm_iters: 1, ..RunParams::default() };
        let job = client.submit_experiment(ExperimentId::Fig16, &params).unwrap();
        assert_eq!(client.wait_job(job).unwrap(), "done");
        let remote = client.fetch_experiment(job).unwrap();
        let local = session.run_experiment(ExperimentId::Fig16, params).unwrap();
        assert_eq!(
            remote.normalized().to_json().render_pretty(),
            local.result.normalized().to_json().render_pretty(),
            "dhry_iters {dhry_iters}: daemon and in-process records diverged"
        );
    }

    let stats = client.stats().unwrap();
    let cache = stats.get("cache").expect("stats carries cache counters");
    let held = cache.get("images_held").and_then(Json::as_u64).expect("images_held");
    let misses = cache.get("image_misses").and_then(Json::as_u64).unwrap();
    assert!(held <= IMAGE_CAPACITY as u64, "{held} images held");
    // Each Dhrystone count and the one CoreMark image, built once.
    assert_eq!(misses, IMAGE_CAPACITY as u64 + 2);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn two_clients_submitting_the_same_cell_share_one_simulation() {
    let daemon = TestDaemon::start(2, 8);
    // A cycle-accurate cell, so the run cache (not just the image
    // cache) is exercised.
    let cell = ExperimentId::Fig17
        .spec()
        .cells()
        .into_iter()
        .find(|c| matches!(c.kind, CellKind::Pipeline { .. }))
        .expect("fig17 has pipeline cells");
    let request = straight_json::obj()
        .field("op", "submit-cell")
        .field("cell", &cell.id())
        .field("params", &tiny_params())
        .build();

    let mut a = Client::connect(&daemon.addr).unwrap();
    let mut b = Client::connect(&daemon.addr).unwrap();
    let job_a = a.request(&request).unwrap().get("job").and_then(Json::as_u64).unwrap();
    let job_b = b.request(&request).unwrap().get("job").and_then(Json::as_u64).unwrap();
    assert_ne!(job_a, job_b, "jobs are distinct even when the work is shared");

    assert_eq!(a.wait_job(job_a).unwrap(), "done");
    assert_eq!(b.wait_job(job_b).unwrap(), "done");
    let rec_a = a.fetch_cell(job_a).unwrap();
    let rec_b = b.fetch_cell(job_b).unwrap();
    assert_eq!(rec_a.cycles, rec_b.cycles);
    assert_eq!(rec_a.stdout_digest, rec_b.stdout_digest);
    assert_eq!(rec_a.config_fingerprint, rec_b.config_fingerprint);

    // The dedup is observable: two lookups of the run cache, at most
    // one miss.
    let stats = a.stats().unwrap();
    let cache = stats.get("cache").expect("stats carries cache counters");
    let lookups = cache.get("run_lookups").and_then(Json::as_u64).unwrap();
    let hits = cache.get("run_hits").and_then(Json::as_u64).unwrap();
    assert!(lookups >= 2, "expected both submissions to consult the run cache, got {lookups}");
    assert!(hits >= 1, "expected at least one run-cache hit, got {hits} (lookups {lookups})");
    daemon.stop();
}

#[test]
fn disconnecting_mid_job_does_not_kill_the_job() {
    let daemon = TestDaemon::start(1, 4);
    let job = {
        // Submit and immediately drop the connection.
        let mut ephemeral = Client::connect(&daemon.addr).unwrap();
        ephemeral.submit_experiment(ExperimentId::Table1, &tiny_params()).unwrap()
    };
    // A different connection can watch the same job to completion.
    let mut client = Client::connect(&daemon.addr).unwrap();
    assert_eq!(client.wait_job(job).unwrap(), "done");
    let result = client.fetch_experiment(job).unwrap();
    assert_eq!(result.experiment, "table1");
    daemon.stop();
}

#[test]
fn full_queue_pushes_back_with_a_structured_error() {
    // One worker and a queue bound of 1: while the first job occupies
    // the daemon, a second submission must be refused, not buffered
    // without limit.
    let daemon = TestDaemon::start(1, 1);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let first = client
        .submit_experiment(ExperimentId::Fig17, &RunParams { dhry_iters: 50, cm_iters: 1, ..RunParams::default() })
        .unwrap();
    let refused = client.submit_experiment(ExperimentId::Table1, &tiny_params());
    match refused {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "queue-full"),
        other => panic!("expected queue-full, got {other:?}"),
    }
    // Cancel drains the first job's pending cells quickly; the slot
    // frees up and the next submission is admitted.
    client.request(&straight_json::obj().field("op", "cancel").field("job", &first).build()).unwrap();
    let state = client.wait_job(first).unwrap();
    assert!(state == "cancelled" || state == "failed" || state == "done", "got {state}");
    let second = client.submit_experiment(ExperimentId::Table1, &tiny_params()).unwrap();
    assert_eq!(client.wait_job(second).unwrap(), "done");
    daemon.stop();
}

#[test]
fn concurrent_submissions_never_overshoot_the_queue_bound() {
    // One worker and a queue bound of 2; eight clients submit a slow
    // job at once. Admission must count and insert under one lock, so
    // exactly two get in however the submissions interleave.
    let daemon = TestDaemon::start(1, 2);
    // Slow enough that no admitted job finishes before `stats` reads.
    let slow = RunParams { dhry_iters: 500, cm_iters: 1, ..RunParams::default() };
    let start = std::sync::Arc::new(std::sync::Barrier::new(8));
    let submitters: Vec<_> = (0..8)
        .map(|_| {
            let mut client = Client::connect(&daemon.addr).unwrap();
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                client.submit_experiment(ExperimentId::Fig17, &slow)
            })
        })
        .collect();
    let outcomes: Vec<_> = submitters.into_iter().map(|s| s.join().unwrap()).collect();
    let admitted: Vec<u64> = outcomes.iter().filter_map(|o| o.as_ref().ok().copied()).collect();
    assert_eq!(admitted.len(), 2, "admitted {admitted:?}");
    for refused in outcomes.into_iter().filter(Result::is_err) {
        assert_eq!(remote_kind(refused), "queue-full");
    }

    let mut client = Client::connect(&daemon.addr).unwrap();
    let stats = client.stats().unwrap();
    let get = |key: &str| stats.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(get("jobs_active"), 2);
    assert_eq!(get("jobs_submitted"), 2);
    assert_eq!(get("queue_full_refusals"), 6);
    for &job in &admitted {
        client.request(&straight_json::obj().field("op", "cancel").field("job", &job).build()).unwrap();
    }
    daemon.stop();
}

#[test]
fn a_zero_queue_bound_is_refused_like_zero_workers() {
    let mut config = DaemonConfig::new(Listen::Tcp("127.0.0.1:0".to_string()));
    config.jobs = 1;
    config.queue_cap = 0;
    let refused = Daemon::bind(&config).err().expect("queue_cap 0 must be refused, not clamped");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    assert!(refused.to_string().contains("queue_cap"), "{refused}");
    config.queue_cap = 1;
    config.jobs = 0;
    let refused = Daemon::bind(&config).err().expect("jobs 0 must be refused");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn shutdown_with_queued_jobs_drains_them_to_terminal_states() {
    // One worker, several queued jobs, then a shutdown from another
    // connection: the drain must run every queued job to a terminal
    // state — nothing may sit in `queued` forever — and the accept
    // loop must only return after that.
    let mut daemon = TestDaemon::start(1, 8);
    let mut submitter = Client::connect(&daemon.addr).unwrap();
    let jobs: Vec<u64> = (0..3)
        .map(|_| submitter.submit_experiment(ExperimentId::Table1, &tiny_params()).unwrap())
        .collect();

    let mut other = Client::connect(&daemon.addr).unwrap();
    other.shutdown().expect("shutdown accepted");
    // Draining refuses new submissions with a structured error.
    match other.submit_experiment(ExperimentId::Table1, &tiny_params()) {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "shutting-down"),
        other => panic!("expected shutting-down, got {other:?}"),
    }

    // The already-open connection can watch the queued jobs finish.
    for job in jobs {
        assert_eq!(submitter.wait_job(job).unwrap(), "done", "job {job} left in queue");
    }
    daemon.handle.take().unwrap().join().unwrap().unwrap();
}

#[test]
fn stats_stay_consistent_after_cancellation() {
    let daemon = TestDaemon::start(1, 4);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let slow = RunParams { dhry_iters: 50, cm_iters: 1, ..RunParams::default() };
    let cancelled = client.submit_experiment(ExperimentId::Fig17, &slow).unwrap();
    client
        .request(&straight_json::obj().field("op", "cancel").field("job", &cancelled).build())
        .unwrap();
    let state = client.wait_job(cancelled).unwrap();
    assert!(state == "cancelled" || state == "done", "got {state}");

    let finished = client.submit_experiment(ExperimentId::Table1, &tiny_params()).unwrap();
    assert_eq!(client.wait_job(finished).unwrap(), "done");

    // The daemon can answer within its first millisecond; after a
    // known pause its uptime must cover at least that pause.
    let pause = Duration::from_millis(5);
    std::thread::sleep(pause);
    let stats = client.stats().unwrap();
    let get = |key: &str| stats.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(get("jobs_submitted"), 2, "cancelled jobs still count as submitted");
    assert_eq!(get("jobs_active"), 0, "cancellation must not leak an active job");
    assert_eq!(get("jobs_held"), 2, "finished jobs stay until fetched");
    assert_eq!(get("worker_panics"), 0);
    assert!(matches!(stats.get("store"), Some(Json::Null) | None), "no store configured");
    assert!(get("uptime_ms") >= pause.as_millis() as u64, "uptime {}", get("uptime_ms"));
    daemon.stop();
}

#[test]
fn idle_connections_are_reaped_with_a_structured_goodbye() {
    let daemon =
        TestDaemon::start_with(1, 4, |c| c.idle_timeout = Some(Duration::from_millis(100)));
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    // Say nothing. The daemon must reap us, not pin a handler thread.
    std::thread::sleep(Duration::from_millis(400));
    let response = read_response(&mut stream);
    assert_eq!(error_kind(&response), "idle-timeout");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection closes after the goodbye");

    // The reap is counted, and fresh connections still work.
    let mut client = Client::connect(&daemon.addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.get("idle_reaped").and_then(Json::as_u64).unwrap() >= 1);
    daemon.stop();
}

#[test]
fn queue_full_submissions_retry_until_admitted() {
    let daemon = TestDaemon::start(1, 1);
    let addr = daemon.addr.clone();
    let config = ClientConfig {
        io_timeout: Duration::from_secs(60),
        retries: 15,
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_millis(500),
        jitter_seed: 7,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(&daemon.addr, &config).unwrap();
    let slow = RunParams { dhry_iters: 50, cm_iters: 1, ..RunParams::default() };
    let occupant = client.submit_experiment(ExperimentId::Fig17, &slow).unwrap();

    // Free the slot shortly, from another connection.
    let canceller = std::thread::spawn(move || {
        let mut c = Client::connect(&addr).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        c.request(&straight_json::obj().field("op", "cancel").field("job", &occupant).build())
            .unwrap();
        c.wait_job(occupant).unwrap();
    });

    // The retrying submit rides out the queue-full refusals.
    let job = client.submit_experiment_with_retry(ExperimentId::Table1, &tiny_params()).unwrap();
    assert_eq!(client.wait_job(job).unwrap(), "done");
    let (retries, timeouts) = client.retry_counters();
    assert!(retries >= 1, "the first submit must have been refused at least once");
    assert_eq!(timeouts, 0);
    canceller.join().unwrap();
    daemon.stop();
}

#[test]
fn wedged_server_surfaces_a_timeout_not_a_hang() {
    // A listener that accepts and then never answers: the client's
    // io timeout must turn the stalled read into a typed error.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_millis(800));
        drop(stream);
    });
    let config = ClientConfig {
        io_timeout: Duration::from_millis(100),
        retries: 0,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(&addr, &config).unwrap();
    match client.request(&straight_json::obj().field("op", "ping").build()) {
        Err(ClientError::Timeout { after }) => assert_eq!(after, Duration::from_millis(100)),
        other => panic!("expected a timeout, got {other:?}"),
    }
    let (_, timeouts) = client.retry_counters();
    assert_eq!(timeouts, 1);
    hold.join().unwrap();
}

#[test]
fn connect_retries_exhaust_into_a_terminal_error() {
    // Nothing listens here; connects are refused immediately.
    let free = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = free.local_addr().unwrap().to_string();
    drop(free);
    let config = ClientConfig {
        retries: 2,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(20),
        jitter_seed: 3,
        ..ClientConfig::default()
    };
    match Client::connect_with(&addr, &config) {
        Err(ClientError::Exhausted { attempts, last }) => {
            assert_eq!(attempts, 3, "initial try plus two retries");
            assert!(matches!(*last, ClientError::Io(_)));
        }
        other => panic!("expected exhaustion, got {:?}", other.map(|_| "a client")),
    }
}

#[test]
fn fetch_before_completion_is_a_not_done_error() {
    let daemon = TestDaemon::start(1, 4);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let job = client
        .submit_experiment(ExperimentId::Fig17, &RunParams { dhry_iters: 50, cm_iters: 1, ..RunParams::default() })
        .unwrap();
    // Immediately fetching is (overwhelmingly likely) premature; if
    // the machine is so fast the job already finished, a successful
    // fetch is also correct — only a hang or panic would be a bug.
    // A successful fetch retires the job, so only a `not-done` answer
    // leaves it to wait for.
    match client.fetch_experiment(job) {
        Err(ClientError::Remote { kind, .. }) => {
            assert_eq!(kind, "not-done");
            client.wait_job(job).unwrap();
        }
        Ok(_) => {}
        Err(other) => panic!("unexpected failure: {other}"),
    }
    daemon.stop();
}

fn wait_request(job: u64, timeout_ms: u64) -> Vec<u8> {
    format!("{{\"op\": \"wait\", \"job\": {job}, \"timeout_ms\": {timeout_ms}}}\n").into_bytes()
}

fn state_of(response: &Json) -> &str {
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "{}", response.render());
    response.get("state").and_then(Json::as_str).unwrap()
}

#[test]
fn wait_blocks_until_done_without_polling_status() {
    let daemon = TestDaemon::start(1, 4);
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    // An emulator cell: it builds and runs a workload, so it is
    // usually still running when the first `wait` arrives.
    let cell = ExperimentId::Fig15.spec().cells()[0].id();
    let request = straight_json::obj()
        .field("op", "submit-cell")
        .field("cell", &cell)
        .field("params", &tiny_params())
        .build();
    let submitted = raw_request(&mut stream, format!("{}\n", request.render()).as_bytes());
    let job = submitted.get("job").and_then(Json::as_u64).unwrap();
    // No status, and (the daemon clamps each wait to a second) only
    // as many waits as the cell takes seconds: a wait that answered
    // without blocking would take hundreds.
    let mut waits = 0;
    let response = loop {
        waits += 1;
        let response = raw_request(&mut stream, &wait_request(job, 60_000));
        if !matches!(state_of(&response), "queued" | "running") {
            break response;
        }
    };
    assert!(waits <= 30, "{waits} waits for one quick cell");
    assert_eq!(state_of(&response), "done");
    assert_eq!(response.get("job").and_then(Json::as_u64), Some(job));
    assert_eq!(response.get("done_cells").and_then(Json::as_u64), Some(1));
    assert_eq!(response.get("total_cells").and_then(Json::as_u64), Some(1));
    daemon.stop();
}

#[test]
fn wait_honours_a_small_timeout_on_a_long_job() {
    let daemon = TestDaemon::start(1, 4);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let slow = RunParams { dhry_iters: 50, cm_iters: 1, ..RunParams::default() };
    // The occupant's six default-scale simulations hold the single
    // worker for far longer than the wait, so the job under test
    // cannot even start before the wait times out.
    let occupant = client.submit_experiment(ExperimentId::Fig11, &RunParams::default()).unwrap();
    let job = client.submit_experiment(ExperimentId::Fig17, &slow).unwrap();
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    let started = std::time::Instant::now();
    let response = raw_request(&mut stream, &wait_request(job, 20));
    assert_eq!(state_of(&response), "queued");
    assert!(started.elapsed() < Duration::from_secs(5), "wait overstayed its timeout");
    for id in [job, occupant] {
        let cancel = straight_json::obj().field("op", "cancel").field("job", &id).build();
        client.request(&cancel).unwrap();
    }
    client.wait_job(job).unwrap();
    client.wait_job(occupant).unwrap();
    daemon.stop();
}

#[test]
fn wait_errors_match_status_errors() {
    let daemon = TestDaemon::start(1, 4);
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    for op in ["status", "wait"] {
        let response = raw_request(
            &mut stream,
            format!("{{\"op\": \"{op}\", \"job\": 12345}}\n").as_bytes(),
        );
        assert_eq!(error_kind(&response), "unknown-job", "{op}");
        let response = raw_request(&mut stream, format!("{{\"op\": \"{op}\"}}\n").as_bytes());
        assert_eq!(error_kind(&response), "malformed", "{op}");
    }
    let response =
        raw_request(&mut stream, b"{\"op\": \"wait\", \"job\": 1, \"timeout_ms\": \"soon\"}\n");
    assert_eq!(error_kind(&response), "malformed");
    daemon.stop();
}

#[test]
fn wait_returns_cancelled_for_a_cancelled_job() {
    let daemon = TestDaemon::start(1, 4);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let slow = RunParams { dhry_iters: 50, cm_iters: 1, ..RunParams::default() };
    // The occupant holds the single worker, so the second job is
    // still queued when it is cancelled and never executes a cell.
    let occupant = client.submit_experiment(ExperimentId::Fig17, &slow).unwrap();
    let job = client.submit_experiment(ExperimentId::Fig17, &slow).unwrap();
    client.request(&straight_json::obj().field("op", "cancel").field("job", &job).build()).unwrap();
    client.request(&straight_json::obj().field("op", "cancel").field("job", &occupant).build()).unwrap();
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    let state = loop {
        let response = raw_request(&mut stream, &wait_request(job, 1_000));
        match state_of(&response) {
            "queued" | "running" => continue,
            terminal => break terminal.to_string(),
        }
    };
    assert_eq!(state, "cancelled");
    assert_eq!(client.wait_job(job).unwrap(), "cancelled");
    // A cancelled job's fetch is a failure, and it retires the job.
    assert_eq!(remote_kind(client.fetch_experiment(job)), "job-failed");
    assert_eq!(remote_kind(client.fetch_experiment(job)), "expired");
    client.wait_job(occupant).unwrap();
    daemon.stop();
}

#[test]
fn admission_tracks_only_unfinished_jobs() {
    // A queue bound of 1 admits an unbounded sequence of jobs as long
    // as each finishes before the next submit.
    let daemon = TestDaemon::start(1, 1);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let cell = ExperimentId::Table1.spec().cells()[0].id();
    let request = straight_json::obj().field("op", "submit-cell").field("cell", &cell).build();
    for _ in 0..50 {
        let job = client.request(&request).unwrap().get("job").and_then(Json::as_u64).unwrap();
        assert_eq!(client.wait_job(job).unwrap(), "done");
    }
    let stats = client.stats().unwrap();
    let get = |key: &str| stats.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(get("jobs_submitted"), 50);
    assert_eq!(get("jobs_active"), 0);
    assert_eq!(get("queue_full_refusals"), 0);
    daemon.stop();
}

/// A cell record without its run-dependent timing fields, as text.
fn normalized(record: CellRecord) -> String {
    let record =
        CellRecord { wall_ms: 0.0, sim_wall_ms: None, ksim_cycles_per_sec: None, ..record };
    record.to_json().render_pretty()
}

#[test]
fn a_store_backed_daemon_holds_a_bounded_run_cache_and_reloads_evicted_records() {
    let store = std::env::temp_dir().join(format!("straight-serve-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let daemon = TestDaemon::start_with(2, 8, |config| config.store = Some(store.clone()));
    let mut client = Client::connect(&daemon.addr).unwrap();
    let session = LabSession::builder().jobs(2).build().unwrap();
    let cell = ExperimentId::Fig17
        .spec()
        .cells()
        .into_iter()
        .find(|c| c.label == "SS")
        .expect("fig17 has an SS cell");
    let params = |dhry_iters| RunParams { dhry_iters, cm_iters: 1, ..RunParams::default() };
    let remote = |client: &mut Client, dhry_iters| {
        let request = straight_json::obj()
            .field("op", "submit-cell")
            .field("cell", &cell.id())
            .field("params", &params(dhry_iters))
            .build();
        let job = client.request(&request).unwrap().get("job").and_then(Json::as_u64).unwrap();
        assert_eq!(client.wait_job(job).unwrap(), "done");
        normalized(client.fetch_cell(job).unwrap())
    };
    let stat = |client: &mut Client, section: &str, key: &str| {
        let stats = client.stats().unwrap();
        stats.get(section).and_then(|s| s.get(key)).and_then(Json::as_u64).expect(key)
    };

    // Every request is a cold cell at a Dhrystone count no earlier one
    // used, eight more than the run cache holds.
    let mut first = String::new();
    for dhry_iters in 1..=RUN_CAPACITY as u32 + 8 {
        let served = remote(&mut client, dhry_iters);
        let local = session.submit(vec![cell.clone()], params(dhry_iters)).wait().remove(0);
        assert_eq!(served, normalized(local.unwrap()), "dhry_iters {dhry_iters}");
        if dhry_iters == 1 {
            first = served;
        }
    }
    let held = stat(&mut client, "cache", "runs_held");
    assert!(held <= RUN_CAPACITY as u64, "{held} run records held");
    let simulated = stat(&mut client, "cache", "run_misses");
    assert_eq!(simulated, RUN_CAPACITY as u64 + 8);

    // The first count was evicted: the store serves it again without a
    // simulation.
    let hits = stat(&mut client, "store", "hits");
    assert_eq!(remote(&mut client, 1), first);
    assert_eq!(stat(&mut client, "store", "hits"), hits + 1, "an evicted record is a store hit");
    assert_eq!(stat(&mut client, "cache", "run_misses"), simulated, "and is not simulated again");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&store);
}

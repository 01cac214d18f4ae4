//! Chaos harness for the serving tier: seeded fault injection against
//! the crash-safe record store and a real `straightd` process.
//!
//! Everything here is deterministic under fixed seeds (`SplitMix64`):
//! corruption sites, injected panics, and retry jitter replay exactly.
//! The invariants exercised:
//!
//! * a SIGKILL mid-run never leaves a torn record that a later boot
//!   will serve — the scan either loads a fully valid entry or
//!   quarantines it;
//! * quarantine counts match the number of injected corruptions, and
//!   corrupt entries are moved aside (for post-mortems), never served
//!   and never silently deleted;
//! * a restarted daemon answers the same submission with
//!   byte-identical normalized records, from the store, without
//!   re-simulating;
//! * an entry corrupted after boot is quarantined on lookup, never
//!   served, and rewritten from a fresh simulation;
//! * an unusable store root degrades to memory-only mode and the
//!   session keeps serving;
//! * an injected worker panic surfaces as a structured job failure
//!   and the daemon keeps running jobs afterwards.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use straight_bench::serve::{Client, ClientConfig, Daemon, DaemonConfig, Listen};
use straight_bench::store::{decode_entry, encode_entry, RecordStore};
use straight_core::experiment::{CellKind, ExperimentId, RunParams};
use straight_core::lab::{LabSession, RecordCache};
use straight_isa::rng::SplitMix64;
use straight_json::{Json, ToJson};

/// Fixed chaos seed; change it and the whole fault schedule changes
/// reproducibly.
const CHAOS_SEED: u64 = 0x5742_4943_4841_4f53; // "WBICHAOS"

fn tiny_params() -> RunParams {
    RunParams { dhry_iters: 5, cm_iters: 1, ..RunParams::default() }
}

/// A per-test scratch directory under the system temp dir.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("straight-chaos-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The committed entry files of a store, sorted for determinism.
fn entry_files(store_root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store_root)
        .unwrap()
        .flatten()
        .filter(|e| e.path().is_dir() && e.file_name().to_string_lossy().starts_with('v'))
        .flat_map(|dir| std::fs::read_dir(dir.path()).unwrap().flatten())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rec"))
        .collect();
    files.sort();
    files
}

/// Applies one seeded corruption to a committed entry. The four modes
/// cover the failure classes the footer must catch: truncation inside
/// the payload, a single flipped bit, wholesale garbage, and a footer
/// torn by one byte.
fn corrupt(path: &Path, mode: u64, rng: &mut SplitMix64) {
    let mut bytes = std::fs::read(path).unwrap();
    match mode % 4 {
        0 => bytes.truncate(bytes.len() / 2),
        1 => {
            let i = (rng.next_u64() % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << (rng.next_u64() % 8);
        }
        2 => {
            for b in &mut bytes {
                *b = (rng.next_u64() & 0xff) as u8;
            }
        }
        _ => bytes.truncate(bytes.len() - 1),
    }
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn seeded_corruption_quarantines_exactly_the_injected_entries() {
    let root = scratch("quarantine");

    // Populate the store through a real session: fig17's pipeline
    // cells write entries as they complete.
    {
        let (store, report) = RecordStore::open(&root);
        assert_eq!(report.loaded, 0);
        let session = LabSession::builder()
            .jobs(2)
            .record_cache(Arc::new(store) as Arc<dyn RecordCache>)
            .build()
            .unwrap();
        session.run_experiment(ExperimentId::Fig17, tiny_params()).unwrap();
    }

    let files = entry_files(&root);
    assert!(!files.is_empty(), "the run must have persisted pipeline records");
    let fingerprints: Vec<String> =
        files.iter().map(|p| p.file_stem().unwrap().to_string_lossy().into_owned()).collect();

    // A clean reopen loads everything back.
    let (clean, report) = RecordStore::open(&root);
    assert_eq!(report.loaded, files.len());
    assert!(report.quarantined.is_empty());
    for fp in &fingerprints {
        assert!(clean.get(fp).is_some(), "clean boot must serve {fp}");
    }
    drop(clean);

    // Inject: corrupt every entry (seeded mode per file), plus one
    // torn temp file and one alien file.
    let mut rng = SplitMix64::new(CHAOS_SEED);
    for (i, file) in files.iter().enumerate() {
        corrupt(file, i as u64, &mut rng);
    }
    let entries_dir = files[0].parent().unwrap();
    std::fs::write(entries_dir.join("0123456789abcdef.tmp"), b"torn mid-write").unwrap();
    std::fs::write(entries_dir.join("README.txt"), b"i do not belong here").unwrap();

    let (store, report) = RecordStore::open(&root);
    assert_eq!(report.loaded, 0, "no corrupt entry may load");
    assert_eq!(
        report.quarantined.len(),
        files.len() + 1,
        "every corruption plus the alien file is quarantined: {:?}",
        report.quarantined
    );
    assert_eq!(report.removed_temps, 1);
    assert_eq!(store.stats().quarantined, (files.len() + 1) as u64);
    for fp in &fingerprints {
        assert!(store.get(fp).is_none(), "torn record {fp} must never be served");
    }
    // Quarantined bytes are moved aside, not deleted.
    let held = std::fs::read_dir(root.join("quarantine")).unwrap().flatten().count();
    assert_eq!(held, files.len() + 1);
    // The entries directory is clean again: nothing but directories
    // may remain, and a fresh write round-trips.
    assert!(entry_files(&root).is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_single_bit_flip_is_caught_by_the_footer() {
    let root = scratch("bitflip");
    {
        let (store, _) = RecordStore::open(&root);
        let session = LabSession::builder()
            .jobs(2)
            .record_cache(Arc::new(store) as Arc<dyn RecordCache>)
            .build()
            .unwrap();
        session.run_experiment(ExperimentId::Fig17, tiny_params()).unwrap();
    }
    let files = entry_files(&root);
    let fingerprint = files[0].file_stem().unwrap().to_string_lossy().into_owned();
    let (reopened, _) = RecordStore::open(&root);
    let record = reopened.get(&fingerprint).unwrap();

    let bytes = encode_entry(&record);
    assert_eq!(decode_entry(&bytes, &fingerprint).unwrap().cycles, record.cycles);

    // 256 seeded single-bit flips across the entry, payload and footer
    // alike: every one must be rejected, none may decode to anything.
    let mut rng = SplitMix64::new(CHAOS_SEED ^ 1);
    for _ in 0..256 {
        let mut flipped = bytes.clone();
        let i = (rng.next_u64() % flipped.len() as u64) as usize;
        flipped[i] ^= 1 << (rng.next_u64() % 8);
        assert!(
            decode_entry(&flipped, &fingerprint).is_err(),
            "bit flip at byte {i} went undetected"
        );
    }
    // Seeded truncations too.
    for _ in 0..64 {
        let keep = (rng.next_u64() % bytes.len() as u64) as usize;
        assert!(decode_entry(&bytes[..keep], &fingerprint).is_err());
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_entry_corrupted_after_boot_is_quarantined_resimulated_and_rewritten() {
    let root = scratch("after-boot");
    let run = |cache: Option<Arc<RecordStore>>| {
        let mut builder = LabSession::builder().jobs(2);
        if let Some(cache) = cache {
            builder = builder.record_cache(cache as Arc<dyn RecordCache>);
        }
        let run = builder.build().unwrap().run_experiment(ExperimentId::Fig17, tiny_params());
        run.unwrap().result.normalized().to_json().render_pretty()
    };
    let in_process = run(None);
    let _ = run(Some(Arc::new(RecordStore::open(&root).0)));
    let files = entry_files(&root);

    // The boot scan validates every entry; the corruption comes after.
    let (store, report) = RecordStore::open(&root);
    assert_eq!(report.loaded, files.len());
    let mut bytes = std::fs::read(&files[0]).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&files[0], bytes).unwrap();

    let store = Arc::new(store);
    assert_eq!(run(Some(Arc::clone(&store))), in_process, "a corrupt entry was served");
    let stats = store.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.writes, 1, "the re-simulated record is written anew");
    assert_eq!(stats.entries, files.len() as u64);
    assert_eq!(std::fs::read_dir(root.join("quarantine")).unwrap().count(), 1);

    let (reopened, report) = RecordStore::open(&root);
    assert_eq!(report.loaded, files.len(), "the next boot loads the rewritten entry");
    assert!(report.quarantined.is_empty());
    let fingerprint = files[0].file_stem().unwrap().to_string_lossy();
    assert!(reopened.get(&fingerprint).is_some());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unusable_store_root_degrades_to_memory_only_and_keeps_serving() {
    // The root is a regular file, so the store cannot create its
    // directories — even running as root, this fails structurally.
    let dir = scratch("degrade");
    let root = dir.join("not-a-directory");
    std::fs::write(&root, b"occupied").unwrap();

    let (store, report) = RecordStore::open(&root);
    assert!(report.memory_only.is_some(), "report must carry the degradation reason");
    assert!(store.stats().memory_only);
    assert!(report.summary().contains("MEMORY-ONLY"));

    // The degraded store still serves through a full session run.
    let store = Arc::new(store);
    let session = LabSession::builder()
        .jobs(2)
        .record_cache(Arc::clone(&store) as Arc<dyn RecordCache>)
        .build()
        .unwrap();
    let first = session.run_experiment(ExperimentId::Fig17, tiny_params()).unwrap();
    // The session's run cache still remembers what the store cannot.
    let simulated = session.cache_stats().run_misses;
    let second = session.run_experiment(ExperimentId::Fig17, tiny_params()).unwrap();
    assert_eq!(session.cache_stats().run_misses, simulated, "the rerun must not re-simulate");
    assert_eq!(
        first.result.normalized().to_json().render_pretty(),
        second.result.normalized().to_json().render_pretty()
    );
    let stats = store.stats();
    assert_eq!(stats.writes, 0, "nothing may touch the unusable path");
    assert!(stats.memory_only);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns a real `straightd` on a Unix socket with a store, fixed git
/// revision, and quiet output.
fn spawn_daemon(sock: &Path, store: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_straightd"))
        .arg("--listen")
        .arg(sock)
        .arg("--store")
        .arg(store)
        .arg("--jobs")
        .arg("2")
        .env("STRAIGHT_GIT_REV", "chaos-fixed")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn straightd")
}

/// Connects with a generous deterministic retry schedule (the socket
/// file appears only once the daemon is up).
fn connect(sock: &Path) -> Client {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(120),
        retries: 60,
        backoff_base: Duration::from_millis(25),
        backoff_cap: Duration::from_millis(200),
        jitter_seed: CHAOS_SEED,
    };
    Client::connect_with(&sock.to_string_lossy(), &config).expect("daemon came up")
}

fn store_stat(stats: &Json, key: &str) -> u64 {
    stats.get("store").and_then(|s| s.get(key)).and_then(Json::as_u64).expect(key)
}

#[test]
fn sigkill_mid_run_then_restart_serves_byte_identical_records_from_the_store() {
    let dir = scratch("sigkill");
    let sock = dir.join("d.sock");
    let store = dir.join("store");

    // Phase 1: start, submit real work, SIGKILL mid-run. Some entries
    // may have committed, some may be mid-write — both must be safe.
    let mut victim = spawn_daemon(&sock, &store);
    {
        let mut client = connect(&sock);
        let slow = RunParams { dhry_iters: 100, cm_iters: 1, ..RunParams::default() };
        client.submit_experiment(ExperimentId::Fig17, &slow).unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    victim.kill().unwrap();
    victim.wait().unwrap();

    // Phase 2: restart over the same store. The boot scan must accept
    // the directory (no torn record survives as live), and the rerun
    // completes.
    let mut second = spawn_daemon(&sock, &store);
    let normalized_b;
    {
        let mut client = connect(&sock);
        let stats = client.stats().unwrap();
        assert_eq!(store_stat(&stats, "quarantined"), 0, "a SIGKILL must not produce torn records");
        let job = client.submit_experiment_with_retry(ExperimentId::Fig17, &tiny_params()).unwrap();
        assert_eq!(client.wait_job(job).unwrap(), "done");
        let result = client.fetch_experiment(job).unwrap();
        normalized_b = result.normalized().to_json().render_pretty();
        let stats = client.stats().unwrap();
        assert!(store_stat(&stats, "entries") > 0, "completed cells must persist");
    }
    second.kill().unwrap();
    second.wait().unwrap();

    // Phase 3: warm restart. The same submission is answered from the
    // store — byte-identical after normalization — without
    // re-simulating the pipeline cells.
    let mut third = spawn_daemon(&sock, &store);
    {
        let mut client = connect(&sock);
        let boot = client.stats().unwrap();
        assert!(store_stat(&boot, "entries") > 0, "warm boot reloads the store");
        assert_eq!(store_stat(&boot, "quarantined"), 0);
        let job = client.submit_experiment_with_retry(ExperimentId::Fig17, &tiny_params()).unwrap();
        assert_eq!(client.wait_job(job).unwrap(), "done");
        let result = client.fetch_experiment(job).unwrap();
        assert_eq!(
            result.normalized().to_json().render_pretty(),
            normalized_b,
            "restart changed the records"
        );
        let after = client.stats().unwrap();
        assert!(store_stat(&after, "hits") > 0, "the rerun must be served from the store");
        let cache = after.get("cache").unwrap();
        assert_eq!(
            cache.get("run_misses").and_then(Json::as_u64),
            Some(0),
            "store hits must fill the run cache without simulating, i.e. no re-simulation"
        );
        client.shutdown().unwrap();
    }
    assert!(third.wait().unwrap().success(), "graceful drain after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panic_fails_the_job_and_the_daemon_keeps_serving() {
    let victim_cell = ExperimentId::Fig17
        .spec()
        .cells()
        .into_iter()
        .find(|c| matches!(c.kind, CellKind::Pipeline { .. }))
        .expect("fig17 has pipeline cells")
        .id();

    let mut config = DaemonConfig::new(Listen::Tcp("127.0.0.1:0".to_string()));
    config.jobs = 1;
    config.chaos_panic_cell = Some(victim_cell.clone());
    let daemon = Daemon::bind(&config).unwrap();
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || {
        static NEVER: AtomicBool = AtomicBool::new(false);
        daemon.run(&NEVER)
    });

    let mut client = Client::connect(&addr).unwrap();
    let request = straight_json::obj()
        .field("op", "submit-cell")
        .field("cell", &victim_cell)
        .field("params", &tiny_params())
        .build();
    let job = client.request(&request).unwrap().get("job").and_then(Json::as_u64).unwrap();
    assert_eq!(client.wait_job(job).unwrap(), "failed", "the panic is a terminal job state");
    match client.fetch_cell(job) {
        Err(straight_bench::serve::ClientError::Remote { kind, msg }) => {
            assert_eq!(kind, "job-failed");
            assert!(msg.contains("panicked"), "failure names the panic: {msg}");
        }
        other => panic!("expected a structured job failure, got {other:?}"),
    }

    // The worker pool survived: an untouched experiment still runs.
    let next = client.submit_experiment(ExperimentId::Table1, &tiny_params()).unwrap();
    assert_eq!(client.wait_job(next).unwrap(), "done");
    let stats = client.stats().unwrap();
    assert!(stats.get("worker_panics").and_then(Json::as_u64).unwrap() >= 1);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

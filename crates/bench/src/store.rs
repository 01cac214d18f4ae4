//! A crash-safe, content-addressed on-disk store of completed cell
//! records — what makes a `straightd` restart cheap.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   v<schema>/             one directory per record schema version
//!     <fingerprint>.rec    payload (record JSON) + 16-byte footer
//!     <fingerprint>.tmp    in-flight write (removed on boot)
//!   quarantine/            entries that failed validation on boot
//! ```
//!
//! Entries are keyed by configuration fingerprint (see
//! `CellSpec::fingerprint`): everything that determines a pipeline
//! cell's numbers is hashed into the key, so a record is valid for
//! any cell sharing the fingerprint, at any time, under the same
//! schema version. Bumping [`SCHEMA_VERSION`] isolates old entries in
//! their own directory rather than misreading them.
//!
//! ## Durability discipline
//!
//! Writes go to a temp file, are fsynced, and are atomically renamed
//! into place — a SIGKILL (or power cut) mid-write leaves either the
//! old state or a `.tmp` leftover, never a half-visible entry. Every
//! entry ends in a footer recording the payload length and an FNV-1a
//! checksum; on boot the store scans its directory, validates every
//! entry end to end (footer, checksum, JSON shape, fingerprint match),
//! and moves everything else into `quarantine/` with a structured
//! [`StoreReport`] — a corrupt or truncated entry is never served and
//! never silently deleted.
//! [`RecordCache::get`] reads and validates an entry again by the same
//! rule: the store keeps no records in memory (the session's run cache
//! does), and an entry corrupted after boot is quarantined, not served.
//!
//! ## Degradation
//!
//! The store is infallible at its API boundary: if the directory
//! cannot be created, or a write fails mid-run (disk full, permission
//! flip), it logs one structured warning and degrades to memory-only
//! mode — the daemon keeps serving, it just stops persisting, and
//! remembers only what its run cache holds. The flip is observable
//! through [`StoreStats::memory_only`].

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use straight_core::experiment::{CellRecord, SCHEMA_VERSION};
use straight_core::lab::RecordCache;
use straight_json::{fnv1a64, obj, FromJson, Json, ToJson};

/// Bytes of the fixed-size entry footer: payload length (u64 LE)
/// followed by the payload's FNV-1a checksum (u64 LE).
pub const FOOTER_LEN: usize = 16;

/// File extension of a committed entry.
const ENTRY_EXT: &str = "rec";
/// File extension of an in-flight (not yet renamed) write.
const TMP_EXT: &str = "tmp";

/// One entry the store refused to serve, and why.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// File name of the rejected entry (now under `quarantine/`).
    pub file: String,
    /// Human-readable rejection reason ("checksum mismatch", ...).
    pub reason: String,
}

/// What [`RecordStore::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct StoreReport {
    /// Entries that validated.
    pub loaded: usize,
    /// Entries that failed validation and were quarantined.
    pub quarantined: Vec<Quarantined>,
    /// Leftover `.tmp` files (torn writes) that were removed.
    pub removed_temps: usize,
    /// When `Some`, the store opened in memory-only mode and the
    /// reason why (unwritable directory).
    pub memory_only: Option<String>,
}

impl StoreReport {
    /// One-line summary for daemon boot logs.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} record(s) loaded, {} quarantined, {} torn temp file(s) removed",
            self.loaded,
            self.quarantined.len(),
            self.removed_temps
        );
        if let Some(reason) = &self.memory_only {
            out.push_str(&format!("; MEMORY-ONLY ({reason})"));
        }
        out
    }
}

/// A snapshot of the store's counters, reported through the daemon's
/// `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries on disk now.
    pub entries: u64,
    /// Entries quarantined, by the boot scan or by a lookup that found
    /// the entry corrupt.
    pub quarantined: u64,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries durably written since boot.
    pub writes: u64,
    /// Writes that failed (each one flips the store to memory-only).
    pub write_failures: u64,
    /// Whether the store is in memory-only (degraded) mode.
    pub memory_only: bool,
}

impl ToJson for StoreStats {
    fn to_json(&self) -> Json {
        obj()
            .field("entries", &self.entries)
            .field("quarantined", &self.quarantined)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("writes", &self.writes)
            .field("write_failures", &self.write_failures)
            .field("memory_only", &self.memory_only)
            .build()
    }
}

/// The store proper. See the module docs for layout and guarantees.
pub struct RecordStore {
    entries_dir: PathBuf,
    quarantine_dir: PathBuf,
    memory_only: AtomicBool,
    quarantined: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_failures: AtomicU64,
}

/// Encodes one entry: record JSON followed by the length + checksum
/// footer.
#[must_use]
pub fn encode_entry(record: &CellRecord) -> Vec<u8> {
    let payload = record.to_json().render().into_bytes();
    let mut out = payload;
    let len = out.len() as u64;
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes and fully validates one entry read from disk.
///
/// # Errors
///
/// A human-readable reason (the quarantine report's `reason` field)
/// when the bytes are truncated, torn, corrupt, unparseable, or carry
/// a record whose fingerprint does not match its file name.
pub fn decode_entry(bytes: &[u8], expected_fingerprint: &str) -> Result<CellRecord, String> {
    if bytes.len() < FOOTER_LEN {
        return Err(format!("truncated: {} bytes is shorter than the footer", bytes.len()));
    }
    let (payload, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    let mut len = [0u8; 8];
    let mut checksum = [0u8; 8];
    len.copy_from_slice(&footer[..8]);
    checksum.copy_from_slice(&footer[8..]);
    let len = u64::from_le_bytes(len);
    let checksum = u64::from_le_bytes(checksum);
    if len != payload.len() as u64 {
        return Err(format!("torn write: footer says {len} payload bytes, file has {}", payload.len()));
    }
    if fnv1a64(payload) != checksum {
        return Err("checksum mismatch".to_string());
    }
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let parsed = Json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    let record =
        CellRecord::from_json(&parsed).map_err(|e| format!("payload is not a cell record: {e}"))?;
    if record.config_fingerprint != expected_fingerprint {
        return Err(format!(
            "fingerprint mismatch: file {expected_fingerprint}, record {}",
            record.config_fingerprint
        ));
    }
    Ok(record)
}

impl RecordStore {
    /// Opens (or creates) a store rooted at `root`, scanning and
    /// validating every existing entry. Never fails: an unusable
    /// directory yields a memory-only store, with the reason in the
    /// report.
    #[must_use]
    pub fn open(root: &Path) -> (RecordStore, StoreReport) {
        let entries_dir = root.join(format!("v{SCHEMA_VERSION}"));
        let quarantine_dir = root.join("quarantine");
        let store = RecordStore {
            entries_dir: entries_dir.clone(),
            quarantine_dir: quarantine_dir.clone(),
            memory_only: AtomicBool::new(false),
            quarantined: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        };
        let mut report = StoreReport::default();
        for dir in [&entries_dir, &quarantine_dir] {
            if let Err(e) = std::fs::create_dir_all(dir) {
                let reason = format!("cannot create {}: {e}", dir.display());
                store.degrade(&reason);
                report.memory_only = Some(reason);
                return (store, report);
            }
        }
        store.scan(&mut report);
        (store, report)
    }

    /// Validates every entry; quarantines the rest.
    fn scan(&self, report: &mut StoreReport) {
        let entries = match std::fs::read_dir(&self.entries_dir) {
            Ok(entries) => entries,
            Err(e) => {
                let reason = format!("cannot scan {}: {e}", self.entries_dir.display());
                self.degrade(&reason);
                report.memory_only = Some(reason);
                return;
            }
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let ext = path.extension().map(|s| s.to_string_lossy().into_owned());
            if ext.as_deref() == Some(TMP_EXT) {
                // A write the previous process never committed; the
                // rename never happened, so nothing references it.
                let _ = std::fs::remove_file(&path);
                report.removed_temps += 1;
                continue;
            }
            let checked = match (ext.as_deref(), path.file_stem()) {
                (Some(ENTRY_EXT), Some(stem)) => self.check(&path, &stem.to_string_lossy()),
                _ => {
                    self.quarantine(&path);
                    Err(format!("unrecognized file `{name}` in store directory"))
                }
            };
            match checked {
                Ok(_) => report.loaded += 1,
                Err(reason) => report.quarantined.push(Quarantined { file: name, reason }),
            }
        }
    }

    /// Reads and validates the entry at `path`, quarantining it when it
    /// is unreadable or invalid.
    fn check(&self, path: &Path, fingerprint: &str) -> Result<CellRecord, String> {
        let checked = std::fs::read(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|bytes| decode_entry(&bytes, fingerprint));
        if checked.is_err() {
            self.quarantine(path);
        }
        checked
    }

    /// Moves a rejected entry aside (never deletes it: the bytes may
    /// matter for a post-mortem) and counts it. Name collisions get a
    /// numeric suffix.
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let mut target = self.quarantine_dir.join(&*name);
        let mut attempt = 1;
        while target.exists() {
            target = self.quarantine_dir.join(format!("{name}.{attempt}"));
            attempt += 1;
        }
        if std::fs::rename(path, &target).is_err() {
            // Cross-device or permission failure: removing is the
            // only way to guarantee the corrupt entry is never
            // rescanned as live.
            let _ = std::fs::remove_file(path);
        }
    }

    /// Flips to memory-only mode, logging the structured warning once.
    fn degrade(&self, reason: &str) {
        if !self.memory_only.swap(true, Ordering::SeqCst) {
            eprintln!("straightd: record store degraded to memory-only mode: {reason}");
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: std::fs::read_dir(&self.entries_dir).map_or(0, |dir| {
                dir.flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == ENTRY_EXT))
                    .count() as u64
            }),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            memory_only: self.memory_only.load(Ordering::SeqCst),
        }
    }

    fn entry_path(&self, fingerprint: &str) -> PathBuf {
        self.entries_dir.join(format!("{fingerprint}.{ENTRY_EXT}"))
    }

    /// Writes one entry durably: temp file, fsync, atomic rename,
    /// directory fsync (best effort).
    fn write_entry(&self, fingerprint: &str, record: &CellRecord) -> std::io::Result<()> {
        let tmp = self.entries_dir.join(format!("{fingerprint}.{TMP_EXT}"));
        let committed = self.entry_path(fingerprint);
        let bytes = encode_entry(record);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, &committed)?;
        if let Ok(dir) = std::fs::File::open(&self.entries_dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

impl RecordCache for RecordStore {
    /// A missing entry is a miss, and so is one that fails validation
    /// and is quarantined: the cell simulates again and puts it anew.
    fn get(&self, fingerprint: &str) -> Option<CellRecord> {
        let path = self.entry_path(fingerprint);
        let found = path.is_file().then(|| self.check(&path, fingerprint)).and_then(Result::ok);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn put(&self, fingerprint: &str, record: &CellRecord) {
        if self.memory_only.load(Ordering::SeqCst) || self.entry_path(fingerprint).exists() {
            return;
        }
        match self.write_entry(fingerprint, record) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                self.degrade(&format!("writing {}: {e}", self.entry_path(fingerprint).display()));
            }
        }
    }
}

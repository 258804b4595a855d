//! `shatter-store` — a durable, content-addressed result journal for
//! crash-safe fleet evaluation.
//!
//! A [`Journal`] is a directory of independent per-record files. Each
//! record is keyed by a caller-chosen content address (fleet runs use
//! `HouseFixture::cache_key()`-derived keys) and written via the only
//! crash-safe primitive POSIX gives us: write to a unique temp file in
//! the same directory, then `rename` onto the final name. A `kill -9`
//! at any instant therefore leaves either no record or a complete one —
//! except for hardware-level torn writes, which the per-record FNV-1a
//! checksum catches on open. Damaged or foreign records are counted,
//! deleted and recomputed; they are never trusted.
//!
//! Record file format (`r{fnv1a(key):016x}.rec`):
//!
//! ```text
//! SHATTERJ1 {config_sig:016x} {payload_len} {payload_fnv:016x}\n
//! {key}\n
//! {payload bytes}
//! ```
//!
//! `config_sig` binds every record to the run configuration that
//! produced it (fleet size, days, span, seed, budget ...), so a journal
//! can never replay rows into a run with different parameters. The
//! companion [`write_manifest`]/[`read_manifest`] pair persists those
//! parameters in human-readable `key=value` form (also via tmp+rename)
//! so `repro --resume <dir>` can reconstruct the exact original
//! configuration from the directory alone.
//!
//! Writes consult the `store.write` fault-injection site
//! (`shatter-faults`): an injected `io` fault simulates a torn write
//! (truncated record bytes at the final path — exactly what the
//! checksum must catch), an injected `panic` simulates a process crash
//! mid-fleet.
//!
//! The same record format, reused with magic `SHATTERB1` and lazy
//! per-read validation, backs the [`BlobStore`] — the disk tier under
//! the engine's `FixtureCache` (see [`blob`]). Typed payloads travel
//! through the explicit [`wire`] codec via the [`Blob`] trait, and
//! every content address in the workspace uses the single FNV-1a
//! implementation in [`fnv`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use shatter_faults::FaultKind;

pub mod blob;
pub mod fnv;
pub mod wire;

pub use blob::{Blob, BlobStats, BlobStore};
pub use fnv::{fnv1a_bytes, fnv1a_str};

/// Magic tag opening every journal record file; the trailing `1` is
/// the format version.
const MAGIC: &str = "SHATTERJ1";

/// Name of the run-manifest file inside a journal directory.
pub const MANIFEST_NAME: &str = "manifest.txt";

/// Counters describing a journal's life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Valid records loaded when the journal was opened.
    pub loaded: u64,
    /// Damaged / foreign / stale records discarded (and deleted) on open.
    pub discarded: u64,
    /// `get` calls served from the journal since open.
    pub hits: u64,
    /// Records durably written since open.
    pub writes: u64,
    /// Writes torn by an injected `io` fault (the bytes hit the final
    /// path truncated, to be discarded by the next open).
    pub torn: u64,
}

/// An open append-only journal of `key -> payload` records under one
/// configuration signature. Internally synchronized: parallel fleet
/// workers share one journal through `&Journal`.
pub struct Journal {
    dir: PathBuf,
    config_sig: u64,
    records: Mutex<HashMap<String, Vec<u8>>>,
    loaded: u64,
    discarded: u64,
    hits: AtomicU64,
    writes: AtomicU64,
    torn: AtomicU64,
}

impl Journal {
    /// Opens (creating if needed) the journal at `dir`, validating every
    /// existing record against the format, its checksum and
    /// `config_sig`. Damaged, foreign or differently-configured records
    /// are deleted and counted in [`JournalStats::discarded`]; stale
    /// temp files from a crashed writer are removed silently.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or scanning the directory.
    pub fn open(dir: &Path, config_sig: u64) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let mut records = HashMap::new();
        let mut loaded = 0u64;
        let mut discarded = 0u64;
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        // Deterministic scan order (discard counts must not depend on
        // directory iteration order).
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".tmp") {
                // A writer died between create and rename; the final
                // name was never linked, so this is pure garbage.
                fs::remove_file(&path).ok();
                continue;
            }
            if !name.starts_with('r') || !name.ends_with(".rec") {
                continue;
            }
            match parse_record(&path, MAGIC, config_sig, record_file_name) {
                Some((key, payload)) => {
                    records.insert(key, payload);
                    loaded += 1;
                }
                None => {
                    discarded += 1;
                    fs::remove_file(&path).ok();
                }
            }
        }
        Ok(Journal {
            dir: dir.to_path_buf(),
            config_sig,
            records: Mutex::new(records),
            loaded,
            discarded,
            hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            torn: AtomicU64::new(0),
        })
    }

    /// Directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Configuration signature the journal is bound to.
    pub fn config_sig(&self) -> u64 {
        self.config_sig
    }

    /// Number of records currently held (loaded + written).
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload recorded for `key`, if a valid record survived.
    /// Counts a journal hit when found.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let found = self
            .records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Durably records `payload` under `key`: full bytes to a unique
    /// temp file, `sync_all`, then an atomic rename onto
    /// `r{fnv1a(key):016x}.rec`. Re-putting a key overwrites its record.
    ///
    /// Fault site `store.write` (consulted before any bytes move):
    /// `panic` unwinds here (a reproducible mid-fleet crash), `io`
    /// simulates a torn write — truncated record bytes are placed at the
    /// *final* path, which the next [`Journal::open`] must discard. The
    /// torn record is not served by this journal instance either.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write, sync or rename.
    pub fn put(&self, key: &str, payload: &[u8]) -> io::Result<()> {
        let bytes = encode_record(MAGIC, self.config_sig, key, payload);
        if write_record(&self.dir, &record_file_name(key), &bytes, 'w', &self.torn)? {
            self.records
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key.to_string(), payload.to_vec());
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Writes the run manifest (`key=value` lines) into the journal
    /// directory via tmp+rename.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write or rename.
    pub fn write_manifest(&self, entries: &[(String, String)]) -> io::Result<()> {
        let mut body = String::new();
        for (k, v) in entries {
            body.push_str(&format!("{k}={v}\n"));
        }
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(MANIFEST_NAME))
    }

    /// Current counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            loaded: self.loaded,
            discarded: self.discarded,
            hits: self.hits.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
        }
    }
}

/// File name addressing `key`'s record.
fn record_file_name(key: &str) -> String {
    format!("r{:016x}.rec", fnv1a_bytes(key.as_bytes()))
}

/// Serializes one record (shared by [`Journal`] and [`BlobStore`];
/// the magic distinguishes the two on disk).
pub(crate) fn encode_record(magic: &str, config_sig: u64, key: &str, payload: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{magic} {config_sig:016x} {} {:016x}\n{key}\n",
        payload.len(),
        fnv1a_bytes(payload)
    )
    .into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

/// Durably writes one encoded record as `dir/name`: full bytes to a
/// unique temp file `{tmp_prefix}{pid}-{n:x}.tmp` in the same
/// directory, `sync_all`, then an atomic rename onto the final name.
/// Returns whether the record landed intact (shared by [`Journal`] and
/// [`BlobStore`]).
///
/// Fault site `store.write` (consulted before any bytes move): `panic`
/// unwinds here (a reproducible mid-run crash), `io` simulates a torn
/// write — half the record lands at the final path with no rename
/// barrier, the worst case a real crash plus reordered writeback can
/// produce — and counts it in `torn`. The store has no solver budget to
/// exhaust; the other kinds just skip the write (a lost record,
/// recomputed later).
pub(crate) fn write_record(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    tmp_prefix: char,
    torn: &AtomicU64,
) -> io::Result<bool> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let final_path = dir.join(name);
    match shatter_faults::hit("store.write") {
        Some(FaultKind::Panic) => shatter_faults::panic_now("store.write"),
        Some(FaultKind::Io) => {
            fs::write(&final_path, &bytes[..bytes.len() / 2])?;
            torn.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        Some(FaultKind::Overflow) | Some(FaultKind::Budget) => return Ok(false),
        None => {}
    }
    let tmp = dir.join(format!(
        "{tmp_prefix}{}-{:x}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &final_path)?;
    Ok(true)
}

/// Validates and decodes one record file; `None` means damaged /
/// foreign / differently-configured (caller discards).
pub(crate) fn parse_record(
    path: &Path,
    magic: &str,
    config_sig: u64,
    file_name_for: fn(&str) -> String,
) -> Option<(String, Vec<u8>)> {
    let bytes = fs::read(path).ok()?;
    let header_end = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..header_end]).ok()?;
    let mut parts = header.split(' ');
    if parts.next()? != magic {
        return None;
    }
    let sig = u64::from_str_radix(parts.next()?, 16).ok()?;
    if sig != config_sig {
        return None;
    }
    let payload_len: usize = parts.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    let rest = &bytes[header_end + 1..];
    let key_end = rest.iter().position(|&b| b == b'\n')?;
    let key = std::str::from_utf8(&rest[..key_end]).ok()?.to_string();
    let payload = &rest[key_end + 1..];
    // Exact length: a truncated *or* over-long payload is damage.
    if payload.len() != payload_len || fnv1a_bytes(payload) != checksum {
        return None;
    }
    // The file must sit at its key's content address (a copied or
    // renamed record is foreign).
    if path.file_name().and_then(|n| n.to_str()) != Some(file_name_for(&key).as_str()) {
        return None;
    }
    Some((key, payload.to_vec()))
}

/// Reads a journal directory's manifest back as ordered `(key, value)`
/// pairs.
///
/// # Errors
///
/// Returns the underlying I/O error (e.g. no manifest — not a resumable
/// journal).
pub fn read_manifest(dir: &Path) -> io::Result<Vec<(String, String)>> {
    let body = fs::read_to_string(dir.join(MANIFEST_NAME))?;
    Ok(body
        .lines()
        .filter_map(|line| {
            let (k, v) = line.split_once('=')?;
            Some((k.to_string(), v.to_string()))
        })
        .collect())
}

/// Convenience over [`read_manifest`] output: the value at `key`.
pub fn manifest_value<'a>(entries: &'a [(String, String)], key: &str) -> Option<&'a str> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shatter-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let j = Journal::open(&dir, 7).unwrap();
            j.put("house/a", b"1\t2\t3").unwrap();
            j.put("house/b", b"x").unwrap();
            assert_eq!(j.stats().writes, 2);
            assert_eq!(j.get("house/a").as_deref(), Some(b"1\t2\t3".as_slice()));
            assert_eq!(j.stats().hits, 1);
        }
        let j = Journal::open(&dir, 7).unwrap();
        assert_eq!(j.stats().loaded, 2);
        assert_eq!(j.stats().discarded, 0);
        assert_eq!(j.get("house/b").as_deref(), Some(b"x".as_slice()));
        assert_eq!(j.get("house/missing"), None);
        assert_eq!(j.stats().hits, 1, "a miss is not a hit");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reput_overwrites() {
        let dir = tmp_dir("overwrite");
        let j = Journal::open(&dir, 1).unwrap();
        j.put("k", b"old").unwrap();
        j.put("k", b"new").unwrap();
        assert_eq!(j.len(), 1);
        let j2 = Journal::open(&dir, 1).unwrap();
        assert_eq!(j2.get("k").as_deref(), Some(b"new".as_slice()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_record_is_discarded_on_open() {
        let dir = tmp_dir("truncate");
        {
            let j = Journal::open(&dir, 3).unwrap();
            j.put("keep", b"payload-that-survives").unwrap();
            j.put("torn", b"payload-that-gets-torn").unwrap();
        }
        // Tear the second record mid-payload, as a crashed writeback
        // would.
        let torn_path = dir.join(record_file_name("torn"));
        let bytes = fs::read(&torn_path).unwrap();
        fs::write(&torn_path, &bytes[..bytes.len() - 7]).unwrap();
        let j = Journal::open(&dir, 3).unwrap();
        let stats = j.stats();
        assert_eq!((stats.loaded, stats.discarded), (1, 1));
        assert_eq!(
            j.get("keep").as_deref(),
            Some(b"payload-that-survives".as_slice())
        );
        assert_eq!(j.get("torn"), None);
        assert!(!torn_path.exists(), "damaged record must be deleted");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_checksum_byte_is_discarded_on_open() {
        let dir = tmp_dir("checksum");
        {
            let j = Journal::open(&dir, 3).unwrap();
            j.put("bitrot", b"payload").unwrap();
        }
        let path = dir.join(record_file_name("bitrot"));
        let mut bytes = fs::read(&path).unwrap();
        // Flip one byte inside the checksum field of the header.
        let cksum_pos = MAGIC.len() + 1 + 16 + 1 + 1 + 1 + 3;
        bytes[cksum_pos] = if bytes[cksum_pos] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&dir, 3).unwrap();
        assert_eq!(j.stats().discarded, 1);
        assert_eq!(j.get("bitrot"), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_config_sig_is_discarded() {
        let dir = tmp_dir("config-sig");
        {
            let j = Journal::open(&dir, 1).unwrap();
            j.put("k", b"v").unwrap();
        }
        let j = Journal::open(&dir, 2).unwrap();
        assert_eq!(j.stats().loaded, 0);
        assert_eq!(j.stats().discarded, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_files_are_cleaned_up() {
        let dir = tmp_dir("stale-tmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("w123-0.tmp"), b"half a reco").unwrap();
        let j = Journal::open(&dir, 1).unwrap();
        let stats = j.stats();
        assert_eq!((stats.loaded, stats.discarded), (0, 0));
        assert!(!dir.join("w123-0.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrip() {
        let dir = tmp_dir("manifest");
        let j = Journal::open(&dir, 9).unwrap();
        j.write_manifest(&[
            ("fleet".into(), "8".into()),
            ("days".into(), "3".into()),
            ("config_sig".into(), format!("{:016x}", 9u64)),
        ])
        .unwrap();
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(manifest_value(&entries, "fleet"), Some("8"));
        assert_eq!(manifest_value(&entries, "days"), Some("3"));
        assert_eq!(manifest_value(&entries, "missing"), None);
        assert!(read_manifest(&tmp_dir("manifest-none")).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_io_fault_tears_the_write() {
        shatter_faults::install_str("store-io-test/store.write/io").unwrap();
        let dir = tmp_dir("io-fault");
        let j = Journal::open(&dir, 5).unwrap();
        shatter_faults::with_scenario("store-io-test", || {
            j.put("victim", b"this payload will be torn").unwrap();
            j.put("clean", b"this one lands intact").unwrap();
        });
        let stats = j.stats();
        assert_eq!((stats.torn, stats.writes), (1, 1));
        // The torn record was never trusted in memory either.
        assert_eq!(j.get("victim"), None);
        let j2 = Journal::open(&dir, 5).unwrap();
        assert_eq!(j2.stats().discarded, 1, "torn record discarded on open");
        assert_eq!(j2.stats().loaded, 1);
        assert_eq!(
            j2.get("clean").as_deref(),
            Some(b"this one lands intact".as_slice())
        );
        fs::remove_dir_all(&dir).ok();
    }
}

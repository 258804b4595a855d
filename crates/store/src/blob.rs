//! Content-addressed blob store: the disk tier under `FixtureCache`.
//!
//! A [`BlobStore`] reuses the journal's record format (magic
//! `SHATTERB1`, FNV-checksummed header, tmp+`rename` writes, torn
//! records discarded) but with lazy per-`get` validation instead of a
//! load-everything open: blobs are large (serialized month datasets,
//! reward tables) and a warm run only touches the ones its keys ask
//! for. A damaged, foreign or stale blob is deleted, counted in
//! [`BlobStats::discarded`] and reported as a miss — the caller
//! recomputes; cached bytes are never trusted past their checksum.
//!
//! Reads consult the `store.read` fault-injection site: an injected
//! `io` fault makes the stored blob unreadable (exercising the
//! discard-and-recompute path), `panic` simulates a crash inside the
//! read. Writes consult `store.write` with the same semantics as the
//! journal (`io` = torn write at the final path).
//!
//! Typed payloads implement [`Blob`]: a version-tagged envelope over
//! the [`crate::wire`] codec. `from_blob` rejects wrong tags and
//! trailing bytes, so type confusion between keys decodes to `None`
//! (a miss), never to a wrong value.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use shatter_faults::FaultKind;

use crate::fnv::fnv1a_str;
use crate::wire::{Reader, Writer};
use crate::{encode_record, parse_record, write_record};

/// Magic tag opening every blob file; trailing `1` is the format
/// version. Distinct from the journal's `SHATTERJ1` so the two record
/// kinds can never masquerade as each other.
pub(crate) const BLOB_MAGIC: &str = "SHATTERB1";

/// A type that can round-trip through the blob store.
///
/// Implementations live next to the type they serialize (private
/// fields stay private); the envelope written by [`Blob::to_blob`]
/// leads with [`Blob::TAG`], which must change whenever the encoding
/// changes — a stale-format blob then decodes to `None` and is simply
/// recomputed.
pub trait Blob: Sized {
    /// Type-and-version tag, e.g. `"dataset/1"`.
    const TAG: &'static str;

    /// Appends the payload encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one payload; `None` on any damage or version skew.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;

    /// Serializes as a tagged envelope.
    fn to_blob(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(Self::TAG);
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Deserializes a tagged envelope; rejects wrong tags and
    /// trailing bytes.
    fn from_blob(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.str()? != Self::TAG {
            return None;
        }
        let v = Self::decode(&mut r)?;
        r.finished().then_some(v)
    }
}

/// `Vec<f64>` travels bit-exactly (benign day-cost curves).
impl Blob for Vec<f64> {
    const TAG: &'static str = "vec-f64/1";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for &v in self {
            w.f64(v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.f64()?);
        }
        Some(out)
    }
}

/// Counters describing a blob store's life since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlobStats {
    /// `get` calls issued.
    pub gets: u64,
    /// `get` calls served by a valid on-disk blob.
    pub hits: u64,
    /// Blobs durably written.
    pub writes: u64,
    /// Damaged / foreign / stale blobs deleted on read.
    pub discarded: u64,
    /// Writes torn by an injected `io` fault.
    pub torn: u64,
}

/// An open content-addressed blob directory bound to one schema
/// signature. Internally synchronized; share through `&BlobStore`.
pub struct BlobStore {
    dir: PathBuf,
    schema_sig: u64,
    gets: AtomicU64,
    hits: AtomicU64,
    writes: AtomicU64,
    discarded: AtomicU64,
    torn: AtomicU64,
}

impl BlobStore {
    /// Opens (creating if needed) the store at `dir`. Stale temp files
    /// from a crashed writer are removed; record files are *not* read
    /// here — each is validated lazily on its first [`BlobStore::get`].
    ///
    /// `schema_sig` binds every blob to the serialization schema that
    /// produced it; bump the schema string it hashes whenever an
    /// encoding changes incompatibly.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or scanning the directory.
    pub fn open(dir: &Path, schema_sig: u64) -> io::Result<BlobStore> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|x| x == "tmp") {
                fs::remove_file(&path).ok();
            }
        }
        Ok(BlobStore {
            dir: dir.to_path_buf(),
            schema_sig,
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            torn: AtomicU64::new(0),
        })
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Schema signature the store is bound to.
    pub fn schema_sig(&self) -> u64 {
        self.schema_sig
    }

    /// The payload stored for `key`, if a valid blob exists on disk.
    ///
    /// Fault site `store.read`: `panic` unwinds here; `io` makes the
    /// stored blob unreadable — it is deleted and counted discarded,
    /// exactly like real corruption, so the caller recomputes. Any
    /// blob failing validation (checksum, schema signature, stored
    /// key, content address) is likewise deleted, counted and
    /// reported as a miss.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let bytes = self.read(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(bytes)
    }

    /// Decoded read: the value `decode` makes of `key`'s payload, and
    /// the payload's size (callers charge it against their RAM
    /// budget). A blob whose bytes survive the checksum but fail
    /// `decode` (version skew, type confusion, a shape check) is
    /// deleted, counted discarded and reported as a miss, not a hit.
    pub fn get_decoded<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<(T, usize)> {
        let bytes = self.read(key)?;
        let Some(v) = decode(&bytes) else {
            self.discard(key);
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some((v, bytes.len()))
    }

    /// Reads and validates `key`'s record without counting a hit.
    fn read(&self, key: &str) -> Option<Vec<u8>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(blob_file_name(key));
        match shatter_faults::hit("store.read") {
            Some(FaultKind::Panic) => shatter_faults::panic_now("store.read"),
            Some(FaultKind::Io) => {
                // Unreadable media: the blob is as good as corrupt.
                if path.exists() {
                    fs::remove_file(&path).ok();
                    self.discarded.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
            // No budget/overflow to model in a read; treat as a miss.
            Some(FaultKind::Overflow) | Some(FaultKind::Budget) => return None,
            None => {}
        }
        if !path.exists() {
            return None;
        }
        match parse_record(&path, BLOB_MAGIC, self.schema_sig, blob_file_name) {
            Some((stored_key, payload)) if stored_key == key => Some(payload),
            // Valid record, wrong key: an FNV address collision or a
            // renamed file — either way not our data.
            Some(_) | None => {
                fs::remove_file(&path).ok();
                self.discarded.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Deletes `key`'s blob (if any) and counts it discarded: bytes
    /// that passed the store's checksum but failed a higher-level
    /// validation are damage and must not be served again.
    fn discard(&self, key: &str) {
        fs::remove_file(self.dir.join(blob_file_name(key))).ok();
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Typed read: [`BlobStore::get_decoded`] with
    /// [`Blob::from_blob`].
    pub fn get_blob<T: Blob>(&self, key: &str) -> Option<T> {
        self.get_blob_sized(key).map(|(v, _)| v)
    }

    /// Like [`BlobStore::get_blob`] but also returns the serialized
    /// size.
    pub fn get_blob_sized<T: Blob>(&self, key: &str) -> Option<(T, usize)> {
        self.get_decoded(key, T::from_blob)
    }

    /// Durably stores `payload` under `key` (tmp file, `sync_all`,
    /// atomic rename). Re-putting a key overwrites its blob.
    ///
    /// Fault site `store.write`: same semantics as the journal —
    /// `panic` unwinds, `io` tears the write at the final path (the
    /// next `get` discards it), other kinds skip the write.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write, sync or rename.
    pub fn put(&self, key: &str, payload: &[u8]) -> io::Result<()> {
        let bytes = encode_record(BLOB_MAGIC, self.schema_sig, key, payload);
        if write_record(&self.dir, &blob_file_name(key), &bytes, 'b', &self.torn)? {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Typed write: [`Blob::to_blob`] + [`BlobStore::put`], returning
    /// the serialized size (callers charge it against the RAM
    /// budget). I/O errors are swallowed — a failed persist degrades
    /// to in-memory-only caching, never to a wrong result.
    pub fn put_blob<T: Blob>(&self, key: &str, value: &T) -> usize {
        let bytes = value.to_blob();
        self.put(key, &bytes).ok();
        bytes.len()
    }

    /// Current counters.
    pub fn stats(&self) -> BlobStats {
        BlobStats {
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
        }
    }
}

/// File name addressing `key`'s blob.
fn blob_file_name(key: &str) -> String {
    format!("b{:016x}.blob", fnv1a_str(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shatter-blob-test-{tag}-{}-{:?}",
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
            let s = BlobStore::open(&dir, 11).unwrap();
            s.put("fixture/h5/30/0", b"month-bytes").unwrap();
            assert_eq!(s.stats().writes, 1);
        }
        let s = BlobStore::open(&dir, 11).unwrap();
        assert_eq!(
            s.get("fixture/h5/30/0").as_deref(),
            Some(b"month-bytes".as_slice())
        );
        assert_eq!(s.get("fixture/other"), None);
        let st = s.stats();
        assert_eq!((st.gets, st.hits, st.discarded), (2, 1, 0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_blob_is_deleted_and_missed() {
        let dir = tmp_dir("corrupt");
        let s = BlobStore::open(&dir, 1).unwrap();
        s.put("k", b"precious-bytes").unwrap();
        let path = dir.join(blob_file_name("k"));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.get("k"), None, "flipped byte must not be served");
        assert!(!path.exists(), "corrupt blob must be deleted");
        assert_eq!(s.stats().discarded, 1);
        // The slot is clean for a re-put.
        s.put("k", b"recomputed").unwrap();
        assert_eq!(s.get("k").as_deref(), Some(b"recomputed".as_slice()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_sig_is_discarded_lazily() {
        let dir = tmp_dir("schema");
        {
            let s = BlobStore::open(&dir, 1).unwrap();
            s.put("k", b"v").unwrap();
        }
        let s = BlobStore::open(&dir, 2).unwrap();
        assert_eq!(s.get("k"), None);
        assert_eq!(s.stats().discarded, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_record_is_foreign_to_the_blob_store() {
        let dir = tmp_dir("magic");
        {
            let j = crate::Journal::open(&dir, 1).unwrap();
            j.put("k", b"journal-payload").unwrap();
        }
        // Same directory, same key, same sig — but journal records are
        // addressed r{hash}.rec while blobs live at b{hash}.blob, and
        // the magics differ; the blob store simply misses.
        let s = BlobStore::open(&dir, 1).unwrap();
        assert_eq!(s.get("k"), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_read_fault_discards_instead_of_trusting() {
        shatter_faults::install_str("blob-read-test/store.read/io").unwrap();
        let dir = tmp_dir("read-fault");
        let s = BlobStore::open(&dir, 5).unwrap();
        s.put("k", b"doomed").unwrap();
        shatter_faults::with_scenario("blob-read-test", || {
            assert_eq!(s.get("k"), None, "fault read must miss");
            // Rule was one-shot: the blob is gone, so this is a real miss.
            assert_eq!(s.get("k"), None);
        });
        assert_eq!(s.stats().discarded, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn typed_envelope_rejects_type_confusion() {
        let dir = tmp_dir("typed");
        let s = BlobStore::open(&dir, 3).unwrap();
        // Includes -0.0 and a NaN payload: both must round-trip
        // bit-exactly through the envelope.
        let costs: Vec<f64> = vec![1.5, -0.0, f64::from_bits(0x7ff8_0000_0000_0001)];
        let got = {
            s.put_blob("benign/h5", &costs);
            s.get_blob::<Vec<f64>>("benign/h5").unwrap()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&costs));
        // Raw bytes under another key do not decode as Vec<f64>.
        s.put("other", b"not-an-envelope").unwrap();
        assert_eq!(s.get_blob::<Vec<f64>>("other"), None);
        assert_eq!(s.stats().discarded, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_files_are_cleaned_on_open() {
        let dir = tmp_dir("tmp-clean");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("b99-0.tmp"), b"half a blo").unwrap();
        let _s = BlobStore::open(&dir, 1).unwrap();
        assert!(!dir.join("b99-0.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }
}

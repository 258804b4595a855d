//! Shared evaluation fixtures and the memoizing [`FixtureCache`].
//!
//! Dataset synthesis, episode extraction and ADM training dominate the
//! cost of every exhibit; the cache keys each result by a string that
//! embeds the house spec's [`HouseSpec::cache_tag`], `days`, `seed` and
//! (for ADMs) the [`AdmKind`] parameters and `train_days`, so a
//! full-suite run pays each once. All entries are `Arc`-shared and the
//! cache is internally locked, so scenarios on parallel runner threads
//! share one cache safely. Any [`HouseSpec`] — the ARAS presets or a
//! generated scaled home — caches the same way; nothing here enumerates
//! houses.

//! Every entry goes through one tiered path: RAM hit → disk hit →
//! compute. A [`BlobStore`] disk tier can sit underneath the whole cache
//! ([`FixtureCache::with_disk`]): misses serialize and persist what
//! they computed, and a warm second run deserializes datasets, episode
//! sets, trained ADMs and memoized intermediates instead of recomputing
//! them — with byte-identical results, because every payload travels
//! through the exact (bit-pattern) wire codec. The RAM key of an entry
//! *is* its disk key. Independently, a RAM budget
//! ([`FixtureCache::with_memory_budget`]) bounds resident bytes with
//! deterministic insertion-order eviction; evicted entries refault
//! through the disk tier (or recompute), so eviction moves counters and
//! wall-clock only, never results.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shatter_adm::{AdmKind, HullAdm};
use shatter_dataset::episodes::{extract_episodes, Episode};
use shatter_dataset::{
    episodes_from_blob, episodes_to_blob, synthesize, Dataset, HouseSpec, SynthConfig,
};
use shatter_hvac::EnergyModel;
use shatter_smarthome::Home;
use shatter_store::{Blob, BlobStore};

/// Schema string behind every fixture-store blob; bump when any
/// persisted encoding changes incompatibly (old blobs are then
/// discarded lazily instead of misdecoded).
pub const DISK_SCHEMA: &str = "shatter-fixture-store-v1";

/// The [`BlobStore`] schema signature for [`FixtureCache`] disk tiers.
pub fn disk_schema_sig() -> u64 {
    shatter_store::fnv::fnv1a_str(DISK_SCHEMA)
}

/// The canonical evaluation fixture for one house.
pub struct HouseFixture {
    /// House identity of this fixture.
    pub spec: HouseSpec,
    /// Days synthesized.
    pub days: usize,
    /// Dataset seed used.
    pub seed: u64,
    /// The home.
    pub home: Home,
    /// Canonical month of behaviour (shared with the cache).
    pub month: Arc<Dataset>,
    /// Energy/cost model.
    pub model: EnergyModel,
}

impl HouseFixture {
    /// Builds the fixture for a house with the canonical seed, outside
    /// any cache (each call re-synthesizes).
    pub fn new(spec: &HouseSpec, days: usize) -> HouseFixture {
        HouseFixture::with_seed(spec, days, spec.canonical_seed)
    }

    /// Builds the fixture with an explicit dataset seed.
    pub fn with_seed(spec: &HouseSpec, days: usize, seed: u64) -> HouseFixture {
        let month = synthesize(&SynthConfig::new(spec.clone(), days, seed));
        HouseFixture::from_month(spec, days, seed, spec.home.build(), month)
    }

    /// Assembles a fixture around an already synthesized (or decoded)
    /// month; the home and energy model are cheap and deterministic.
    fn from_month(spec: &HouseSpec, days: usize, seed: u64, home: Home, month: Dataset) -> Self {
        let model = EnergyModel::standard(home.clone());
        HouseFixture {
            spec: spec.clone(),
            days,
            seed,
            home,
            month: Arc::new(month),
            model,
        }
    }

    /// Trains an ADM on the first `days` days of the month (defender
    /// view), outside any cache.
    pub fn adm(&self, kind: AdmKind, days: usize) -> HullAdm {
        HullAdm::train(&self.month.prefix_days(days), kind)
    }

    /// Memo-key fragment fully identifying this fixture's dataset:
    /// `"{label}-{spec signature:016x}/{days}/{seed}"`. Every schedule /
    /// reward-table / benign-cost memo key embeds it, so two specs
    /// sharing `days` and `seed` can never alias a cache entry.
    pub fn cache_key(&self) -> String {
        dataset_key(&self.spec, self.days, self.seed)
    }
}

/// `"{cache_tag}/{days}/{seed}"`: the dataset part of every cache key.
fn dataset_key(spec: &HouseSpec, days: usize, seed: u64) -> String {
    format!("{}/{}/{}", spec.cache_tag(), days, seed)
}

/// Hit/miss counters of a [`FixtureCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-RAM tier.
    pub hits: u64,
    /// Lookups that computed and stored a fresh entry.
    pub misses: u64,
    /// Lookups served by deserializing a disk-tier blob.
    pub disk_hits: u64,
    /// Entries evicted from RAM under the memory budget. A perf
    /// counter, never a correctness event: evicted entries refault
    /// through the disk tier or recompute.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (disk hits count as hits), or `None`
    /// before any lookup — an empty cache has no rate, and reporting
    /// it as `0.0` used to make a fresh run indistinguishable from a
    /// 100%-miss run.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.disk_hits + self.misses;
        (total > 0).then(|| (self.hits + self.disk_hits) as f64 / total as f64)
    }
}

type Shard = Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>;

/// Memoizes fixture construction (dataset synthesis), episode
/// extraction, ADM training, and arbitrary keyed intermediates (via
/// [`FixtureCache::memo_blob`]) across scenarios.
///
/// Every entry lives in one map keyed by its disk key (e.g.
/// `"fixture/{cache_tag}/{days}/{seed}"`), and every lookup takes the
/// same RAM → disk → compute path.
///
/// A cache built with [`FixtureCache::disabled`] never stores or serves
/// entries — every request recomputes, reproducing the pre-engine
/// harness's cost model (used as the "serial uncached" baseline leg).
pub struct FixtureCache {
    // The map carries the per-day schedule and SMT-window traffic of
    // every parallel scenario worker, so it is sharded by key hash to
    // keep lock contention off the hot path.
    shards: [Shard; SHARDS],
    disabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Optional disk tier; misses persist, refaults deserialize.
    disk: Option<BlobStore>,
    disk_hits: AtomicU64,
    /// Optional RAM budget in bytes (serialized sizes, a deliberate
    /// proxy for resident heap). `None` = unbounded.
    budget_bytes: Option<u64>,
    resident_bytes: AtomicU64,
    evictions: AtomicU64,
    /// Insertion-ordered eviction ledger of `(key, bytes)` over every
    /// budget-charged entry. Lock ordering: ledger before any shard
    /// lock, never the reverse.
    ledger: Mutex<VecDeque<(String, u64)>>,
}

/// Number of lock shards backing the [`FixtureCache`] map.
const SHARDS: usize = 16;

/// Locks a cache shard or the ledger, panicking with the lookup context
/// on poisoning.
///
/// Only pure `HashMap`/`VecDeque` operations run under cache locks (all
/// expensive computation happens outside them), so a poisoned lock
/// indicates a panic inside the map machinery itself. If that ever
/// happens, the panic names the cache key involved, and the runner's
/// fault isolation turns it into a per-scenario `Failed` report instead
/// of tearing down the suite.
fn lock<'a, T>(lock: &'a Mutex<T>, key: &str) -> std::sync::MutexGuard<'a, T> {
    lock.lock()
        .unwrap_or_else(|_| panic!("cache lock poisoned at key {key:?}"))
}

impl Default for FixtureCache {
    fn default() -> FixtureCache {
        FixtureCache {
            shards: std::array::from_fn(|_| Mutex::default()),
            disabled: false,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk: None,
            disk_hits: AtomicU64::new(0),
            budget_bytes: None,
            resident_bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            ledger: Mutex::default(),
        }
    }
}

impl FixtureCache {
    /// Creates an empty cache.
    pub fn new() -> FixtureCache {
        FixtureCache::default()
    }

    /// Creates a cache that never memoizes: every request recomputes and
    /// counts as a miss. Scenarios run against it exactly like the
    /// pre-engine ad-hoc harness.
    pub fn disabled() -> FixtureCache {
        FixtureCache {
            disabled: true,
            ..FixtureCache::default()
        }
    }

    /// Attaches a disk tier: misses persist what they computed, and
    /// refaults (cold-start or post-eviction) deserialize from disk
    /// instead of recomputing.
    pub fn with_disk(mut self, store: BlobStore) -> FixtureCache {
        self.disk = Some(store);
        self
    }

    /// Bounds resident cache bytes (serialized sizes). When an insert
    /// pushes the total past the budget, the oldest charged entries
    /// are evicted in insertion order until it fits again.
    pub fn with_memory_budget(mut self, bytes: u64) -> FixtureCache {
        self.budget_bytes = Some(bytes);
        self
    }

    /// The attached disk tier, if any (for stats reporting).
    pub fn disk(&self) -> Option<&BlobStore> {
        self.disk.as_ref()
    }

    /// The lock shard responsible for a key (FNV-1a of the key).
    fn shard(&self, key: &str) -> &Shard {
        &self.shards[(crate::scenario::fnv1a(key) as usize) % SHARDS]
    }

    /// Charges a freshly inserted entry against the RAM budget and
    /// evicts from the front of the ledger until the budget holds.
    /// Call *without* holding any shard lock (the eviction loop takes
    /// them). No-op when no budget is configured.
    fn charge(&self, key: &str, bytes: u64) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        let mut ledger = lock(&self.ledger, key);
        self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
        ledger.push_back((key.to_string(), bytes));
        while self.resident_bytes.load(Ordering::Relaxed) > budget {
            let Some((oldest, bytes)) = ledger.pop_front() else {
                break;
            };
            lock(self.shard(&oldest), &oldest).remove(&oldest);
            self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one lookup path behind every public accessor: RAM hit →
    /// disk hit (`decode` the stored blob) → `compute` (then `encode`
    /// once, persist, and charge the serialized size). `key` is both
    /// the RAM key and the blob's durable content address, so it must
    /// capture *all* inputs of `compute`. A blob that `decode` rejects
    /// is discarded by the store and recomputed. On a type mismatch
    /// for an existing RAM key the value is recomputed and replaced.
    fn tiered<T: Send + Sync + 'static>(
        &self,
        key: &str,
        decode: impl FnOnce(&[u8]) -> Option<T>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        if self.disabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(compute());
        }
        let shard = self.shard(key);
        if let Some(v) = lock(shard, key).get(key) {
            if let Ok(t) = Arc::clone(v).downcast::<T>() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return t;
            }
        }
        let (t, bytes) = match self.disk.as_ref().and_then(|d| d.get_decoded(key, decode)) {
            Some((t, bytes)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                (Arc::new(t), bytes as u64)
            }
            // Compute outside any lock: other keys stay available while
            // this one is built, and a racing duplicate insert is benign
            // (identical content, last writer wins).
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let t = Arc::new(compute());
                let mut bytes = 0;
                if self.disk.is_some() || self.budget_bytes.is_some() {
                    let blob = encode(&t);
                    bytes = blob.len() as u64;
                    if let Some(disk) = &self.disk {
                        disk.put(key, &blob).ok();
                    }
                }
                (t, bytes)
            }
        };
        let fresh = lock(shard, key)
            .insert(
                key.to_string(),
                Arc::clone(&t) as Arc<dyn Any + Send + Sync>,
            )
            .is_none();
        if fresh {
            self.charge(key, bytes);
        }
        t
    }

    /// Memoizes a [`Blob`]-serializable intermediate under a
    /// caller-chosen key, backed by the disk tier (when attached) and
    /// charged against the RAM budget (when configured). The key must
    /// capture *all* inputs of `compute` — it is also the blob's
    /// durable content address across runs. Scenarios build keys on
    /// [`HouseFixture::cache_key`], which embeds the house spec
    /// signature, days and seed (e.g.
    /// `"sched/{fixture key}/{adm}/{strategy}/{cap:x}/{day}"` for attack
    /// schedules).
    pub fn memo_blob<T, F>(&self, key: &str, compute: F) -> Arc<T>
    where
        T: Blob + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.tiered(key, T::from_blob, T::to_blob, compute)
    }

    /// The fixture for `(spec, days, seed)`. Only the month is
    /// persisted; a disk hit rebuilds the home and model around it.
    pub fn fixture_with_seed(&self, spec: &HouseSpec, days: usize, seed: u64) -> Arc<HouseFixture> {
        let decode = |bytes: &[u8]| {
            let month = Dataset::from_blob(bytes)?;
            let home = spec.home.build();
            // The blob checksum guards bytes, not meaning: a month that
            // does not match its own key's shape is damage and must not
            // be trusted.
            (month.days.len() == days && month.n_occupants == home.occupants().len())
                .then(|| HouseFixture::from_month(spec, days, seed, home, month))
        };
        self.tiered(
            &format!("fixture/{}", dataset_key(spec, days, seed)),
            decode,
            |fx| fx.month.to_blob(),
            || HouseFixture::with_seed(spec, days, seed),
        )
    }

    /// Extracted episodes of the `(spec, days, seed)` dataset.
    pub fn episodes_with_seed(
        &self,
        spec: &HouseSpec,
        days: usize,
        seed: u64,
    ) -> Arc<Vec<Episode>> {
        self.tiered(
            &format!("episodes/{}", dataset_key(spec, days, seed)),
            episodes_from_blob,
            |eps| episodes_to_blob(eps),
            || extract_episodes(&self.fixture_with_seed(spec, days, seed).month),
        )
    }

    /// A trained ADM for the `(spec, days, seed)` dataset: `adm_kind`
    /// trained on the first `train_days` days. Identical to
    /// [`HouseFixture::adm`] but memoized. The key spells the kind's
    /// parameters as bit patterns (f64 via `to_bits`).
    pub fn adm_with_seed(
        &self,
        spec: &HouseSpec,
        days: usize,
        seed: u64,
        adm_kind: AdmKind,
        train_days: usize,
    ) -> Arc<HullAdm> {
        let (tag, a, b, c) = match &adm_kind {
            AdmKind::Dbscan(p) => (0, p.eps.to_bits(), p.min_pts as u64, 0),
            AdmKind::KMeans(p) => (1, p.k as u64, p.max_iter as u64, p.seed),
        };
        let key = format!(
            "adm/{}/k{tag}-{a:016x}-{b:016x}-{c:016x}/{train_days}",
            dataset_key(spec, days, seed)
        );
        self.tiered(&key, HullAdm::from_blob, HullAdm::to_blob, || {
            self.fixture_with_seed(spec, days, seed)
                .adm(adm_kind, train_days)
        })
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shatter_adm::kmeans::KMeansParams;
    use shatter_store::BlobStats;

    fn fixture(cache: &FixtureCache, spec: &HouseSpec, days: usize) -> Arc<HouseFixture> {
        cache.fixture_with_seed(spec, days, spec.canonical_seed)
    }

    /// A cache over a fresh blob store in a per-test temp directory.
    fn disk_cache(tag: &str) -> (FixtureCache, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "shatter-fixtures-test-{tag}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = BlobStore::open(&dir, disk_schema_sig()).unwrap();
        (FixtureCache::new().with_disk(store), dir)
    }

    #[test]
    fn hit_rate_distinguishes_empty_from_all_miss() {
        assert_eq!(CacheStats::default().hit_rate(), None);
        let stats = |hits, misses, disk_hits| CacheStats {
            hits,
            misses,
            disk_hits,
            evictions: 0,
        };
        assert_eq!(stats(0, 4, 0).hit_rate(), Some(0.0));
        assert_eq!(stats(2, 1, 0).hit_rate(), Some(2.0 / 3.0));
        assert_eq!(stats(5, 0, 0).hit_rate(), Some(1.0));
        // A disk hit is a hit: it avoided the recompute.
        assert_eq!(stats(1, 1, 2).hit_rate(), Some(0.75));
    }

    #[test]
    fn fixture_is_cached() {
        let cache = FixtureCache::new();
        let a = fixture(&cache, &HouseSpec::aras_a(), 3);
        let b = fixture(&cache, &HouseSpec::aras_a(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_keys_distinct_entries() {
        let cache = FixtureCache::new();
        let a = fixture(&cache, &HouseSpec::aras_a(), 3);
        let b = fixture(&cache, &HouseSpec::aras_b(), 3);
        let c = fixture(&cache, &HouseSpec::aras_a(), 4);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn specs_sharing_days_and_seed_never_alias() {
        // Regression for the latent memo key-collision risk: two house
        // specs with identical (days, seed) must resolve to different
        // fixture-cache entries AND different memo-key prefixes.
        let cache = FixtureCache::new();
        let s6 = HouseSpec::scaled(6, 2);
        let s10 = HouseSpec::scaled(10, 2);
        let a = cache.fixture_with_seed(&s6, 3, 5);
        let b = cache.fixture_with_seed(&s10, 3, 5);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.month, b.month);
        assert_ne!(a.cache_key(), b.cache_key());
        // Same shape, different occupant count: still distinct.
        let s6x3 = HouseSpec::scaled(6, 3);
        let c = cache.fixture_with_seed(&s6x3, 3, 5);
        assert_ne!(a.cache_key(), c.cache_key());
        // ARAS A vs B forced onto the same seed: distinct too.
        let fa = HouseFixture::with_seed(&HouseSpec::aras_a(), 2, 7);
        let fb = HouseFixture::with_seed(&HouseSpec::aras_b(), 2, 7);
        assert_ne!(fa.cache_key(), fb.cache_key());
    }

    #[test]
    fn cached_adm_matches_uncached_training() {
        let cache = FixtureCache::new();
        let spec = HouseSpec::aras_a();
        let seed = spec.canonical_seed;
        let cached = cache.adm_with_seed(&spec, 4, seed, AdmKind::default_kmeans(), 3);
        let again = cache.adm_with_seed(&spec, 4, seed, AdmKind::default_kmeans(), 3);
        assert!(Arc::ptr_eq(&cached, &again));
        let fx = HouseFixture::new(&spec, 4);
        let direct = fx.adm(AdmKind::default_kmeans(), 3);
        // HullAdm has no PartialEq and its Debug form iterates a hash
        // map; compare the learned geometry keyed and sorted instead.
        let geometry = |adm: &HullAdm| -> Vec<String> {
            let mut v: Vec<String> = adm
                .models()
                .map(|((o, z), zm)| format!("{}/{}: {zm:?}", o.index(), z.index()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(geometry(&cached), geometry(&direct));
    }

    #[test]
    fn memo_caches_by_key_and_recomputes_when_disabled() {
        let cache = FixtureCache::new();
        let a = cache.memo_blob("k1", || vec![41.0 + 1.0]);
        let b: Arc<Vec<f64>> = cache.memo_blob("k1", || unreachable!("must be served from cache"));
        assert_eq!((a[0], b[0]), (42.0, 42.0));
        assert!(Arc::ptr_eq(&a, &b));
        let other = cache.memo_blob("k2", || vec![7.0]);
        assert_eq!(*other, vec![7.0]);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                ..CacheStats::default()
            }
        );

        let off = FixtureCache::disabled();
        let x = off.memo_blob("k1", || vec![1.0]);
        let y = off.memo_blob("k1", || vec![2.0]);
        assert_eq!((x[0], y[0]), (1.0, 2.0));
        assert_eq!(off.stats().hits, 0);
        let f1 = fixture(&off, &HouseSpec::aras_a(), 2);
        let f2 = fixture(&off, &HouseSpec::aras_a(), 2);
        assert!(!Arc::ptr_eq(&f1, &f2));
        assert_eq!((off.stats().hits, off.stats().misses), (0, 4));
    }

    #[test]
    fn episodes_cached_and_consistent() {
        let cache = FixtureCache::new();
        let spec = HouseSpec::aras_b();
        let e1 = cache.episodes_with_seed(&spec, 2, spec.canonical_seed);
        let e2 = cache.episodes_with_seed(&spec, 2, spec.canonical_seed);
        assert!(Arc::ptr_eq(&e1, &e2));
        let direct = extract_episodes(&HouseFixture::new(&spec, 2).month);
        assert_eq!(*e1, direct);
    }

    #[test]
    fn scaled_spec_fixtures_cache_like_preset_ones() {
        let cache = FixtureCache::new();
        let spec = HouseSpec::scaled(6, 3);
        let a = fixture(&cache, &spec, 2);
        let b = fixture(&cache, &spec, 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.home.occupants().len(), 3);
        assert_eq!(a.month.n_occupants, 3);
    }

    #[test]
    fn discarded_blobs_are_recomputed_and_not_counted_as_store_hits() {
        let (cache, dir) = disk_cache("discard");
        let spec = HouseSpec::aras_a();
        let seed = spec.canonical_seed;
        let disk = cache.disk().unwrap();
        let tag = spec.cache_tag();
        // Bytes that pass the store checksum but mean nothing: garbage
        // episodes, and a 1-day month under a 2-day key.
        disk.put(&format!("episodes/{tag}/2/{seed}"), b"garbage")
            .unwrap();
        let short = HouseFixture::with_seed(&spec, 1, seed).month.to_blob();
        disk.put(&format!("fixture/{tag}/2/{seed}"), &short)
            .unwrap();

        let eps = cache.episodes_with_seed(&spec, 2, seed);
        let fx = cache.fixture_with_seed(&spec, 2, seed);
        let fresh = HouseFixture::with_seed(&spec, 2, seed);
        assert_eq!(fx.month, fresh.month);
        assert_eq!(*eps, extract_episodes(&fresh.month));
        let BlobStats {
            hits, discarded, ..
        } = disk.stats();
        assert_eq!((hits, discarded), (0, 2));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                ..CacheStats::default()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_keys_are_pinned() {
        // Warm stores written by older builds stay warm only while these
        // key strings stay exactly as they are.
        let (cache, dir) = disk_cache("keys");
        let spec = HouseSpec::aras_a();
        let seed = spec.canonical_seed;
        let kind = AdmKind::KMeans(KMeansParams {
            k: 5,
            max_iter: 30,
            seed: 9,
        });
        cache.fixture_with_seed(&spec, 2, seed);
        cache.episodes_with_seed(&spec, 2, seed);
        cache.adm_with_seed(&spec, 2, seed, kind, 1);
        let tag = format!("HA-{:016x}", spec.signature());
        let disk = cache.disk().unwrap();
        for key in [
            format!("fixture/{tag}/2/{seed}"),
            format!("episodes/{tag}/2/{seed}"),
            format!("adm/{tag}/2/{seed}/k1-0000000000000005-000000000000001e-0000000000000009/1"),
        ] {
            assert!(disk.get(&key).is_some(), "no blob under {key}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

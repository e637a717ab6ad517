//! Cross-launch program cache: compile once, launch many.
//!
//! The simulator's ahead-of-time lowering ([`insum_gpu::Program`]) is
//! cheap but not free, and the paper's workflow launches the same kernel
//! thousands of times — repeated [`crate::run_fused_with_cache`] executions, the
//! winner of an autotuning sweep re-launched by the final run (the
//! sweep's one-instance probe programs are throwaway and never enter the
//! cache), and the per-node kernels of the unfused pipeline. [`ProgramCache`]
//! memoizes compiled programs keyed by the kernel's structural
//! fingerprint ([`insum_kernel::fingerprint`]), the launch grid, and the
//! positional argument metadata (element counts + dtypes) — everything a
//! [`insum_gpu::Program`] bakes in. Entries are shared (`Arc`), so
//! concurrent launches reuse one lowering.
//!
//! The cache is **bounded**: a long-lived server sees an open-ended
//! stream of distinct (kernel, grid, metadata) keys — every new tensor
//! shape is a new key — so residency is capped ([`ProgramCache::new`]
//! defaults to 512 programs, [`ProgramCache::with_capacity`] overrides)
//! and the least-recently-used entry is evicted on overflow. Eviction
//! only drops the cache's reference; in-flight launches keep their
//! `Arc<Program>` alive.
//!
//! A process-wide cache ([`ProgramCache::global`]) backs the default
//! runner entry points; hit/miss/eviction counters are exposed for
//! benchmarks, the serving engine's metrics, and CI smoke tests.

use crate::Result;
use insum_gpu::{GpuError, Program};
use insum_kernel::{fingerprint, Kernel};
use insum_tensor::DType;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Default maximum resident programs; the least-recently-used entry is
/// evicted first. Programs are a few KB each, so this comfortably covers
/// an autotune sweep plus every workload of a benchmark run.
const DEFAULT_CAPACITY: usize = 512;

/// Everything a [`Program`] bakes in — and all a snapshot records of it.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) fingerprint: u64,
    pub(crate) grid: Vec<usize>,
    pub(crate) lens: Vec<usize>,
    pub(crate) dtypes: Vec<DType>,
}

impl CacheKey {
    pub(crate) fn of(kernel: &Kernel, grid: &[usize], lens: &[usize], dtypes: &[DType]) -> Self {
        CacheKey {
            fingerprint: fingerprint(kernel),
            grid: grid.to_vec(),
            lens: lens.to_vec(),
            dtypes: dtypes.to_vec(),
        }
    }
}

struct CacheEntry {
    /// The exact kernel this program was compiled from: verified
    /// structurally on every hit, so a 64-bit fingerprint collision
    /// degrades to a miss instead of silently returning another
    /// kernel's program.
    kernel: Kernel,
    program: Arc<Program>,
    /// Recency stamp for LRU eviction (monotone per-cache counter).
    last_used: u64,
    /// True when this entry was seeded from a snapshot rather than
    /// compiled by a lookup (drives the `warm_hits` counter).
    from_snapshot: bool,
}

struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
    tick: u64,
    hits: u64,
    warm_hits: u64,
    misses: u64,
    compiles: u64,
    evictions: u64,
    snapshot_seeded: u64,
    snapshot_rejected: u64,
}

impl CacheInner {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evict least-recently-used entries until `capacity` fits one more.
    fn make_room(&mut self, capacity: usize) {
        while self.map.len() >= capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// Counters describing a cache's effectiveness.
///
/// The counters distinguish a *miss-then-compile* from a
/// *miss-then-snapshot-hit*: `misses` counts lookups that found no
/// usable entry, `compiles` counts the lowerings those lookups ran, and
/// `snapshot_seeded` counts entries that a snapshot load put there
/// (their later lookups are `hits`, with `warm_hits` tracking the first
/// hit on each). A snapshot record holds a cache key, so the load
/// compiles each seeded entry itself — off the request path, and not
/// counted in `compiles`. A warm restart whose requests lower nothing
/// therefore shows a zero `compiles` delta — the exact assertion
/// servebench's restart phase makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Hits served by an entry that was seeded from a snapshot and had
    /// not been hit before — each snapshot record can contribute at
    /// most one (the serve layer surfaces this as `warm_start_hits`).
    pub warm_hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Lowerings run by lookups ([`insum_gpu::Program::compile`] on a
    /// miss); always equal to `misses`. Entries a snapshot load seeds
    /// are compiled at load and counted in `snapshot_seeded` instead.
    pub compiles: u64,
    /// Entries dropped to respect the capacity bound (LRU order).
    pub evictions: u64,
    /// Entries a snapshot load inserted (compiled at load from the
    /// recorded key, before any lookup).
    pub snapshot_seeded: u64,
    /// Snapshot records dropped at load time (bad CRC, stale
    /// fingerprint, failed decode or compile, truncation).
    pub snapshot_rejected: u64,
    /// Programs currently resident.
    pub entries: usize,
}

impl std::fmt::Display for ProgramCacheStats {
    /// One-line operator summary, e.g.
    /// `cache: 12 resident, 340 hits (5 warm), 12 misses, 12 compiles,
    /// 0 evictions, snapshot 5 seeded / 0 rejected`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cache: {} resident, {} hits ({} warm), {} misses, {} compiles, \
             {} evictions, snapshot {} seeded / {} rejected",
            self.entries,
            self.hits,
            self.warm_hits,
            self.misses,
            self.compiles,
            self.evictions,
            self.snapshot_seeded,
            self.snapshot_rejected
        )
    }
}

/// A bounded, LRU-evicting memoized mapping from (kernel fingerprint,
/// grid, argument metadata) to compiled simulator programs. See the
/// module docs.
pub struct ProgramCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl Default for ProgramCache {
    fn default() -> ProgramCache {
        ProgramCache::new()
    }
}

impl ProgramCache {
    /// An empty cache with the default capacity (512 programs).
    pub fn new() -> ProgramCache {
        ProgramCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` programs (clamped to at
    /// least 1); the least-recently-used entry is evicted on overflow.
    pub fn with_capacity(capacity: usize) -> ProgramCache {
        ProgramCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                warm_hits: 0,
                misses: 0,
                compiles: 0,
                evictions: 0,
                snapshot_seeded: 0,
                snapshot_rejected: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Maximum resident programs before LRU eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The process-wide cache: what [`crate::autotune`] and every
    /// `insum::Compiled` launch pass to the `run_*_with_cache` functions.
    pub fn global() -> &'static ProgramCache {
        static GLOBAL: OnceLock<ProgramCache> = OnceLock::new();
        GLOBAL.get_or_init(ProgramCache::new)
    }

    /// Fetch the program for `(kernel, grid, lens, dtypes)`, compiling
    /// and inserting it on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`Program::compile`] errors (invalid kernel, bad grid,
    /// metadata/parameter mismatch); failures are not cached.
    pub fn get_or_compile(
        &self,
        kernel: &Kernel,
        grid: &[usize],
        lens: &[usize],
        dtypes: &[DType],
    ) -> std::result::Result<Arc<Program>, GpuError> {
        let key = CacheKey::of(kernel, grid, lens, dtypes);
        {
            let mut inner = self.inner.lock().expect("program cache poisoned");
            let stamp = inner.touch();
            if let Some(e) = inner.map.get_mut(&key) {
                if e.kernel == *kernel {
                    e.last_used = stamp;
                    // First hit on a snapshot-seeded entry is the
                    // warm-start event; later hits are ordinary.
                    let warm = std::mem::take(&mut e.from_snapshot);
                    let p = Arc::clone(&e.program);
                    inner.warm_hits += u64::from(warm);
                    inner.hits += 1;
                    return Ok(p);
                }
                // Fingerprint collision: treat as a miss (the colliding
                // entry is replaced below).
            }
            inner.misses += 1;
            inner.compiles += 1;
        }
        // Compile outside the lock: misses are rare and lowering must not
        // serialize concurrent launches.
        let program = {
            let _compile_span = insum_telemetry::hook::timed(insum_telemetry::HookPhase::Compile);
            Arc::new(Program::compile(kernel, grid, lens, dtypes)?)
        };
        let mut inner = self.inner.lock().expect("program cache poisoned");
        let stamp = inner.touch();
        match inner.map.get_mut(&key) {
            // Another thread inserted the same kernel while we compiled:
            // keep the resident program, ours is dropped.
            Some(e) if e.kernel == *kernel => {
                e.last_used = stamp;
                return Ok(Arc::clone(&e.program));
            }
            // Fingerprint collision with a different resident kernel:
            // replace in place (no occupancy change, no eviction).
            Some(e) => {
                *e = CacheEntry {
                    kernel: kernel.clone(),
                    program: Arc::clone(&program),
                    last_used: stamp,
                    from_snapshot: false,
                };
            }
            None => {
                inner.make_room(self.capacity);
                inner.map.insert(
                    key,
                    CacheEntry {
                        kernel: kernel.clone(),
                        program: Arc::clone(&program),
                        last_used: stamp,
                        from_snapshot: false,
                    },
                );
            }
        }
        Ok(program)
    }

    /// Insert the program a snapshot load compiled from a recorded key.
    /// Loading is merge-not-replace: if the key is already resident
    /// (whatever its origin), the resident entry wins and `false` is
    /// returned. The caller has checked the record's stored fingerprint
    /// against the kernel's and compiled `program` from this very key.
    pub(crate) fn seed_from_snapshot(
        &self,
        key: CacheKey,
        kernel: Kernel,
        program: Program,
    ) -> bool {
        let mut inner = self.inner.lock().expect("program cache poisoned");
        let stamp = inner.touch();
        if inner.map.contains_key(&key) {
            return false;
        }
        inner.make_room(self.capacity);
        inner.map.insert(
            key,
            CacheEntry {
                kernel,
                program: Arc::new(program),
                last_used: stamp,
                from_snapshot: true,
            },
        );
        inner.snapshot_seeded += 1;
        true
    }

    /// Count `n` snapshot records as rejected (dropped at load time).
    pub(crate) fn note_snapshot_rejected(&self, n: u64) {
        let mut inner = self.inner.lock().expect("program cache poisoned");
        inner.snapshot_rejected += n;
    }

    /// Encode every resident entry as a snapshot record (see
    /// [`crate::snapshot`] for the record layout).
    pub(crate) fn snapshot_records(&self) -> Vec<Vec<u8>> {
        let inner = self.inner.lock().expect("program cache poisoned");
        let mut entries: Vec<(&CacheKey, &CacheEntry)> = inner.map.iter().collect();
        // Deterministic record order: stable across runs of the same
        // workload, so snapshot bytes are reproducible.
        entries.sort_by_cached_key(|(k, _)| {
            let dtypes: Vec<u8> = k
                .dtypes
                .iter()
                .map(|&d| insum_snapshot::dtype_tag(d))
                .collect();
            (k.fingerprint, &k.grid, &k.lens, dtypes)
        });
        entries
            .iter()
            .map(|(key, entry)| crate::snapshot::encode_program_record(key, &entry.kernel))
            .collect()
    }

    /// Current hit/miss/eviction/occupancy counters.
    pub fn stats(&self) -> ProgramCacheStats {
        let inner = self.inner.lock().expect("program cache poisoned");
        ProgramCacheStats {
            hits: inner.hits,
            warm_hits: inner.warm_hits,
            misses: inner.misses,
            compiles: inner.compiles,
            evictions: inner.evictions,
            snapshot_seeded: inner.snapshot_seeded,
            snapshot_rejected: inner.snapshot_rejected,
            entries: inner.map.len(),
        }
    }

    /// Reset every counter (entries stay resident; seeded entries keep
    /// their pending warm-hit credit).
    pub fn reset_stats(&self) {
        let mut inner = self.inner.lock().expect("program cache poisoned");
        inner.hits = 0;
        inner.warm_hits = 0;
        inner.misses = 0;
        inner.compiles = 0;
        inner.evictions = 0;
        inner.snapshot_seeded = 0;
        inner.snapshot_rejected = 0;
    }

    /// Drop every cached program and reset counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("program cache poisoned");
        inner.map.clear();
        inner.hits = 0;
        inner.warm_hits = 0;
        inner.misses = 0;
        inner.compiles = 0;
        inner.evictions = 0;
        inner.snapshot_seeded = 0;
        inner.snapshot_rejected = 0;
    }

    /// Write this cache's programs — plus the global
    /// [`crate::AutotuneCache`]'s winners — to `path` as a checksummed
    /// snapshot (atomically: temp file + fsync + rename).
    ///
    /// # Errors
    ///
    /// [`insum_snapshot::SnapshotError::Io`] on filesystem failure.
    pub fn save_snapshot(
        &self,
        path: &std::path::Path,
    ) -> std::result::Result<u64, insum_snapshot::SnapshotError> {
        crate::snapshot::save_snapshot_with(path, self, crate::AutotuneCache::global())
    }

    /// Merge the snapshot at `path` into this cache and the global
    /// [`crate::AutotuneCache`]. Infallible by design: a missing,
    /// truncated, corrupt, or version-skewed snapshot degrades to an
    /// empty (or partial) load with the damage counted in the returned
    /// report and in [`ProgramCacheStats::snapshot_rejected`] — the
    /// next lookup simply recompiles.
    pub fn load_snapshot(&self, path: &std::path::Path) -> crate::snapshot::SnapshotLoadReport {
        crate::snapshot::load_snapshot_with(path, self, crate::AutotuneCache::global())
    }
}

/// Look up (or compile) the cached program for a kernel launch bound to
/// `args`-shaped tensors.
///
/// # Errors
///
/// Propagates compilation errors.
pub(crate) fn cached_program(
    cache: &ProgramCache,
    kernel: &Kernel,
    grid: &[usize],
    lens: &[usize],
    dtypes: &[DType],
) -> Result<Arc<Program>> {
    Ok(cache.get_or_compile(kernel, grid, lens, dtypes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_kernel::{BinOp, KernelBuilder};

    fn kernel(scale: f64) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let s = b.constant(scale);
        let v = b.load(x, lanes, None, 0.0);
        let sv = b.binary(BinOp::Mul, v, s);
        b.store(y, lanes, sv, None);
        b.build()
    }

    const LENS: [usize; 2] = [32, 32];
    const DTS: [DType; 2] = [DType::F32, DType::F32];

    #[test]
    fn second_identical_lookup_hits() {
        let cache = ProgramCache::new();
        let k = kernel(2.0);
        let a = cache.get_or_compile(&k, &[4], &LENS, &DTS).unwrap();
        let b = cache.get_or_compile(&k, &[4], &LENS, &DTS).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_kernels_grids_and_metadata_miss() {
        let cache = ProgramCache::new();
        cache
            .get_or_compile(&kernel(2.0), &[4], &LENS, &DTS)
            .unwrap();
        cache
            .get_or_compile(&kernel(3.0), &[4], &LENS, &DTS)
            .unwrap();
        cache
            .get_or_compile(&kernel(2.0), &[8], &LENS, &DTS)
            .unwrap();
        let dts16 = [DType::F16, DType::F16];
        cache
            .get_or_compile(&kernel(2.0), &[4], &LENS, &dts16)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 4, 4));
    }

    #[test]
    fn clear_and_reset() {
        let cache = ProgramCache::new();
        cache
            .get_or_compile(&kernel(2.0), &[4], &LENS, &DTS)
            .unwrap();
        cache.reset_stats();
        assert_eq!(cache.stats().misses, 0);
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = ProgramCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache
            .get_or_compile(&kernel(1.0), &[4], &LENS, &DTS)
            .unwrap();
        cache
            .get_or_compile(&kernel(2.0), &[4], &LENS, &DTS)
            .unwrap();
        // Touch kernel(1.0) so kernel(2.0) becomes the LRU victim.
        cache
            .get_or_compile(&kernel(1.0), &[4], &LENS, &DTS)
            .unwrap();
        cache
            .get_or_compile(&kernel(3.0), &[4], &LENS, &DTS)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 3, 1, 2));
        // kernel(1.0) survived (hit), kernel(2.0) was evicted (miss).
        cache
            .get_or_compile(&kernel(1.0), &[4], &LENS, &DTS)
            .unwrap();
        cache
            .get_or_compile(&kernel(2.0), &[4], &LENS, &DTS)
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 4);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let cache = ProgramCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache
            .get_or_compile(&kernel(1.0), &[4], &LENS, &DTS)
            .unwrap();
        cache
            .get_or_compile(&kernel(2.0), &[4], &LENS, &DTS)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (1, 1));
    }
}

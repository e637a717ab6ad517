//! Persistent autotune-winner cache.
//!
//! An autotune sweep is the most expensive step of a cold start — tens of
//! analytic launches per workload (Table 3's 4.9 s "autotune" row). The
//! winning tile configuration, though, is three small integers keyed by
//! the workload, so it snapshots almost for free. [`AutotuneCache`] maps
//! a 64-bit workload signature to the winning [`TileConfig`]; the
//! autotuner stores every fresh winner after sweeping, and snapshots
//! persist the map alongside compiled programs (see [`crate::snapshot`]).
//! A stored winner is always a configuration the sweep *fully launched*
//! and found fastest — the one-instance estimates that rank the tile
//! space never reach this cache.
//!
//! Each entry remembers its origin. Only winners *seeded from a
//! snapshot* let the autotuner skip its sweep — that is the warm-restart
//! contract. Winners stored by in-process sweeps are persisted for the
//! next boot but do not short-circuit tuning in the process that found
//! them: re-tuning a resident workload is already cheap (every full
//! launch hits the [`crate::ProgramCache`]), and keeping the sweep keeps
//! its counters honest for benchmarks that measure cold-path cost.
//!
//! A loaded winner is never trusted blindly: [`crate::autotune`]
//! recompiles it and measures one analytic verify launch, so a winner
//! that no longer compiles or launches degrades to a full sweep (the
//! robustness contract of the snapshot layer). The signature covers the
//! default kernel's structural fingerprint, the launch grid, every input's
//! name/shape/dtype, and the device model — anything that changes the
//! sweep's outcome changes the key.

use crate::codegen::{CodegenOptions, FusedOp};
use insum_snapshot::{SnapshotError, Writer};
use insum_tensor::{DType, Tensor};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Upper bound accepted for a persisted tile extent — far above any real
/// configuration (the sweep caps at 64), it exists purely so forged
/// snapshot bytes cannot smuggle absurd extents into codegen.
const MAX_BLOCK: usize = 1 << 20;

/// A tile configuration `(yblock, xblock, rblock)`: a point of the
/// autotuner's sweep space, and what the winner cache stores per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Y tile extent.
    pub yblock: usize,
    /// X tile extent.
    pub xblock: usize,
    /// R tile extent.
    pub rblock: usize,
}

impl TileConfig {
    /// The configuration `op` was generated with.
    pub fn of(op: &FusedOp) -> TileConfig {
        TileConfig {
            yblock: op.yblock,
            xblock: op.xblock,
            rblock: op.rblock,
        }
    }

    /// `base` with its three tile overrides set to this configuration.
    pub fn apply(self, base: &CodegenOptions) -> CodegenOptions {
        CodegenOptions {
            yblock: Some(self.yblock),
            xblock: Some(self.xblock),
            rblock: Some(self.rblock),
            ..base.clone()
        }
    }
}

/// One cached winner plus where it came from (see the module docs for
/// why origin matters).
#[derive(Debug, Clone, Copy)]
struct Winner {
    config: TileConfig,
    from_snapshot: bool,
}

/// Thread-safe map from workload signature to winning [`TileConfig`].
/// See the module docs for what the signature covers and how stale
/// winners degrade.
#[derive(Default)]
pub struct AutotuneCache {
    inner: Mutex<HashMap<u64, Winner>>,
}

impl AutotuneCache {
    /// An empty winner cache.
    pub fn new() -> AutotuneCache {
        AutotuneCache::default()
    }

    /// The process-wide winner cache consulted by [`crate::autotune`].
    pub fn global() -> &'static AutotuneCache {
        static GLOBAL: OnceLock<AutotuneCache> = OnceLock::new();
        GLOBAL.get_or_init(AutotuneCache::new)
    }

    /// The stored winner for `signature`, if any, regardless of origin.
    pub fn lookup(&self, signature: u64) -> Option<TileConfig> {
        self.inner
            .lock()
            .expect("autotune cache poisoned")
            .get(&signature)
            .map(|w| w.config)
    }

    /// The stored winner for `signature` only if it was seeded from a
    /// snapshot — the variant [`crate::autotune`] consults, so that only
    /// a warm restart (not an in-process re-tune) skips the sweep.
    pub(crate) fn lookup_seeded(&self, signature: u64) -> Option<TileConfig> {
        self.inner
            .lock()
            .expect("autotune cache poisoned")
            .get(&signature)
            .filter(|w| w.from_snapshot)
            .map(|w| w.config)
    }

    /// Record `config` as an in-process winner for `signature`
    /// (replacing any previous winner — in-process results are fresher
    /// than snapshots).
    pub fn store(&self, signature: u64, config: TileConfig) {
        self.inner.lock().expect("autotune cache poisoned").insert(
            signature,
            Winner {
                config,
                from_snapshot: false,
            },
        );
    }

    /// Number of stored winners.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("autotune cache poisoned").len()
    }

    /// Whether no winners are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every stored winner.
    pub fn clear(&self) {
        self.inner.lock().expect("autotune cache poisoned").clear();
    }

    /// Encode every winner as a snapshot record
    /// (`[signature][yblock][xblock][rblock]`, all u64 little-endian),
    /// sorted by signature so snapshot bytes are reproducible.
    pub(crate) fn snapshot_records(&self) -> Vec<Vec<u8>> {
        let inner = self.inner.lock().expect("autotune cache poisoned");
        let mut entries: Vec<(u64, TileConfig)> =
            inner.iter().map(|(&s, w)| (s, w.config)).collect();
        entries.sort_by_key(|&(s, _)| s);
        entries
            .into_iter()
            .map(|(signature, c)| {
                let mut w = Writer::new();
                w.u64(signature);
                w.usize(c.yblock);
                w.usize(c.xblock);
                w.usize(c.rblock);
                w.into_bytes()
            })
            .collect()
    }

    /// Decode one snapshot record and merge it in (merge-not-replace: a
    /// resident winner wins over the snapshot's).
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`] on truncated framing or an out-of-range
    /// tile extent — the caller counts these as rejected records.
    pub(crate) fn load_record(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = insum_snapshot::Reader::new(bytes);
        let signature = r.u64("winner signature")?;
        let mut block = |context: &'static str| -> Result<usize, SnapshotError> {
            let b = r.usize(context)?;
            if b == 0 || b > MAX_BLOCK {
                return Err(SnapshotError::Corrupt { context });
            }
            Ok(b)
        };
        let config = TileConfig {
            yblock: block("winner yblock")?,
            xblock: block("winner xblock")?,
            rblock: block("winner rblock")?,
        };
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt {
                context: "trailing bytes after winner record",
            });
        }
        let mut inner = self.inner.lock().expect("autotune cache poisoned");
        inner.entry(signature).or_insert(Winner {
            config,
            from_snapshot: true,
        });
        Ok(())
    }
}

/// The 64-bit workload signature winners are keyed by: FNV-1a over the
/// default kernel's [`insum_kernel::fingerprint`], the launch grid, every
/// input's name/shape/dtype (in `BTreeMap` order, so deterministic), and
/// the device model's `Debug` rendering.
pub(crate) fn workload_signature(
    kernel_fingerprint: u64,
    grid: &[usize],
    inputs: &BTreeMap<String, Tensor>,
    device: &insum_gpu::DeviceModel,
) -> u64 {
    let mut h = Fnv::new();
    h.u64(kernel_fingerprint);
    h.u64(grid.len() as u64);
    for &g in grid {
        h.u64(g as u64);
    }
    h.u64(inputs.len() as u64);
    for (name, t) in inputs {
        h.bytes(name.as_bytes());
        h.u64(t.shape().len() as u64);
        for &d in t.shape() {
            h.u64(d as u64);
        }
        h.u64(u64::from(dtype_rank(t.dtype())));
    }
    h.bytes(format!("{device:?}").as_bytes());
    h.finish()
}

fn dtype_rank(d: DType) -> u8 {
    insum_snapshot::dtype_tag(d)
}

/// FNV-1a, matching the constants `insum_kernel::fingerprint` documents
/// as stable across processes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_lookup_and_merge_semantics() {
        let cache = AutotuneCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(7), None);
        let a = TileConfig {
            yblock: 16,
            xblock: 32,
            rblock: 16,
        };
        cache.store(7, a);
        assert_eq!(cache.lookup(7), Some(a));
        // An in-process winner is visible but never warm-starts tuning.
        assert_eq!(cache.lookup_seeded(7), None);

        // Snapshot records round-trip through load_record...
        let records = cache.snapshot_records();
        assert_eq!(records.len(), 1);
        let other = AutotuneCache::new();
        other.load_record(&records[0]).unwrap();
        assert_eq!(other.lookup(7), Some(a));
        // ...and a loaded winner is snapshot-seeded, so it warm-starts.
        assert_eq!(other.lookup_seeded(7), Some(a));

        // ...but never replace a resident winner.
        let b = TileConfig {
            yblock: 8,
            xblock: 8,
            rblock: 16,
        };
        other.store(7, b);
        other.load_record(&records[0]).unwrap();
        assert_eq!(other.lookup(7), Some(b));
        // The fresher in-process result also reclaims the entry's origin.
        assert_eq!(other.lookup_seeded(7), None);
    }

    #[test]
    fn damaged_winner_records_are_typed() {
        let cache = AutotuneCache::new();
        cache.store(
            1,
            TileConfig {
                yblock: 16,
                xblock: 16,
                rblock: 16,
            },
        );
        let rec = cache.snapshot_records().remove(0);
        let fresh = AutotuneCache::new();
        for cut in 0..rec.len() {
            assert!(fresh.load_record(&rec[..cut]).is_err());
        }
        let mut zero = rec.clone();
        zero[8..16].copy_from_slice(&0u64.to_le_bytes()); // yblock = 0
        assert!(fresh.load_record(&zero).is_err());
        let mut huge = rec.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(fresh.load_record(&huge).is_err());
        let mut trailing = rec;
        trailing.push(0);
        assert!(fresh.load_record(&trailing).is_err());
        assert!(fresh.is_empty());
    }

    #[test]
    fn signature_is_sensitive_to_every_component() {
        let inputs: BTreeMap<String, Tensor> = [("A".to_string(), Tensor::ones(vec![4, 4]))].into();
        let dev = insum_gpu::DeviceModel::rtx3090();
        let base = workload_signature(1, &[4], &inputs, &dev);
        assert_ne!(base, workload_signature(2, &[4], &inputs, &dev));
        assert_ne!(base, workload_signature(1, &[8], &inputs, &dev));
        let renamed: BTreeMap<String, Tensor> =
            [("B".to_string(), Tensor::ones(vec![4, 4]))].into();
        assert_ne!(base, workload_signature(1, &[4], &renamed, &dev));
        let reshaped: BTreeMap<String, Tensor> =
            [("A".to_string(), Tensor::ones(vec![2, 8]))].into();
        assert_ne!(base, workload_signature(1, &[4], &reshaped, &dev));
    }
}

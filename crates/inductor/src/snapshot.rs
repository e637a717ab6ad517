//! Compiler-cache persistence: program-key + autotune-winner snapshots.
//!
//! This module binds the generic container in [`insum_snapshot`] to the
//! compiler's two caches: [`crate::ProgramCache`] (compiled
//! [`insum_gpu::Program`]s) and [`crate::AutotuneCache`] (winning tile
//! configurations). A snapshot written at shutdown lets the next process
//! skip the autotune sweep (40–370 ms) of every workload it already
//! served and start with its program cache populated, so no request
//! waits on a lowering.
//!
//! ## What a program record holds, and why
//!
//! ```text
//! fingerprint:u64 grid:seq(u64) lens:seq(u64) dtypes:seq(u8)
//! kernel:<kernel_wire>
//! ```
//!
//! That is exactly the cache key plus the kernel the key fingerprints —
//! no lowered program. The loader calls [`Program::compile`] on the key:
//! lowering a kernel takes 5–13 µs, a range-checked decode of the same
//! program took 4–11 µs (EXPERIMENTS.md, "PR 8"), and a decoder is a
//! second representation of a compiled artifact that every new
//! `insum_gpu` analysis would have to be kept in step with. A loaded
//! `Program` is therefore the compiler's by construction (and counted
//! in `snapshot_seeded`, not [`crate::ProgramCacheStats::compiles`]).
//!
//! On load every record is verified before it may seed a cache: the
//! record must end where the kernel ends (a file from a build that
//! appended a program body is rejected record by record; its winners
//! still load), the **freshly computed** [`insum_kernel::fingerprint`]
//! of the kernel must equal the stored one (so a record written by an
//! incompatible build of the fingerprint or IR is dropped, not served),
//! and [`Program::compile`] must accept the key — it runs
//! [`insum_kernel::Kernel::validate`] and rejects a bad grid or
//! mismatched argument metadata with a typed error. Any failure rejects
//! that record — counted in [`SnapshotLoadReport::rejected`] and
//! [`crate::ProgramCacheStats::snapshot_rejected`] — and the workload
//! degrades to an ordinary recompile.

use crate::cache::{CacheKey, ProgramCache};
use crate::winners::AutotuneCache;
use insum_gpu::Program;
use insum_kernel::Kernel;
use insum_snapshot::{
    clean_stragglers, read_snapshot, write_atomic, Reader, SnapshotBuilder, SnapshotError, Writer,
    SECTION_AUTOTUNE, SECTION_PROGRAMS,
};
use insum_tensor::DType;
use std::path::Path;

/// What a snapshot load found on disk and what it did about it. The
/// load itself is infallible — every field here is information, not an
/// error to handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotLoadReport {
    /// Program records that passed verification and seeded the cache.
    pub programs_loaded: u64,
    /// Autotune winners that passed validation and seeded the cache.
    pub winners_loaded: u64,
    /// Valid records skipped because an equivalent entry was already
    /// resident (merge-not-replace).
    pub skipped_resident: u64,
    /// Records dropped: container-level damage (CRC, truncation),
    /// unknown section tags, failed verification, or an unreadable
    /// header counted as one.
    pub rejected: u64,
    /// Leftover temp files from a torn [`write_atomic`] that were swept.
    pub stragglers_removed: u64,
    /// True when no snapshot file existed (a normal cold start).
    pub missing: bool,
}

/// Encode one program-cache entry as a snapshot record: its key and
/// the kernel, nothing derived from them.
pub(crate) fn encode_program_record(key: &CacheKey, kernel: &Kernel) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(key.fingerprint);
    for extents in [&key.grid, &key.lens] {
        w.usize(extents.len());
        for &e in extents {
            w.usize(e);
        }
    }
    w.usize(key.dtypes.len());
    for &d in &key.dtypes {
        w.u8(insum_snapshot::dtype_tag(d));
    }
    insum_snapshot::encode_kernel_into(kernel, &mut w);
    w.into_bytes()
}

fn decode_program_record(bytes: &[u8]) -> Result<(CacheKey, Kernel, Program), SnapshotError> {
    fn extents(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<usize>, SnapshotError> {
        let n = r.seq_len(8, what)?;
        (0..n).map(|_| r.usize(what)).collect()
    }
    let mut r = Reader::new(bytes);
    let fingerprint = r.u64("program record fingerprint")?;
    let grid = extents(&mut r, "program record grid")?;
    let lens = extents(&mut r, "program record lens")?;
    let n = r.seq_len(1, "program record dtypes")?;
    let dtypes = (0..n)
        .map(|_| insum_snapshot::tag_dtype(r.u8("param dtype")?))
        .collect::<Result<Vec<DType>, _>>()?;
    let kernel = insum_snapshot::decode_kernel_from(&mut r)?;
    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupt {
            context: "trailing bytes after program record",
        });
    }
    // The load-bearing staleness check: a record from an incompatible
    // build (different IR, different fingerprint function) cannot match
    // a freshly computed fingerprint of the kernel it carries.
    if insum_kernel::fingerprint(&kernel) != fingerprint {
        return Err(SnapshotError::Invalid {
            context: "stored fingerprint does not match re-fingerprinted kernel".to_string(),
        });
    }
    // Validates the kernel and the key; the program is the compiler's.
    let program =
        Program::compile(&kernel, &grid, &lens, &dtypes).map_err(|e| SnapshotError::Invalid {
            context: format!("program record does not compile: {e}"),
        })?;
    let key = CacheKey {
        fingerprint,
        grid,
        lens,
        dtypes,
    };
    Ok((key, kernel, program))
}

/// Write `programs` and `winners` to `path` atomically. Returns the
/// number of records written.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failure (encoding is infallible).
pub fn save_snapshot_with(
    path: &Path,
    programs: &ProgramCache,
    winners: &AutotuneCache,
) -> Result<u64, SnapshotError> {
    let mut b = SnapshotBuilder::new();
    for rec in programs.snapshot_records() {
        b.record(SECTION_PROGRAMS, rec);
    }
    for rec in winners.snapshot_records() {
        b.record(SECTION_AUTOTUNE, rec);
    }
    let count = b.record_count() as u64;
    write_atomic(path, &b.finish())?;
    Ok(count)
}

/// Merge the snapshot at `path` into `programs` and `winners`,
/// degrading — never failing — on damage. Sweeps torn-write stragglers
/// first, so a crash mid-save never accumulates junk next to the
/// durable snapshot. See [`SnapshotLoadReport`] for the accounting;
/// everything counted `rejected` is also added to
/// [`crate::ProgramCacheStats::snapshot_rejected`].
pub fn load_snapshot_with(
    path: &Path,
    programs: &ProgramCache,
    winners: &AutotuneCache,
) -> SnapshotLoadReport {
    let mut report = SnapshotLoadReport {
        stragglers_removed: clean_stragglers(path),
        ..SnapshotLoadReport::default()
    };
    if !path.exists() {
        report.missing = true;
        return report;
    }
    let snap = match read_snapshot(path) {
        Ok(snap) => snap,
        Err(_) => {
            // Unreadable header (bad magic, version skew, truncation
            // inside the header, IO error): the whole file is one
            // rejected artifact.
            report.rejected = 1;
            programs.note_snapshot_rejected(1);
            return report;
        }
    };
    report.rejected += snap.rejected;
    for section in &snap.sections {
        if section.tag != SECTION_PROGRAMS && section.tag != SECTION_AUTOTUNE {
            report.rejected += section.records.len() as u64;
        }
    }
    for rec in snap.records(SECTION_PROGRAMS) {
        match decode_program_record(rec) {
            Ok((key, kernel, program)) => {
                if programs.seed_from_snapshot(key, kernel, program) {
                    report.programs_loaded += 1;
                } else {
                    report.skipped_resident += 1;
                }
            }
            Err(_) => report.rejected += 1,
        }
    }
    for rec in snap.records(SECTION_AUTOTUNE) {
        let before = winners.len();
        match winners.load_record(rec) {
            Ok(()) => {
                if winners.len() > before {
                    report.winners_loaded += 1;
                } else {
                    report.skipped_resident += 1;
                }
            }
            Err(_) => report.rejected += 1,
        }
    }
    programs.note_snapshot_rejected(report.rejected);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::winners::TileConfig;
    use insum_kernel::{fingerprint, BinOp, KernelBuilder};
    use std::fs;
    use std::path::PathBuf;

    fn scale_kernel(scale: f64) -> Kernel {
        let mut b = KernelBuilder::new("scale");
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

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "insum_inductor_snapshot_{tag}_{}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_seeds_without_compiling() {
        let dir = tmp_dir("round_trip");
        let path = dir.join("cache.snap");

        let hot = ProgramCache::new();
        hot.get_or_compile(&scale_kernel(2.0), &[4], &LENS, &DTS)
            .unwrap();
        hot.get_or_compile(&scale_kernel(3.0), &[4], &LENS, &DTS)
            .unwrap();
        let winners = AutotuneCache::new();
        winners.store(
            11,
            TileConfig {
                yblock: 16,
                xblock: 32,
                rblock: 16,
            },
        );
        assert_eq!(save_snapshot_with(&path, &hot, &winners).unwrap(), 3);

        let cold = ProgramCache::new();
        let cold_winners = AutotuneCache::new();
        let report = load_snapshot_with(&path, &cold, &cold_winners);
        assert_eq!(report.programs_loaded, 2);
        assert_eq!(report.winners_loaded, 1);
        assert_eq!(report.rejected, 0);
        assert!(!report.missing);
        let s = cold.stats();
        assert_eq!((s.snapshot_seeded, s.entries), (2, 2));

        // The warm lookups hit without lowering anything.
        cold.get_or_compile(&scale_kernel(2.0), &[4], &LENS, &DTS)
            .unwrap();
        cold.get_or_compile(&scale_kernel(3.0), &[4], &LENS, &DTS)
            .unwrap();
        let s = cold.stats();
        assert_eq!((s.hits, s.warm_hits, s.compiles), (2, 2, 0));
        assert_eq!(
            cold_winners.lookup(11),
            Some(TileConfig {
                yblock: 16,
                xblock: 32,
                rblock: 16
            })
        );

        // Loading again is merge-not-replace: nothing double-seeds.
        let again = cold.load_snapshot(&path);
        assert_eq!(again.programs_loaded, 0);
        assert_eq!(again.skipped_resident, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_a_cold_start_not_an_error() {
        let dir = tmp_dir("missing");
        let report = load_snapshot_with(
            &dir.join("never_written.snap"),
            &ProgramCache::new(),
            &AutotuneCache::new(),
        );
        assert!(report.missing);
        assert_eq!(report.rejected, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_straggler_is_ignored_and_swept() {
        let dir = tmp_dir("torn");
        let path = dir.join("cache.snap");

        let hot = ProgramCache::new();
        hot.get_or_compile(&scale_kernel(2.0), &[4], &LENS, &DTS)
            .unwrap();
        hot.save_snapshot(&path).unwrap();

        // Crash mid-save: a half-written temp file next to the durable
        // snapshot. The next boot must load the durable one and sweep
        // the straggler.
        let bytes = fs::read(&path).unwrap();
        fs::write(insum_snapshot::temp_path(&path), &bytes[..bytes.len() / 2]).unwrap();
        let cold = ProgramCache::new();
        let report = cold.load_snapshot(&path);
        assert_eq!(report.stragglers_removed, 1);
        assert_eq!(report.programs_loaded, 1);
        assert_eq!(report.rejected, 0);
        assert!(!insum_snapshot::temp_path(&path).exists());

        // Crash before the *first* save ever renamed: only a temp file
        // exists. That is a cold start, plus a sweep.
        let path2 = dir.join("never_renamed.snap");
        fs::write(insum_snapshot::temp_path(&path2), b"half").unwrap();
        let report = ProgramCache::new().load_snapshot(&path2);
        assert!(report.missing);
        assert_eq!(report.stragglers_removed, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_header_counts_one_rejection() {
        let dir = tmp_dir("header");
        let path = dir.join("cache.snap");
        fs::write(&path, b"NOTASNAPSHOT").unwrap();
        let cache = ProgramCache::new();
        let report = cache.load_snapshot(&path);
        assert_eq!(report.rejected, 1);
        assert_eq!(cache.stats().snapshot_rejected, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A file written before records stopped carrying a lowered program:
    /// same container, key and kernel, then a program body. Each such
    /// record is rejected by itself; the winner beside it loads.
    #[test]
    fn record_with_a_trailing_program_body_is_rejected_alone() {
        let dir = tmp_dir("old_layout");
        let path = dir.join("cache.snap");
        let k = scale_kernel(2.0);
        let mut old = encode_program_record(&CacheKey::of(&k, &[4], &LENS, &DTS), &k);
        old.extend_from_slice(&[7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1]); // num_regs, flags, ...
        assert!(matches!(
            decode_program_record(&old),
            Err(SnapshotError::Corrupt { .. })
        ));

        let tile = TileConfig {
            yblock: 16,
            xblock: 32,
            rblock: 16,
        };
        let hot_winners = AutotuneCache::new();
        hot_winners.store(11, tile);
        let mut b = SnapshotBuilder::new();
        b.record(SECTION_PROGRAMS, old);
        b.record(SECTION_AUTOTUNE, hot_winners.snapshot_records().remove(0));
        write_atomic(&path, &b.finish()).unwrap();

        let (cold, winners) = (ProgramCache::new(), AutotuneCache::new());
        let r = load_snapshot_with(&path, &cold, &winners);
        assert_eq!((r.programs_loaded, r.winners_loaded, r.rejected), (0, 1, 1));
        assert_eq!(winners.lookup(11), Some(tile));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_keys_are_rejected_by_the_compiler() {
        let k = scale_kernel(2.0);
        let decode = |k: &Kernel, grid: &[usize], lens: &[usize], dtypes: &[DType]| {
            decode_program_record(&encode_program_record(
                &CacheKey::of(k, grid, lens, dtypes),
                k,
            ))
        };
        let forged: [(&[usize], &[usize], &[DType]); 5] = [
            (&[], &LENS, &DTS),              // empty grid
            (&[4, 0], &LENS, &DTS),          // zero extent
            (&[1, 2, 3, 4], &LENS, &DTS),    // rank 4
            (&[usize::MAX, 2], &LENS, &DTS), // instance count overflows
            (&[4], &LENS[..1], &DTS[..1]),   // one argument short
        ];
        for (grid, lens, dtypes) in forged {
            assert!(
                matches!(
                    decode(&k, grid, lens, dtypes),
                    Err(SnapshotError::Invalid { .. })
                ),
                "grid {grid:?} lens {lens:?}"
            );
        }
        // Any element count is a key nobody will look up, not a panic.
        assert!(decode(&k, &[4], &[usize::MAX; 2], &DTS).is_ok());
        // A kernel that fails validation (register out of range).
        let mut bad = k.clone();
        bad.num_regs -= 1;
        assert!(decode(&bad, &[4], &LENS, &DTS).is_err());
    }

    #[test]
    fn record_is_the_cache_key_and_the_kernel_nothing_else() {
        let k = scale_kernel(2.0);
        let grid = [4usize, 2];
        let rec = encode_program_record(&CacheKey::of(&k, &grid, &LENS, &DTS), &k);
        // fingerprint, then three length-prefixed sequences.
        let key_bytes = 8 + (8 + 8 * grid.len()) + (8 + 8 * LENS.len()) + (8 + DTS.len());
        let kernel_bytes = insum_snapshot::encode_kernel(&k);
        assert_eq!(rec.len(), key_bytes + kernel_bytes.len());
        assert!(rec.ends_with(&kernel_bytes));
    }

    #[test]
    fn stale_fingerprint_record_is_rejected() {
        let hot = ProgramCache::new();
        let k = scale_kernel(2.0);
        hot.get_or_compile(&k, &[4], &LENS, &DTS).unwrap();
        let mut rec = hot.snapshot_records().remove(0);
        // Forge the stored fingerprint: simulates a record written by a
        // build whose fingerprint function (or IR) disagrees with ours.
        let forged = fingerprint(&k) ^ 1;
        rec[..8].copy_from_slice(&forged.to_le_bytes());
        assert!(matches!(
            decode_program_record(&rec),
            Err(SnapshotError::Invalid { .. })
        ));
    }
}

//! Checksummed binary snapshots of the compiler's caches: the
//! repository's one wire format.
//!
//! A process restart used to throw away every autotune winner and every
//! program-cache key, turning a fleet restart into a cold-start stampede
//! through the autotune sweeps. This crate is the durability layer
//! underneath `ProgramCache::{save,load}_snapshot` and
//! `ServeConfig::with_snapshot`: a compact self-describing container
//! ([`mod@file`]) framing CRC-checked records, plus the one payload
//! codec those records need — kernel IR ([`kernel_wire`]). There is no
//! codec for tensors and none for compiled programs: a program record
//! carries its cache key (fingerprint, grid, argument metadata, kernel)
//! and the loader recompiles, which costs what a decode would (see
//! `insum_inductor`'s snapshot module).
//!
//! ## Robustness contract
//!
//! A snapshot on disk may be stale, truncated mid-write, bit-flipped,
//! or written by an incompatible build. The contract everywhere in this
//! crate is **degrade to recompile, never wrong bits, never a panic**:
//!
//! - Header damage yields a typed [`SnapshotError`]
//!   ([`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`]).
//! - Body damage never errors at all: [`Snapshot::parse`] skips every
//!   record whose CRC-32 fails (CRC-32 detects all single-byte flips)
//!   and counts it in [`Snapshot::rejected`].
//! - The record payload decoder ([`decode_kernel`]) is defensive
//!   against forged-but-CRC-valid bytes: range checks, allocation
//!   guards, and depth caps, all returning typed errors.
//! - Writes are crash-safe: [`write_atomic`] stages a temp file, fsyncs,
//!   then renames, and [`clean_stragglers`] sweeps the temp file a
//!   crash between those steps leaves behind.
//!
//! Cache loaders built on top add one more verification layer: each
//! program record embeds the kernel's stable
//! [`insum_kernel::fingerprint`], re-fingerprinted on load so a stale
//! record (same bytes, different compiler) is dropped instead of served.

mod error;
pub mod file;
pub mod kernel_wire;
pub mod wire;

pub use error::SnapshotError;
pub use file::{
    clean_stragglers, read_snapshot, temp_path, write_atomic, Snapshot, SnapshotBuilder,
    SnapshotSection, FORMAT_VERSION, MAGIC, SECTION_AUTOTUNE, SECTION_PROGRAMS,
};
pub use kernel_wire::{
    decode_kernel, decode_kernel_from, dtype_tag, encode_kernel, encode_kernel_into, tag_dtype,
};
pub use wire::{crc32, Reader, Writer};

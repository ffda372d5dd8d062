//! Durability for the exchange pipeline: a dependency-free record codec,
//! an append-only write-ahead log (WAL), and whole-state snapshots.
//!
//! The workspace builds offline against a no-op `serde` stub (see
//! `vendor/README.md`), so everything here is hand-rolled. The crate also
//! hosts [`json`], the JSON writer BENCH output uses; the WAL and
//! snapshots never touch it.
//!
//! Three layers:
//!
//! * [`codec`] — primitive binary encoding: little-endian integers,
//!   length-prefixed strings and vectors, and the CRC32 every framed
//!   record is checksummed with.
//! * [`record`] + [`wal`] — the WAL: every exchange transition (offer
//!   submit/cancel, plan commit, stage transitions, settle/refund,
//!   identity mint/lease) as a versioned, length-prefixed, checksummed
//!   [`record::WalRecord`] frame, appended through a group-commit buffer
//!   ([`wal::Wal`]) and read back tolerating a torn final record
//!   ([`wal::read_wal`]).
//! * [`snapshot`] — periodic whole-state snapshots that truncate the log:
//!   encoded in one pass from borrowed state into a single frame buffer
//!   ([`snapshot::SnapshotFrame`]), written temp-then-rename (atomic on
//!   POSIX) with a directory fsync, and loaded newest-first as an owned
//!   [`snapshot::ExchangeSnapshot`].
//!
//! The store deliberately depends on **nothing**: record and snapshot
//! types mirror the domain types (offers, identities, reports) as raw
//! 32-byte arrays, strings, and `u8` tags. The conversions live where the
//! domain types do — `swap-core`'s `exchange.rs` — so the durability
//! format cannot create dependency cycles and is testable in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod json;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use codec::{crc32, DecodeError, Decoder, Encoder};
pub use record::{
    decode_frames, encode_frame, frame_len, put_frame, FailTag, FrameScan, Framed, SeedRecord,
    StageTag, WalRecord,
};
pub use snapshot::{
    encode_book, encode_identity, load_latest_snapshot, write_snapshot, BookEntryRecord,
    BookEntryRef, BookRecord, ExchangeSnapshot, IdentityRecord, MaterialRecord, MetricsRecord,
    OfferStatusRecord, ReportRecord, SnapshotFrame, SnapshotHead, StageTicksRecord, StorageRecord,
    SwapLineRecord,
};
pub use wal::{read_wal, Wal, WAL_FILE};

/// Fsyncs the directory `dir`, making the entries created or renamed in
/// it durable: without it a crash can lose a file whose *data* was
/// synced. A no-op where directories cannot be opened as files.
fn sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

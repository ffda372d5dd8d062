//! The snapshot wire format, pinned from both sides.
//!
//! The exchange encodes its snapshot in one pass over live state
//! ([`Exchange::encode_snapshot`]); the owned [`ExchangeSnapshot`] is only
//! the decode type. These tests drive a journaled exchange into a
//! pipeline-empty state that holds every kind of durable state — open,
//! cancelled, settled and refunded offers, a non-empty deferred set,
//! identities with leased leaves, and a report with swap lines — and
//! check that:
//!
//! * decoding the live-encoded snapshot and re-encoding it through
//!   [`ExchangeSnapshot`] gives back identical bytes;
//! * `tests/golden/snapshot_v1.snap` — the same scenario's snapshot file
//!   as written by the earlier encoder, which first copied the state into
//!   an owned `ExchangeSnapshot` — still loads, recovers to the live
//!   report, and equals what the live encoder writes today, byte for byte;
//! * `tests/golden/wal_v1.log` — the same scenario's write-ahead log as
//!   written by an earlier build — equals today's log byte for byte, and
//!   recovers alone to the live report;
//! * a checksum-valid snapshot holding a value this build cannot
//!   interpret is refused by recovery with an error, not a panic.

use std::path::{Path, PathBuf};

use swap_core::exchange::{
    Exchange, ExchangeConfig, JournalConfig, PartySeed, RecoverError, StepEvent,
};
use swap_crypto::Secret;
use swap_market::AssetKind;
use swap_sim::SimRng;
use swap_store::record::decode_snapshot_frame;
use swap_store::{ExchangeSnapshot, OfferStatusRecord, SnapshotFrame, WAL_FILE};

/// The earlier encoder's snapshot of [`scenario`].
const GOLDEN: &[u8] = include_bytes!("golden/snapshot_v1.snap");

/// An earlier build's write-ahead log of [`scenario`].
const GOLDEN_WAL: &[u8] = include_bytes!("golden/wal_v1.log");

fn config() -> ExchangeConfig {
    ExchangeConfig { threads: 1, ..Default::default() }
}

fn journal(dir: &Path) -> JournalConfig {
    JournalConfig { snapshot_every: 0, ..JournalConfig::new(dir) }
}

/// A fresh scratch directory under the test-private target tmpdir.
fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("snapshot-format").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale store removable");
    }
    std::fs::create_dir_all(&dir).expect("store dir creatable");
    dir
}

fn party(rng: &mut SimRng, key_height: u32, gives: &str, wants: &str) -> PartySeed {
    PartySeed {
        seed: rng.bytes32(),
        key_height,
        secret: Secret::random(rng),
        gives: AssetKind::new(gives),
        wants: AssetKind::new(wants),
    }
}

/// Drives a journaled exchange in `dir` to a pipeline-empty state holding
/// every kind of durable state the snapshot format carries.
fn scenario(dir: &Path) -> Exchange {
    let mut ex = Exchange::with_journal(config(), journal(dir)).expect("store opens");
    let mut rng = SimRng::from_seed(0x5AA9_0001);
    // A 3-party ring that settles: swap lines and leased leaves.
    ex.submit_seeded(vec![
        party(&mut rng, 2, "a", "b"),
        party(&mut rng, 2, "b", "c"),
        party(&mut rng, 2, "c", "a"),
    ]);
    // A 2-party ring whose second party has one one-time key, fewer than
    // a swap needs: refunded at provisioning.
    ex.submit_seeded(vec![party(&mut rng, 2, "x", "y"), party(&mut rng, 0, "y", "x")]);
    // One identity on both sides of a 2-cycle: the clearing rejects it and
    // both offers stay open, deferred.
    let solo = ex.submit_seeded(vec![party(&mut rng, 1, "p", "q")]);
    let solo_secret = Secret::random(&mut rng);
    ex.resubmit(solo[0].1, solo_secret, AssetKind::new("q"), AssetKind::new("p"))
        .expect("registered identity");
    // A cancelled offer, and an open one from the same identity.
    let idle = ex.submit_seeded(vec![party(&mut rng, 1, "m", "void")]);
    ex.cancel(idle[0].0).expect("open offer cancels");
    let idle_secret = Secret::random(&mut rng);
    ex.resubmit(idle[0].1, idle_secret, AssetKind::new("n"), AssetKind::new("void"))
        .expect("registered identity");
    for _ in 0..1000 {
        // The refund surfaces as a step error; the pipeline carries on.
        if let Ok(StepEvent::Quiescent) = ex.step() {
            return ex;
        }
    }
    panic!("scenario did not reach quiescence");
}

fn live_frame(ex: &Exchange) -> SnapshotFrame {
    ex.encode_snapshot().expect("snapshot encodes").expect("journal has records")
}

#[test]
fn live_snapshot_decodes_and_re_encodes_to_identical_bytes() {
    let dir = store_dir("round-trip");
    let ex = scenario(&dir);
    let frame = live_frame(&ex);
    let (seq, payload) = decode_snapshot_frame(frame.bytes()).expect("frame checks out");
    assert_eq!(seq, frame.last_seq());
    let snap = ExchangeSnapshot::decode_payload(payload).expect("payload decodes");

    // The scenario really covers every kind of durable state.
    let statuses: Vec<OfferStatusRecord> = snap.book.entries.iter().map(|e| e.status).collect();
    for status in [
        OfferStatusRecord::Open,
        OfferStatusRecord::Cancelled,
        OfferStatusRecord::Settled,
        OfferStatusRecord::Refunded,
    ] {
        assert!(statuses.contains(&status), "no {status:?} offer in {statuses:?}");
    }
    assert_eq!(snap.book.deferred.len(), 2, "the self-trading pair is deferred");
    assert!(snap.identities.iter().any(|id| id.next_leaf > 0), "some identity leased leaves");
    assert!(snap.report.swaps.iter().any(|s| s.settled));
    assert!(snap.report.swaps_refunded > 0);

    let again = SnapshotFrame::encode(snap.last_seq, |e| snap.encode(e)).expect("re-encodes");
    assert_eq!(again.bytes(), frame.bytes());
}

#[test]
fn a_snapshot_written_by_the_earlier_encoder_still_loads() {
    let dir = store_dir("golden-live");
    let mut ex = scenario(&dir);
    let live_report = ex.report().clone();
    // Today's one-pass encoder writes exactly the earlier encoder's bytes.
    assert_eq!(live_frame(&ex).bytes(), GOLDEN);
    ex.snapshot_now().expect("snapshot writes");
    drop(ex);
    let written: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("store dir readable")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(written.len(), 1);
    assert_eq!(std::fs::read(&written[0]).expect("snapshot readable"), GOLDEN);

    // The golden file alone, as a store: it recovers to the live report,
    // and re-snapshotting the recovered exchange reproduces it.
    let (seq, _) = decode_snapshot_frame(GOLDEN).expect("golden frame checks out");
    let dir = store_dir("golden-only");
    std::fs::write(dir.join(format!("snap-{seq:020}.snap")), GOLDEN).expect("golden copied");
    let recovered = Exchange::recover(config(), journal(&dir)).expect("golden store recovers");
    assert_eq!(recovered.stats.snapshot_seq, Some(seq));
    assert_eq!(recovered.stats.commands_replayed, 0);
    assert_eq!(recovered.exchange.report(), &live_report);
    assert_eq!(live_frame(&recovered.exchange).bytes(), GOLDEN);
}

#[test]
fn the_journal_written_today_equals_the_golden_wal() {
    let dir = store_dir("wal-live");
    let mut ex = scenario(&dir);
    ex.sync_journal().expect("journal syncs");
    let live_report = ex.report().clone();
    drop(ex);
    assert_eq!(std::fs::read(dir.join(WAL_FILE)).expect("wal readable"), GOLDEN_WAL);

    // The golden log alone, as a store, replays to the live report.
    let dir = store_dir("wal-golden-only");
    std::fs::write(dir.join(WAL_FILE), GOLDEN_WAL).expect("golden copied");
    let recovered = Exchange::recover(config(), journal(&dir)).expect("golden log recovers");
    assert_eq!(recovered.stats.snapshot_seq, None);
    assert!(!recovered.stats.torn_tail);
    assert!(recovered.stats.commands_replayed > 0);
    assert_eq!(recovered.exchange.report(), &live_report);
}

#[test]
fn recovery_refuses_an_unknown_protocol_tag_without_panicking() {
    let (seq, payload) = decode_snapshot_frame(GOLDEN).expect("golden frame checks out");
    let mut snap = ExchangeSnapshot::decode_payload(payload).expect("payload decodes");
    snap.report.swaps[0].protocol = 7;
    // Re-framed, so the checksum is valid and only the value is foreign.
    let frame = SnapshotFrame::encode(seq, |e| snap.encode(e)).expect("re-encodes");
    let dir = store_dir("bad-protocol-tag");
    std::fs::write(dir.join(format!("snap-{seq:020}.snap")), frame.bytes()).expect("written");
    match Exchange::recover(config(), journal(&dir)) {
        Err(RecoverError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        other => panic!("expected an InvalidData error, got {:?}", other.map(|r| r.stats)),
    }
}

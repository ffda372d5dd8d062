//! Conversions between the exchange's domain types and `swap-store`'s
//! dependency-free wire records.
//!
//! The store crate deliberately knows nothing about `swap-core` — its
//! records carry raw `[u8; 32]`s, `u64`s, and `String`s so the codec stays
//! auditable and the crate dependency-free. Every snapshot/WAL field is
//! mirrored here, one function per direction, so a change on either side
//! fails to compile instead of silently truncating state. Snapshots go
//! out through borrowed walks ([`encode_report`], [`encode_book_view`]),
//! written straight into the frame buffer with no owned copy of the
//! book, and come back as owned records that recovery consumes
//! ([`book_from_record`]). The exchange's journaling and recovery logic
//! lives in [`crate::exchange`]; this module is pure data plumbing.

use std::io;

use swap_chain::StorageReport;
use swap_crypto::{sha256, Digest32, Hashlock, MssPublicKey};
use swap_market::{AssetKind, BookSnapshot, BookView, Offer, OfferId, OfferStatus, SwapId};
use swap_store::{
    encode_book, BookEntryRef, BookRecord, Encoder, FailTag, MetricsRecord, OfferStatusRecord,
    ReportRecord, StageTag, StageTicksRecord, StorageRecord, SwapLineRecord,
};

use crate::exchange::{
    EpochStage, ExchangeConfig, ExchangeError, ExchangeReport, StageTicks, SwapSummary,
};
use crate::protocol::ProtocolKind;
use crate::runner::RunMetrics;

/// Digest of the *semantic* exchange configuration. Recovery refuses a
/// store written under a different digest: replaying a log against changed
/// clearing rules or stage costs would silently diverge instead of
/// rebuilding the crashed exchange. `threads` is excluded — it is a host
/// wall-clock knob the report is invariant under, so recovering on a
/// different worker count is explicitly allowed (and tested).
pub(crate) fn config_digest(config: &ExchangeConfig) -> [u8; 32] {
    let semantic = format!(
        "delta={:?};executing_slots={};run={:?};leader_strategy={:?};protocol={:?};\
         clearing_mode={:?};stage_costs={:?}",
        config.delta,
        config.executing_slots.max(1),
        config.run,
        config.leader_strategy,
        config.protocol,
        config.clearing_mode,
        config.stage_costs,
    );
    *sha256(semantic.as_bytes()).as_bytes()
}

/// [`EpochStage`] → wire tag.
pub(crate) fn stage_tag(stage: EpochStage) -> StageTag {
    match stage {
        EpochStage::Clearing => StageTag::Clearing,
        EpochStage::Provisioning => StageTag::Provisioning,
        EpochStage::Executing => StageTag::Executing,
        EpochStage::Settling => StageTag::Settling,
    }
}

/// [`ExchangeError`] → wire tag (the stable identity of a logged failure;
/// inner error detail is regenerated by replay, not stored).
pub(crate) fn fail_tag(error: &ExchangeError) -> FailTag {
    match error {
        ExchangeError::Clear(_) => FailTag::Clear,
        ExchangeError::Verify { swap, .. } => FailTag::Verify { swap: swap.raw() },
        ExchangeError::WorkerPanicked(swap) => FailTag::WorkerPanicked { swap: swap.raw() },
        ExchangeError::KeysExhausted { swap, address } => {
            FailTag::KeysExhausted { swap: swap.raw(), address: *address.digest().as_bytes() }
        }
    }
}

fn protocol_tag(protocol: ProtocolKind) -> u8 {
    match protocol {
        ProtocolKind::Hashkey => 0,
        ProtocolKind::Htlc => 1,
    }
}

/// A tag this build does not know is `InvalidData`: the record passed
/// its checksum, so the store came from a build with more protocols.
fn protocol_from_tag(tag: u8) -> io::Result<ProtocolKind> {
    match tag {
        0 => Ok(ProtocolKind::Hashkey),
        1 => Ok(ProtocolKind::Htlc),
        t => Err(io::Error::new(io::ErrorKind::InvalidData, format!("unknown protocol tag {t}"))),
    }
}

fn metrics_record(m: &RunMetrics) -> MetricsRecord {
    MetricsRecord {
        rounds: m.rounds,
        contracts_published: m.contracts_published,
        unlock_calls: m.unlock_calls,
        unlock_bytes: m.unlock_bytes,
        claim_calls: m.claim_calls,
        refund_calls: m.refund_calls,
        direct_transfers: m.direct_transfers,
        rejected_calls: m.rejected_calls,
        announce_bytes: m.announce_bytes,
    }
}

fn metrics_from_record(m: &MetricsRecord) -> RunMetrics {
    RunMetrics {
        rounds: m.rounds,
        contracts_published: m.contracts_published,
        unlock_calls: m.unlock_calls,
        unlock_bytes: m.unlock_bytes,
        claim_calls: m.claim_calls,
        refund_calls: m.refund_calls,
        direct_transfers: m.direct_transfers,
        rejected_calls: m.rejected_calls,
        announce_bytes: m.announce_bytes,
    }
}

fn storage_record(s: &StorageReport) -> StorageRecord {
    StorageRecord {
        blocks: s.blocks,
        block_bytes: s.block_bytes as u64,
        contract_bytes: s.contract_bytes as u64,
        asset_bytes: s.asset_bytes as u64,
        tx_bytes: s.tx_bytes as u64,
    }
}

fn storage_from_record(s: &StorageRecord) -> StorageReport {
    StorageReport {
        blocks: s.blocks,
        block_bytes: s.block_bytes as usize,
        contract_bytes: s.contract_bytes as usize,
        asset_bytes: s.asset_bytes as usize,
        tx_bytes: s.tx_bytes as usize,
    }
}

/// [`ExchangeReport`]'s counters → snapshot record, field by field, with
/// no swap lines: [`encode_report`] streams those.
fn report_counters(r: &ExchangeReport) -> ReportRecord {
    ReportRecord {
        epochs: r.epochs,
        offers_submitted: r.offers_submitted,
        offers_cancelled: r.offers_cancelled,
        swaps_cleared: r.swaps_cleared,
        swaps_settled: r.swaps_settled,
        swaps_refunded: r.swaps_refunded,
        swaps_exhausted: r.swaps_exhausted,
        identities_registered: r.identities_registered,
        identities_minted: r.identities_minted,
        mints_overlapping_execution: r.mints_overlapping_execution,
        leaves_leased: r.leaves_leased,
        wall_ticks: r.wall_ticks,
        stage_ticks: StageTicksRecord {
            clearing: r.stage_ticks.clearing,
            provisioning: r.stage_ticks.provisioning,
            executing: r.stage_ticks.executing,
            settling: r.stage_ticks.settling,
        },
        executing_peak: r.executing_peak,
        executing_resident_ticks: r.executing_resident_ticks,
        tx_executed: r.tx_executed,
        tx_rolled_back: r.tx_rolled_back,
        storage: storage_record(&r.storage),
        swaps: Vec::new(),
    }
}

fn swap_line_record(s: &SwapSummary) -> SwapLineRecord {
    SwapLineRecord {
        swap: s.swap.raw(),
        epoch: s.epoch,
        parties: s.parties as u64,
        leaders: s.leaders as u64,
        protocol: protocol_tag(s.protocol),
        settled: s.settled,
        all_deal: s.all_deal,
        rounds: s.rounds,
        metrics: metrics_record(&s.metrics),
    }
}

/// Writes the snapshot's report section from the live report, streaming
/// its swap lines.
pub(crate) fn encode_report(e: &mut Encoder, r: &ExchangeReport) {
    report_counters(r).encode_with_lines(e, r.swaps.iter().map(swap_line_record));
}

/// Snapshot record → [`ExchangeReport`], the inverse of
/// [`encode_report`]; recovery restores the report verbatim so the
/// byte-identical-report invariant holds across a crash.
///
/// # Errors
///
/// `InvalidData` for a swap line whose protocol tag this build does not
/// know.
pub(crate) fn report_from_record(r: &ReportRecord) -> io::Result<ExchangeReport> {
    Ok(ExchangeReport {
        epochs: r.epochs,
        offers_submitted: r.offers_submitted,
        offers_cancelled: r.offers_cancelled,
        swaps_cleared: r.swaps_cleared,
        swaps_settled: r.swaps_settled,
        swaps_refunded: r.swaps_refunded,
        swaps_exhausted: r.swaps_exhausted,
        identities_registered: r.identities_registered,
        identities_minted: r.identities_minted,
        mints_overlapping_execution: r.mints_overlapping_execution,
        leaves_leased: r.leaves_leased,
        wall_ticks: r.wall_ticks,
        stage_ticks: StageTicks {
            clearing: r.stage_ticks.clearing,
            provisioning: r.stage_ticks.provisioning,
            executing: r.stage_ticks.executing,
            settling: r.stage_ticks.settling,
        },
        executing_peak: r.executing_peak,
        executing_resident_ticks: r.executing_resident_ticks,
        tx_executed: r.tx_executed,
        tx_rolled_back: r.tx_rolled_back,
        storage: storage_from_record(&r.storage),
        swaps: r
            .swaps
            .iter()
            .map(|s| {
                Ok(SwapSummary {
                    swap: SwapId::from_raw(s.swap),
                    epoch: s.epoch,
                    parties: s.parties as usize,
                    leaders: s.leaders as usize,
                    protocol: protocol_from_tag(s.protocol)?,
                    settled: s.settled,
                    all_deal: s.all_deal,
                    rounds: s.rounds,
                    metrics: metrics_from_record(&s.metrics),
                })
            })
            .collect::<io::Result<_>>()?,
    })
}

fn status_record(status: OfferStatus) -> OfferStatusRecord {
    match status {
        OfferStatus::Open => OfferStatusRecord::Open,
        OfferStatus::Cancelled => OfferStatusRecord::Cancelled,
        OfferStatus::Matched { epoch, swap } => {
            OfferStatusRecord::Matched { epoch, swap: swap.raw() }
        }
        OfferStatus::Settled => OfferStatusRecord::Settled,
        OfferStatus::Refunded => OfferStatusRecord::Refunded,
    }
}

fn status_from_record(status: OfferStatusRecord) -> OfferStatus {
    match status {
        OfferStatusRecord::Open => OfferStatus::Open,
        OfferStatusRecord::Cancelled => OfferStatus::Cancelled,
        OfferStatusRecord::Matched { epoch, swap } => {
            OfferStatus::Matched { epoch, swap: SwapId::from_raw(swap) }
        }
        OfferStatusRecord::Settled => OfferStatus::Settled,
        OfferStatusRecord::Refunded => OfferStatus::Refunded,
    }
}

/// One offer as a borrowed book entry. Offers persist as `(root, height,
/// hashlock, kinds)`: the public key's Merkle root is its identity, and
/// the signing leaves live in the identity records, not the book.
fn entry_ref(offer: &Offer, status: OfferStatus) -> BookEntryRef<'_> {
    BookEntryRef {
        root: offer.key.root().as_bytes(),
        key_height: offer.key.height() as u8,
        hashlock: offer.hashlock.digest().as_bytes(),
        gives: &offer.gives.0,
        wants: &offer.wants.0,
        status: status_record(status),
    }
}

/// Writes the snapshot's book section straight from the live clearing
/// service: no offer or asset-kind string is copied.
pub(crate) fn encode_book_view(e: &mut Encoder, book: BookView<'_>) {
    encode_book(
        e,
        [book.first_id(), book.epoch(), book.next_swap()],
        book.entries().map(|(offer, status)| entry_ref(offer, status)),
        book.deferred().map(OfferId::raw),
        book.in_flight().map(|(swap, offers)| (swap.raw(), offers.iter().map(|o| o.raw()))),
    );
}

/// Snapshot record → [`BookSnapshot`], consuming the record so the
/// asset-kind strings move instead of being copied.
pub(crate) fn book_from_record(book: BookRecord) -> BookSnapshot {
    BookSnapshot {
        first_id: book.first_id,
        epoch: book.epoch,
        next_swap: book.next_swap,
        entries: book
            .entries
            .into_iter()
            .map(|e| {
                (
                    Offer {
                        key: MssPublicKey::from_root(Digest32(e.root), u32::from(e.key_height)),
                        hashlock: Hashlock::from_digest(Digest32(e.hashlock)),
                        gives: AssetKind(e.gives),
                        wants: AssetKind(e.wants),
                    },
                    status_from_record(e.status),
                )
            })
            .collect(),
        deferred: book.deferred.into_iter().map(OfferId::from_raw).collect(),
        in_flight: book
            .in_flight
            .into_iter()
            .map(|(swap, offers)| {
                (SwapId::from_raw(swap), offers.into_iter().map(OfferId::from_raw).collect())
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_digest_ignores_threads_but_not_semantics() {
        let base = ExchangeConfig::default();
        let threads = ExchangeConfig { threads: 8, ..base.clone() };
        assert_eq!(config_digest(&base), config_digest(&threads));
        let slots = ExchangeConfig { executing_slots: 4, ..base.clone() };
        assert_ne!(config_digest(&base), config_digest(&slots));
        let costs = ExchangeConfig {
            stage_costs: crate::exchange::StageCosts { clearing_base: 1, ..Default::default() },
            ..base
        };
        assert_ne!(config_digest(&costs), config_digest(&slots));
    }

    #[test]
    fn protocol_tags_round_trip() {
        for kind in [ProtocolKind::Hashkey, ProtocolKind::Htlc] {
            assert_eq!(protocol_from_tag(protocol_tag(kind)).unwrap(), kind);
        }
        assert_eq!(protocol_from_tag(2).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn status_round_trips() {
        let statuses = [
            OfferStatus::Open,
            OfferStatus::Cancelled,
            OfferStatus::Matched { epoch: 3, swap: SwapId::from_raw(7) },
            OfferStatus::Settled,
            OfferStatus::Refunded,
        ];
        for status in statuses {
            assert_eq!(status_from_record(status_record(status)), status);
        }
    }
}

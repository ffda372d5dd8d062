//! Whole-state snapshots that truncate the WAL.
//!
//! A snapshot is taken only at a *pipeline-empty* point (no in-flight
//! epochs), so it never has to serialize mid-epoch engine state: the
//! clearing book, the offer material, the identity store, the counters of
//! the report, and the simulation clock are the whole story. Mirror types
//! here hold that state as raw bytes/strings/tags; the conversions to and
//! from domain types live in `swap-core`.
//!
//! The payload layout is defined once, by the per-section writers here
//! ([`SnapshotHead::encode`], [`ReportRecord::encode_with_lines`],
//! [`encode_book`], [`MaterialRecord::encode`], [`encode_identity`]).
//! They take borrowed parts and iterators, so the exchange can encode its
//! *live* state straight into the frame buffer in one pass
//! ([`SnapshotFrame::encode`]); the owned [`ExchangeSnapshot`] is the
//! decode type, and its own encoder runs through the same writers.
//!
//! On disk a snapshot is a single [`crate::record::SNAPSHOT_KIND`] frame
//! in a file named `snap-<seq>.snap`, written temp-then-rename so a crash
//! can never leave a half-written file under the real name; the directory
//! is fsynced after the rename so the new name survives a crash too. `<seq>` is
//! the zero-padded sequence number of the last WAL record the snapshot
//! covers; [`load_latest_snapshot`] picks the highest. The ledger itself
//! is *not* serialized — the snapshot keeps the report's storage totals as
//! an archived baseline and recovery restarts from fresh chains, which is
//! sound because settled epochs never influence later ones except through
//! those totals.

use std::io;
use std::path::{Path, PathBuf};

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::record::{decode_snapshot_frame, put_frame, SNAPSHOT_KIND};
use crate::sync_dir;

/// One master identity: enough to rebuild its `MssKeypair` without
/// re-deriving the Lamport leaves (the expensive part of keygen — the
/// leaves are stored as digests and the Merkle tree is rebuilt from them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityRecord {
    /// Keypair seed (also rebuilds the HMAC engine).
    pub seed: [u8; 32],
    /// Merkle tree height.
    pub height: u8,
    /// Leaf cursor: how many one-time keys are already leased.
    pub next_leaf: u64,
    /// Leaf digests, in index order (`2^height` of them).
    pub leaves: Vec<[u8; 32]>,
}

/// Writes one identity record from borrowed parts (the layout of
/// [`IdentityRecord`]).
pub fn encode_identity<'a>(
    e: &mut Encoder,
    seed: &[u8; 32],
    height: u8,
    next_leaf: u64,
    leaves: impl ExactSizeIterator<Item = &'a [u8; 32]>,
) {
    e.put_bytes32(seed);
    e.put_u8(height);
    e.put_u64(next_leaf);
    e.put_seq(leaves, |e, leaf| e.put_bytes32(leaf));
}

impl IdentityRecord {
    fn encode(&self, e: &mut Encoder) {
        encode_identity(e, &self.seed, self.height, self.next_leaf, self.leaves.iter());
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let seed = d.bytes32()?;
        let height = d.u8()?;
        let next_leaf = d.u64()?;
        let n = d.len_prefix()?;
        let mut leaves = Vec::with_capacity(n);
        for _ in 0..n {
            leaves.push(d.bytes32()?);
        }
        Ok(Self { seed, height, next_leaf, leaves })
    }
}

/// One entry of the exchange's offer-material map: the secret (and its
/// owner's address) the exchange holds for an offer it has accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaterialRecord {
    /// The offer.
    pub offer: u64,
    /// The submitting identity's address.
    pub address: [u8; 32],
    /// The swap secret backing the offer's hashlock.
    pub secret: [u8; 32],
}

impl MaterialRecord {
    /// Writes this record.
    pub fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.offer);
        e.put_bytes32(&self.address);
        e.put_bytes32(&self.secret);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self { offer: d.u64()?, address: d.bytes32()?, secret: d.bytes32()? })
    }
}

/// Offer lifecycle status, mirroring `swap_market::OfferStatus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferStatusRecord {
    /// In the book, matchable.
    Open,
    /// Cancelled before matching.
    Cancelled,
    /// Matched into a swap.
    Matched {
        /// Epoch the match cleared in.
        epoch: u64,
        /// The swap.
        swap: u64,
    },
    /// Swap settled.
    Settled,
    /// Swap refunded.
    Refunded,
}

impl OfferStatusRecord {
    fn encode(&self, e: &mut Encoder) {
        match self {
            OfferStatusRecord::Open => e.put_u8(0),
            OfferStatusRecord::Cancelled => e.put_u8(1),
            OfferStatusRecord::Matched { epoch, swap } => {
                e.put_u8(2);
                e.put_u64(*epoch);
                e.put_u64(*swap);
            }
            OfferStatusRecord::Settled => e.put_u8(3),
            OfferStatusRecord::Refunded => e.put_u8(4),
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(OfferStatusRecord::Open),
            1 => Ok(OfferStatusRecord::Cancelled),
            2 => Ok(OfferStatusRecord::Matched { epoch: d.u64()?, swap: d.u64()? }),
            3 => Ok(OfferStatusRecord::Settled),
            4 => Ok(OfferStatusRecord::Refunded),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// One clearing-book entry: the offer itself plus its status. Ids are
/// implicit (`first_id + index`), and addresses are recomputed from the
/// public key on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookEntryRecord {
    /// Merkle root of the offering identity's MSS public key.
    pub root: [u8; 32],
    /// Tree height of that public key.
    pub key_height: u8,
    /// The offer's hashlock digest.
    pub hashlock: [u8; 32],
    /// Asset kind given.
    pub gives: String,
    /// Asset kind wanted.
    pub wants: String,
    /// Lifecycle status.
    pub status: OfferStatusRecord,
}

/// A borrowed [`BookEntryRecord`]: what the writer needs, without owning
/// the asset-kind strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BookEntryRef<'a> {
    /// Merkle root of the offering identity's MSS public key.
    pub root: &'a [u8; 32],
    /// Tree height of that public key.
    pub key_height: u8,
    /// The offer's hashlock digest.
    pub hashlock: &'a [u8; 32],
    /// Asset kind given.
    pub gives: &'a str,
    /// Asset kind wanted.
    pub wants: &'a str,
    /// Lifecycle status.
    pub status: OfferStatusRecord,
}

impl BookEntryRef<'_> {
    fn encode(&self, e: &mut Encoder) {
        e.put_bytes32(self.root);
        e.put_u8(self.key_height);
        e.put_bytes32(self.hashlock);
        e.put_str(self.gives);
        e.put_str(self.wants);
        self.status.encode(e);
    }
}

impl BookEntryRecord {
    /// Borrows this entry for [`encode_book`].
    pub fn view(&self) -> BookEntryRef<'_> {
        BookEntryRef {
            root: &self.root,
            key_height: self.key_height,
            hashlock: &self.hashlock,
            gives: &self.gives,
            wants: &self.wants,
            status: self.status,
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            root: d.bytes32()?,
            key_height: d.u8()?,
            hashlock: d.bytes32()?,
            gives: d.str()?,
            wants: d.str()?,
            status: OfferStatusRecord::decode(d)?,
        })
    }
}

/// The whole clearing service: entries plus the cursors and relations the
/// incremental index cannot rederive from statuses alone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BookRecord {
    /// Id of the first entry (entry ids are dense from here).
    pub first_id: u64,
    /// Next epoch number.
    pub epoch: u64,
    /// Next swap id.
    pub next_swap: u64,
    /// All entries, in id order.
    pub entries: Vec<BookEntryRecord>,
    /// Offers deferred by the last committed plan.
    pub deferred: Vec<u64>,
    /// In-flight swaps: swap id → member offers in vertex order.
    pub in_flight: Vec<(u64, Vec<u64>)>,
}

/// Writes a clearing book (the layout of [`BookRecord`]) from its cursors
/// and borrowed walks of its entries, deferred offers, and in-flight
/// swaps (each swap with its member offers).
pub fn encode_book<'a, Offers: ExactSizeIterator<Item = u64>>(
    e: &mut Encoder,
    [first_id, epoch, next_swap]: [u64; 3],
    entries: impl ExactSizeIterator<Item = BookEntryRef<'a>>,
    deferred: impl ExactSizeIterator<Item = u64>,
    in_flight: impl ExactSizeIterator<Item = (u64, Offers)>,
) {
    e.put_u64(first_id);
    e.put_u64(epoch);
    e.put_u64(next_swap);
    e.put_seq(entries, |e, entry| entry.encode(e));
    e.put_seq(deferred, Encoder::put_u64);
    e.put_seq(in_flight, |e, (swap, offers)| {
        e.put_u64(swap);
        e.put_seq(offers, Encoder::put_u64);
    });
}

impl BookRecord {
    fn encode(&self, e: &mut Encoder) {
        encode_book(
            e,
            [self.first_id, self.epoch, self.next_swap],
            self.entries.iter().map(BookEntryRecord::view),
            self.deferred.iter().copied(),
            self.in_flight.iter().map(|(swap, offers)| (*swap, offers.iter().copied())),
        );
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let first_id = d.u64()?;
        let epoch = d.u64()?;
        let next_swap = d.u64()?;
        let n = d.len_prefix()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(BookEntryRecord::decode(d)?);
        }
        let n = d.len_prefix()?;
        let mut deferred = Vec::with_capacity(n);
        for _ in 0..n {
            deferred.push(d.u64()?);
        }
        let n = d.len_prefix()?;
        let mut in_flight = Vec::with_capacity(n);
        for _ in 0..n {
            let swap = d.u64()?;
            let m = d.len_prefix()?;
            let mut offers = Vec::with_capacity(m);
            for _ in 0..m {
                offers.push(d.u64()?);
            }
            in_flight.push((swap, offers));
        }
        Ok(Self { first_id, epoch, next_swap, entries, deferred, in_flight })
    }
}

/// Per-swap protocol metrics, mirroring `swap_core::runner::RunMetrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsRecord {
    /// Protocol rounds executed.
    pub rounds: u64,
    /// Contracts published on chain.
    pub contracts_published: u64,
    /// Unlock calls made.
    pub unlock_calls: u64,
    /// Bytes of unlock arguments.
    pub unlock_bytes: u64,
    /// Claim calls made.
    pub claim_calls: u64,
    /// Refund calls made.
    pub refund_calls: u64,
    /// Direct transfers performed.
    pub direct_transfers: u64,
    /// Calls rejected by contracts.
    pub rejected_calls: u64,
    /// Bytes of announcements.
    pub announce_bytes: u64,
}

impl MetricsRecord {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.rounds);
        e.put_u64(self.contracts_published);
        e.put_u64(self.unlock_calls);
        e.put_u64(self.unlock_bytes);
        e.put_u64(self.claim_calls);
        e.put_u64(self.refund_calls);
        e.put_u64(self.direct_transfers);
        e.put_u64(self.rejected_calls);
        e.put_u64(self.announce_bytes);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            rounds: d.u64()?,
            contracts_published: d.u64()?,
            unlock_calls: d.u64()?,
            unlock_bytes: d.u64()?,
            claim_calls: d.u64()?,
            refund_calls: d.u64()?,
            direct_transfers: d.u64()?,
            rejected_calls: d.u64()?,
            announce_bytes: d.u64()?,
        })
    }
}

/// One executed-swap summary line of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapLineRecord {
    /// The swap.
    pub swap: u64,
    /// Its epoch.
    pub epoch: u64,
    /// Party count.
    pub parties: u64,
    /// Leader count.
    pub leaders: u64,
    /// Protocol tag (0 = hashkey, 1 = htlc).
    pub protocol: u8,
    /// True if the swap settled.
    pub settled: bool,
    /// True if every party got its deal.
    pub all_deal: bool,
    /// Protocol rounds.
    pub rounds: u64,
    /// Per-swap metrics.
    pub metrics: MetricsRecord,
}

impl SwapLineRecord {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.swap);
        e.put_u64(self.epoch);
        e.put_u64(self.parties);
        e.put_u64(self.leaders);
        e.put_u8(self.protocol);
        e.put_bool(self.settled);
        e.put_bool(self.all_deal);
        e.put_u64(self.rounds);
        self.metrics.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            swap: d.u64()?,
            epoch: d.u64()?,
            parties: d.u64()?,
            leaders: d.u64()?,
            protocol: d.u8()?,
            settled: d.bool()?,
            all_deal: d.bool()?,
            rounds: d.u64()?,
            metrics: MetricsRecord::decode(d)?,
        })
    }
}

/// Storage totals, mirroring `swap_chain::StorageReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageRecord {
    /// Blocks produced.
    pub blocks: u64,
    /// Bytes of block overhead.
    pub block_bytes: u64,
    /// Bytes of contract state.
    pub contract_bytes: u64,
    /// Bytes of asset state.
    pub asset_bytes: u64,
    /// Bytes of transactions.
    pub tx_bytes: u64,
}

impl StorageRecord {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.blocks);
        e.put_u64(self.block_bytes);
        e.put_u64(self.contract_bytes);
        e.put_u64(self.asset_bytes);
        e.put_u64(self.tx_bytes);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            blocks: d.u64()?,
            block_bytes: d.u64()?,
            contract_bytes: d.u64()?,
            asset_bytes: d.u64()?,
            tx_bytes: d.u64()?,
        })
    }
}

/// Per-stage tick totals of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTicksRecord {
    /// Ticks spent clearing.
    pub clearing: u64,
    /// Ticks spent provisioning.
    pub provisioning: u64,
    /// Ticks spent executing.
    pub executing: u64,
    /// Ticks spent settling.
    pub settling: u64,
}

/// The full `ExchangeReport`, mirrored field by field — recovery restores
/// it verbatim so the byte-identical-report invariant holds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReportRecord {
    /// Epochs admitted.
    pub epochs: u64,
    /// Offers submitted.
    pub offers_submitted: u64,
    /// Offers cancelled.
    pub offers_cancelled: u64,
    /// Swaps cleared (entered the pipeline).
    pub swaps_cleared: u64,
    /// Swaps settled.
    pub swaps_settled: u64,
    /// Swaps refunded.
    pub swaps_refunded: u64,
    /// Swaps refunded due to key exhaustion.
    pub swaps_exhausted: u64,
    /// Identities registered.
    pub identities_registered: u64,
    /// Identities minted by the mint pipeline.
    pub identities_minted: u64,
    /// Mints that overlapped execution.
    pub mints_overlapping_execution: u64,
    /// One-time leaves leased.
    pub leaves_leased: u64,
    /// Wall-clock ticks simulated.
    pub wall_ticks: u64,
    /// Per-stage tick totals.
    pub stage_ticks: StageTicksRecord,
    /// Peak concurrently-executing epochs.
    pub executing_peak: u64,
    /// Epoch-ticks resident in Executing.
    pub executing_resident_ticks: u64,
    /// Ledger transactions executed.
    pub tx_executed: u64,
    /// Ledger transactions rolled back.
    pub tx_rolled_back: u64,
    /// Storage totals (the archived baseline on recovery).
    pub storage: StorageRecord,
    /// Executed-swap summary lines, in settle order.
    pub swaps: Vec<SwapLineRecord>,
}

impl ReportRecord {
    fn encode(&self, e: &mut Encoder) {
        self.encode_with_lines(e, self.swaps.iter().copied());
    }

    /// Writes this report's counters followed by `lines` *in place of*
    /// `self.swaps`, so a caller can stream the swap lines from live
    /// state instead of collecting them into the record first.
    pub fn encode_with_lines(
        &self,
        e: &mut Encoder,
        lines: impl ExactSizeIterator<Item = SwapLineRecord>,
    ) {
        e.put_u64(self.epochs);
        e.put_u64(self.offers_submitted);
        e.put_u64(self.offers_cancelled);
        e.put_u64(self.swaps_cleared);
        e.put_u64(self.swaps_settled);
        e.put_u64(self.swaps_refunded);
        e.put_u64(self.swaps_exhausted);
        e.put_u64(self.identities_registered);
        e.put_u64(self.identities_minted);
        e.put_u64(self.mints_overlapping_execution);
        e.put_u64(self.leaves_leased);
        e.put_u64(self.wall_ticks);
        e.put_u64(self.stage_ticks.clearing);
        e.put_u64(self.stage_ticks.provisioning);
        e.put_u64(self.stage_ticks.executing);
        e.put_u64(self.stage_ticks.settling);
        e.put_u64(self.executing_peak);
        e.put_u64(self.executing_resident_ticks);
        e.put_u64(self.tx_executed);
        e.put_u64(self.tx_rolled_back);
        self.storage.encode(e);
        e.put_seq(lines, |e, line| line.encode(e));
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut r = Self {
            epochs: d.u64()?,
            offers_submitted: d.u64()?,
            offers_cancelled: d.u64()?,
            swaps_cleared: d.u64()?,
            swaps_settled: d.u64()?,
            swaps_refunded: d.u64()?,
            swaps_exhausted: d.u64()?,
            identities_registered: d.u64()?,
            identities_minted: d.u64()?,
            mints_overlapping_execution: d.u64()?,
            leaves_leased: d.u64()?,
            wall_ticks: d.u64()?,
            stage_ticks: StageTicksRecord {
                clearing: d.u64()?,
                provisioning: d.u64()?,
                executing: d.u64()?,
                settling: d.u64()?,
            },
            executing_peak: d.u64()?,
            executing_resident_ticks: d.u64()?,
            tx_executed: d.u64()?,
            tx_rolled_back: d.u64()?,
            storage: StorageRecord::decode(d)?,
            swaps: Vec::new(),
        };
        let n = d.len_prefix()?;
        r.swaps.reserve(n);
        for _ in 0..n {
            r.swaps.push(SwapLineRecord::decode(d)?);
        }
        Ok(r)
    }
}

/// The fixed-size fields that open a snapshot payload (the first seven
/// fields of [`ExchangeSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHead {
    /// Sequence number of the last WAL record the snapshot covers.
    pub last_seq: u64,
    /// Digest of the semantic exchange configuration.
    pub config_digest: [u8; 32],
    /// Simulation clock.
    pub now: u64,
    /// Per-stage vacated-at times of the pipeline frontier.
    pub vacated: [u64; 4],
    /// Pending-admission marker.
    pub dirty_since: Option<u64>,
    /// Next mint ticket.
    pub mint_ticket: u64,
    /// Total one-time leaves leased by the identity store.
    pub leaves_leased: u64,
}

impl SnapshotHead {
    /// Writes the head.
    pub fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.last_seq);
        e.put_bytes32(&self.config_digest);
        e.put_u64(self.now);
        for v in &self.vacated {
            e.put_u64(*v);
        }
        match self.dirty_since {
            Some(t) => {
                e.put_option_tag(true);
                e.put_u64(t);
            }
            None => e.put_option_tag(false),
        }
        e.put_u64(self.mint_ticket);
        e.put_u64(self.leaves_leased);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let last_seq = d.u64()?;
        let config_digest = d.bytes32()?;
        let now = d.u64()?;
        let mut vacated = [0u64; 4];
        for v in &mut vacated {
            *v = d.u64()?;
        }
        let dirty_since = if d.option_tag()? { Some(d.u64()?) } else { None };
        Ok(Self {
            last_seq,
            config_digest,
            now,
            vacated,
            dirty_since,
            mint_ticket: d.u64()?,
            leaves_leased: d.u64()?,
        })
    }
}

/// The complete durable state of an exchange at a pipeline-empty point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExchangeSnapshot {
    /// Sequence number of the last WAL record this snapshot covers;
    /// replay skips records with `seq <= last_seq`.
    pub last_seq: u64,
    /// Digest of the semantic exchange configuration; recovery refuses a
    /// store written under a different configuration.
    pub config_digest: [u8; 32],
    /// Simulation clock.
    pub now: u64,
    /// Per-stage vacated-at times of the pipeline frontier.
    pub vacated: [u64; 4],
    /// Pending-admission marker (`Some(t)` if offers arrived at `t` and
    /// have not been admitted yet).
    pub dirty_since: Option<u64>,
    /// Next mint ticket.
    pub mint_ticket: u64,
    /// Total one-time leaves leased by the identity store.
    pub leaves_leased: u64,
    /// The report, restored verbatim.
    pub report: ReportRecord,
    /// The clearing book.
    pub book: BookRecord,
    /// Offer material (offer → owner address + secret), in offer order.
    pub material: Vec<MaterialRecord>,
    /// Master identities, in address order.
    pub identities: Vec<IdentityRecord>,
}

impl ExchangeSnapshot {
    fn head(&self) -> SnapshotHead {
        SnapshotHead {
            last_seq: self.last_seq,
            config_digest: self.config_digest,
            now: self.now,
            vacated: self.vacated,
            dirty_since: self.dirty_since,
            mint_ticket: self.mint_ticket,
            leaves_leased: self.leaves_leased,
        }
    }

    /// Encodes the snapshot payload (frame body).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.into_bytes()
    }

    /// Appends the payload to `e`, section by section: head, report,
    /// book, material, identities.
    pub fn encode(&self, e: &mut Encoder) {
        self.head().encode(e);
        self.report.encode(e);
        self.book.encode(e);
        e.put_seq(self.material.iter(), |e, m| m.encode(e));
        e.put_seq(self.identities.iter(), |e, id| id.encode(e));
    }

    /// Decodes a snapshot payload; inverse of
    /// [`ExchangeSnapshot::encode_payload`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] for a malformed payload.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(payload);
        let head = SnapshotHead::decode(&mut d)?;
        let report = ReportRecord::decode(&mut d)?;
        let book = BookRecord::decode(&mut d)?;
        let n = d.len_prefix()?;
        let mut material = Vec::with_capacity(n);
        for _ in 0..n {
            material.push(MaterialRecord::decode(&mut d)?);
        }
        let n = d.len_prefix()?;
        let mut identities = Vec::with_capacity(n);
        for _ in 0..n {
            identities.push(IdentityRecord::decode(&mut d)?);
        }
        d.finish()?;
        let SnapshotHead {
            last_seq,
            config_digest,
            now,
            vacated,
            dirty_since,
            mint_ticket,
            leaves_leased,
        } = head;
        Ok(Self {
            last_seq,
            config_digest,
            now,
            vacated,
            dirty_since,
            mint_ticket,
            leaves_leased,
            report,
            book,
            material,
            identities,
        })
    }
}

/// A complete snapshot file image — one [`SNAPSHOT_KIND`] frame — ready
/// to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFrame {
    last_seq: u64,
    bytes: Vec<u8>,
}

impl SnapshotFrame {
    /// Frames a snapshot covering the log through `last_seq`, with
    /// `payload` encoding the body straight into the frame buffer (see
    /// [`crate::record::put_frame`]).
    ///
    /// # Errors
    ///
    /// A payload of 4 GiB or more (see [`crate::record::frame_len`]).
    pub fn encode(last_seq: u64, payload: impl FnOnce(&mut Encoder)) -> io::Result<Self> {
        let mut e = Encoder::new();
        put_frame(&mut e, SNAPSHOT_KIND, last_seq, payload)?;
        Ok(Self { last_seq, bytes: e.into_bytes() })
    }

    /// The sequence number of the last WAL record the snapshot covers.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The file image: header, payload, CRC.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Writes the snapshot to `dir` durably: temp file, `fdatasync`,
    /// atomic rename, directory fsync; then deletes older snapshot files
    /// (newest-first recovery never needs them). Returns the snapshot's
    /// final path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let name = snapshot_name(self.last_seq);
        let tmp = dir.join(format!("{name}.tmp"));
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.bytes)?;
            f.sync_data()?;
        }
        let path = dir.join(&name);
        std::fs::rename(&tmp, &path)?;
        // Without this a crash can lose the new name after the caller has
        // already truncated the WAL the snapshot replaces.
        sync_dir(dir)?;
        // Older snapshots are redundant once the rename is durable; delete
        // them last so a crash anywhere in this function leaves a loadable
        // store.
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let entry_name = entry.file_name();
            let entry_name = entry_name.to_string_lossy();
            let is_old_snap = entry_name.starts_with("snap-")
                && (entry_name.ends_with(".snap") || entry_name.ends_with(".tmp"))
                && *entry_name != *name;
            if is_old_snap {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(path)
    }
}

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

/// Writes `snap` to `dir` durably (see [`SnapshotFrame::write`]).
/// Returns the snapshot's final path.
///
/// # Errors
///
/// Propagates filesystem errors and [`SnapshotFrame::encode`]'s.
pub fn write_snapshot(dir: &Path, snap: &ExchangeSnapshot) -> io::Result<PathBuf> {
    SnapshotFrame::encode(snap.last_seq, |e| snap.encode(e))?.write(dir)
}

/// Loads the newest snapshot in `dir`, or `None` if there is none.
///
/// # Errors
///
/// Filesystem errors, or a present-but-undecodable newest snapshot —
/// never silently falls back past a corrupt file, because snapshots are
/// renamed into place whole and a bad one means real damage.
pub fn load_latest_snapshot(dir: &Path) -> io::Result<Option<ExchangeSnapshot>> {
    let mut newest: Option<PathBuf> = None;
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.starts_with("snap-") && name.ends_with(".snap") {
            // Zero-padded names sort by sequence number.
            if newest.as_ref().map_or(true, |n| {
                name.as_str() > n.file_name().unwrap_or_default().to_string_lossy().as_ref()
            }) {
                newest = Some(entry.path());
            }
        }
    }
    let Some(path) = newest else { return Ok(None) };
    let bytes = std::fs::read(&path)?;
    let (seq, payload) = decode_snapshot_frame(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let snap = ExchangeSnapshot::decode_payload(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if snap.last_seq != seq {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "snapshot frame seq disagrees with payload",
        ));
    }
    Ok(Some(snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_snapshot(last_seq: u64) -> ExchangeSnapshot {
        ExchangeSnapshot {
            last_seq,
            config_digest: [0xCD; 32],
            now: 123,
            vacated: [1, 2, 3, 4],
            dirty_since: Some(120),
            mint_ticket: 9,
            leaves_leased: 14,
            report: ReportRecord {
                epochs: 3,
                offers_submitted: 12,
                swaps_settled: 4,
                stage_ticks: StageTicksRecord { clearing: 3, executing: 40, ..Default::default() },
                storage: StorageRecord { blocks: 7, tx_bytes: 512, ..Default::default() },
                swaps: vec![SwapLineRecord {
                    swap: 2,
                    epoch: 1,
                    parties: 3,
                    leaders: 1,
                    protocol: 0,
                    settled: true,
                    all_deal: true,
                    rounds: 5,
                    metrics: MetricsRecord { rounds: 5, unlock_calls: 3, ..Default::default() },
                }],
                ..Default::default()
            },
            book: BookRecord {
                first_id: 2,
                epoch: 3,
                next_swap: 5,
                entries: vec![
                    BookEntryRecord {
                        root: [1; 32],
                        key_height: 4,
                        hashlock: [2; 32],
                        gives: "gold".into(),
                        wants: "silver".into(),
                        status: OfferStatusRecord::Open,
                    },
                    BookEntryRecord {
                        root: [3; 32],
                        key_height: 2,
                        hashlock: [4; 32],
                        gives: "silver".into(),
                        wants: "gold".into(),
                        status: OfferStatusRecord::Matched { epoch: 2, swap: 4 },
                    },
                ],
                deferred: vec![3],
                in_flight: vec![(4, vec![3, 2])],
            },
            material: vec![MaterialRecord { offer: 2, address: [5; 32], secret: [6; 32] }],
            identities: vec![IdentityRecord {
                seed: [7; 32],
                height: 2,
                next_leaf: 1,
                leaves: vec![[8; 32], [9; 32], [10; 32], [11; 32]],
            }],
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swap-store-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn payload_round_trips_byte_identically() {
        let snap = sample_snapshot(41);
        let payload = snap.encode_payload();
        let back = ExchangeSnapshot::decode_payload(&payload).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.encode_payload(), payload);
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let payload = sample_snapshot(1).encode_payload();
        for cut in 0..payload.len() {
            assert!(
                ExchangeSnapshot::decode_payload(&payload[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn write_then_load_latest() {
        let dir = tmp_dir("write-load");
        assert!(load_latest_snapshot(&dir).unwrap().is_none());
        write_snapshot(&dir, &sample_snapshot(10)).unwrap();
        write_snapshot(&dir, &sample_snapshot(25)).unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded, sample_snapshot(25));
        // The older snapshot was cleaned up by the newer write.
        let snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".snap"))
            .collect();
        assert_eq!(snaps, vec![snapshot_name(25)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_ignored_and_cleaned() {
        let dir = tmp_dir("tmp-left");
        write_snapshot(&dir, &sample_snapshot(5)).unwrap();
        // Simulate a crash between temp-write and rename of a later snap.
        std::fs::write(dir.join("snap-00000000000000000009.snap.tmp"), b"half").unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.last_seq, 5);
        write_snapshot(&dir, &sample_snapshot(12)).unwrap();
        assert!(!dir.join("snap-00000000000000000009.snap.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_is_a_loud_error() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, &sample_snapshot(5)).unwrap();
        let mut bytes = std::fs::read(dir.join(snapshot_name(5))).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(dir.join(snapshot_name(5)), &bytes).unwrap();
        assert!(load_latest_snapshot(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! WAL record types and the on-disk frame format.
//!
//! Every exchange transition is one [`WalRecord`], written as one frame:
//!
//! ```text
//! [magic u16 = 0x5753 ("SW")] [version u16 = 1] [kind u16] [flags u16 = 0]
//! [seq u64] [len u32] [payload: len bytes] [crc32 u32 over header+payload]
//! ```
//!
//! All integers little-endian; the header is [`HEADER_LEN`] bytes. The
//! sequence number is monotone for the life of a store directory — it
//! keeps counting across snapshot truncations, which is how recovery
//! skips WAL frames already covered by the snapshot it loaded.
//!
//! [`put_frame`] writes a frame in place: the header, then the payload
//! straight into the same buffer, then the patched length and the CRC —
//! no payload copy, which matters for multi-megabyte snapshot frames. The
//! length field is 32 bits; [`frame_len`] refuses a longer payload rather
//! than wrap it.
//!
//! [`decode_frames`] is the torn-tail-tolerant reader: it stops at the
//! first frame that is short, has a bad magic/version, or fails its CRC,
//! and reports how many bytes were valid. A crash can only ever tear the
//! *final* frame (appends are sequential), so everything before the stop
//! point is trustworthy.

use std::io;

use crate::codec::{crc32, DecodeError, Decoder, Encoder};

/// Frame magic: `b"SW"` on disk (0x5753 little-endian).
pub const MAGIC: u16 = 0x5753;
/// Current frame format version.
pub const VERSION: u16 = 1;
/// Frame header length in bytes (magic..len inclusive).
pub const HEADER_LEN: usize = 20;
/// Frame kind reserved for snapshot files (never appears in a WAL).
pub const SNAPSHOT_KIND: u16 = 100;

/// Pipeline stage of an in-flight epoch, as a stable wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageTag {
    /// On-chain verification of the committed plan.
    Clearing,
    /// Identity/key provisioning for the epoch's swaps.
    Provisioning,
    /// Swap protocol execution on the worker pool.
    Executing,
    /// Settlement and ledger absorption.
    Settling,
}

impl StageTag {
    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            StageTag::Clearing => 0,
            StageTag::Provisioning => 1,
            StageTag::Executing => 2,
            StageTag::Settling => 3,
        }
    }

    /// Inverse of [`StageTag::tag`].
    pub fn from_tag(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            0 => Ok(StageTag::Clearing),
            1 => Ok(StageTag::Provisioning),
            2 => Ok(StageTag::Executing),
            3 => Ok(StageTag::Settling),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// One party of a seeded batch submit (mirrors `swap_core`'s `PartySeed`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedRecord {
    /// MSS keypair seed.
    pub seed: [u8; 32],
    /// Merkle tree height of the party's keypair.
    pub height: u8,
    /// The party's swap secret.
    pub secret: [u8; 32],
    /// Asset kind the party gives.
    pub gives: String,
    /// Asset kind the party wants.
    pub wants: String,
}

impl SeedRecord {
    fn encode(&self, e: &mut Encoder) {
        e.put_bytes32(&self.seed);
        e.put_u8(self.height);
        e.put_bytes32(&self.secret);
        e.put_str(&self.gives);
        e.put_str(&self.wants);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            seed: d.bytes32()?,
            height: d.u8()?,
            secret: d.bytes32()?,
            gives: d.str()?,
            wants: d.str()?,
        })
    }
}

/// Why a `step()` failed, as a stable wire tag (mirrors `ExchangeError`
/// minus its non-deterministic inner error text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailTag {
    /// Plan construction failed.
    Clear,
    /// On-chain verification of a swap failed.
    Verify {
        /// The failing swap.
        swap: u64,
    },
    /// A pool worker panicked while executing a swap.
    WorkerPanicked {
        /// The swap whose worker panicked.
        swap: u64,
    },
    /// An identity ran out of one-time keys while provisioning.
    KeysExhausted {
        /// The swap being provisioned.
        swap: u64,
        /// The exhausted identity.
        address: [u8; 32],
    },
}

impl FailTag {
    fn encode(&self, e: &mut Encoder) {
        match self {
            FailTag::Clear => e.put_u8(0),
            FailTag::Verify { swap } => {
                e.put_u8(1);
                e.put_u64(*swap);
            }
            FailTag::WorkerPanicked { swap } => {
                e.put_u8(2);
                e.put_u64(*swap);
            }
            FailTag::KeysExhausted { swap, address } => {
                e.put_u8(3);
                e.put_u64(*swap);
                e.put_bytes32(address);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(FailTag::Clear),
            1 => Ok(FailTag::Verify { swap: d.u64()? }),
            2 => Ok(FailTag::WorkerPanicked { swap: d.u64()? }),
            3 => Ok(FailTag::KeysExhausted { swap: d.u64()?, address: d.bytes32()? }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// One logged exchange transition.
///
/// Two flavors share the log. **Command** records (`SubmitOffer`,
/// `SubmitSeeded`, `Resubmit`, `Cancel`, `StageEntered`, `EpochSettled`,
/// `StepFailed`) are authoritative: recovery re-runs the operation they
/// name. **Audit** records (the rest) are emitted by the code paths those
/// operations execute; recovery regenerates them and checks they match
/// what was logged, which pins replay determinism record by record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Command: a single party submitted an offer (seed-derived identity).
    SubmitOffer {
        /// MSS keypair seed of the party.
        seed: [u8; 32],
        /// Merkle tree height of the party's keypair.
        height: u8,
        /// Leaf cursor of the party's keypair at submit time.
        next_leaf: u64,
        /// The party's swap secret.
        secret: [u8; 32],
        /// Asset kind given.
        gives: String,
        /// Asset kind wanted.
        wants: String,
    },
    /// Command: a batch of parties submitted offers via the mint pipeline.
    SubmitSeeded {
        /// The batch, in submission order.
        seeds: Vec<SeedRecord>,
    },
    /// Command: a settled/refunded party re-entered the book.
    Resubmit {
        /// Identity address of the re-submitting party.
        address: [u8; 32],
        /// Fresh swap secret.
        secret: [u8; 32],
        /// Asset kind given.
        gives: String,
        /// Asset kind wanted.
        wants: String,
    },
    /// Command: an open offer was cancelled.
    Cancel {
        /// The cancelled offer.
        offer: u64,
    },
    /// Command: `step()` moved an epoch into a stage (including admission
    /// into `Clearing`).
    StageEntered {
        /// The epoch.
        epoch: u64,
        /// The stage entered.
        stage: StageTag,
        /// Simulation time of entry.
        at: u64,
    },
    /// Command: `step()` settled an epoch.
    EpochSettled {
        /// The epoch.
        epoch: u64,
        /// Simulation time of settlement.
        at: u64,
        /// The epoch's swaps, in id order.
        swaps: Vec<u64>,
    },
    /// Command: `step()` returned an error (teardown already applied).
    StepFailed {
        /// Why, as a stable tag.
        error: FailTag,
    },
    /// Audit: the clearing service committed a plan.
    PlanCommitted {
        /// Epoch the plan opened.
        epoch: u64,
        /// Cycles (swaps) in the plan.
        cycles: u64,
        /// Offers examined while planning.
        offers_examined: u64,
        /// Offers matched into cycles.
        offers_matched: u64,
    },
    /// Audit: a swap settled (all parties got their deal).
    SwapSettled {
        /// The swap.
        swap: u64,
    },
    /// Audit: a swap was refunded.
    SwapRefunded {
        /// The swap.
        swap: u64,
        /// True if the refund was due to key exhaustion.
        exhausted: bool,
    },
    /// Audit: a new identity registered with the book.
    IdentityRegistered {
        /// The identity's address.
        address: [u8; 32],
    },
    /// Audit: the mint pipeline produced a keypair.
    IdentityMinted {
        /// Mint ticket (collection order).
        ticket: u64,
        /// Address of the minted identity.
        address: [u8; 32],
    },
    /// Audit: an identity leased one-time leaves to a swap.
    LeavesLeased {
        /// The swap leasing keys.
        swap: u64,
        /// The leasing identity.
        address: [u8; 32],
        /// Number of leaves leased.
        count: u64,
    },
}

impl WalRecord {
    /// Stable wire kind of this record (goes in the frame header).
    pub fn kind(&self) -> u16 {
        match self {
            WalRecord::SubmitOffer { .. } => 1,
            WalRecord::SubmitSeeded { .. } => 2,
            WalRecord::Resubmit { .. } => 3,
            WalRecord::Cancel { .. } => 4,
            WalRecord::StageEntered { .. } => 5,
            WalRecord::EpochSettled { .. } => 6,
            WalRecord::StepFailed { .. } => 7,
            WalRecord::PlanCommitted { .. } => 8,
            WalRecord::SwapSettled { .. } => 9,
            WalRecord::SwapRefunded { .. } => 10,
            WalRecord::IdentityRegistered { .. } => 11,
            WalRecord::IdentityMinted { .. } => 12,
            WalRecord::LeavesLeased { .. } => 13,
        }
    }

    /// True for records recovery re-runs (as opposed to audits it checks).
    pub fn is_command(&self) -> bool {
        self.kind() <= 7
    }

    /// Encodes the payload (frame body, without the header or CRC).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.into_bytes()
    }

    /// Appends the payload to `e` (see [`WalRecord::encode_payload`]).
    pub(crate) fn encode(&self, e: &mut Encoder) {
        match self {
            WalRecord::SubmitOffer { seed, height, next_leaf, secret, gives, wants } => {
                e.put_bytes32(seed);
                e.put_u8(*height);
                e.put_u64(*next_leaf);
                e.put_bytes32(secret);
                e.put_str(gives);
                e.put_str(wants);
            }
            WalRecord::SubmitSeeded { seeds } => {
                e.put_len(seeds.len());
                for s in seeds {
                    s.encode(e);
                }
            }
            WalRecord::Resubmit { address, secret, gives, wants } => {
                e.put_bytes32(address);
                e.put_bytes32(secret);
                e.put_str(gives);
                e.put_str(wants);
            }
            WalRecord::Cancel { offer } => e.put_u64(*offer),
            WalRecord::StageEntered { epoch, stage, at } => {
                e.put_u64(*epoch);
                e.put_u8(stage.tag());
                e.put_u64(*at);
            }
            WalRecord::EpochSettled { epoch, at, swaps } => {
                e.put_u64(*epoch);
                e.put_u64(*at);
                e.put_len(swaps.len());
                for s in swaps {
                    e.put_u64(*s);
                }
            }
            WalRecord::StepFailed { error } => error.encode(e),
            WalRecord::PlanCommitted { epoch, cycles, offers_examined, offers_matched } => {
                e.put_u64(*epoch);
                e.put_u64(*cycles);
                e.put_u64(*offers_examined);
                e.put_u64(*offers_matched);
            }
            WalRecord::SwapSettled { swap } => e.put_u64(*swap),
            WalRecord::SwapRefunded { swap, exhausted } => {
                e.put_u64(*swap);
                e.put_bool(*exhausted);
            }
            WalRecord::IdentityRegistered { address } => e.put_bytes32(address),
            WalRecord::IdentityMinted { ticket, address } => {
                e.put_u64(*ticket);
                e.put_bytes32(address);
            }
            WalRecord::LeavesLeased { swap, address, count } => {
                e.put_u64(*swap);
                e.put_bytes32(address);
                e.put_u64(*count);
            }
        }
    }

    /// Decodes a payload of the given `kind`; inverse of
    /// [`WalRecord::encode_payload`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] for a malformed or trailing-byte payload.
    pub fn decode_payload(kind: u16, payload: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(payload);
        let rec = match kind {
            1 => WalRecord::SubmitOffer {
                seed: d.bytes32()?,
                height: d.u8()?,
                next_leaf: d.u64()?,
                secret: d.bytes32()?,
                gives: d.str()?,
                wants: d.str()?,
            },
            2 => {
                let n = d.len_prefix()?;
                let mut seeds = Vec::with_capacity(n);
                for _ in 0..n {
                    seeds.push(SeedRecord::decode(&mut d)?);
                }
                WalRecord::SubmitSeeded { seeds }
            }
            3 => WalRecord::Resubmit {
                address: d.bytes32()?,
                secret: d.bytes32()?,
                gives: d.str()?,
                wants: d.str()?,
            },
            4 => WalRecord::Cancel { offer: d.u64()? },
            5 => WalRecord::StageEntered {
                epoch: d.u64()?,
                stage: StageTag::from_tag(d.u8()?)?,
                at: d.u64()?,
            },
            6 => {
                let epoch = d.u64()?;
                let at = d.u64()?;
                let n = d.len_prefix()?;
                let mut swaps = Vec::with_capacity(n);
                for _ in 0..n {
                    swaps.push(d.u64()?);
                }
                WalRecord::EpochSettled { epoch, at, swaps }
            }
            7 => WalRecord::StepFailed { error: FailTag::decode(&mut d)? },
            8 => WalRecord::PlanCommitted {
                epoch: d.u64()?,
                cycles: d.u64()?,
                offers_examined: d.u64()?,
                offers_matched: d.u64()?,
            },
            9 => WalRecord::SwapSettled { swap: d.u64()? },
            10 => WalRecord::SwapRefunded { swap: d.u64()?, exhausted: d.bool()? },
            11 => WalRecord::IdentityRegistered { address: d.bytes32()? },
            12 => WalRecord::IdentityMinted { ticket: d.u64()?, address: d.bytes32()? },
            13 => {
                WalRecord::LeavesLeased { swap: d.u64()?, address: d.bytes32()?, count: d.u64()? }
            }
            k => return Err(DecodeError::BadKind(k)),
        };
        d.finish()?;
        Ok(rec)
    }
}

/// Checked conversion of a payload length to the frame's `u32` length
/// field.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] if `len` does not fit in 32 bits. A
/// wrapped length would write a frame whose CRC fails on read, and
/// [`decode_frames`] would then drop it — and everything after it — as a
/// torn tail, silently.
pub fn frame_len(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the 32-bit length field"),
        )
    })
}

/// Appends one complete frame to `e`: writes the header, lets `payload`
/// encode the body in place, patches the length, and appends the CRC over
/// header + payload.
///
/// # Errors
///
/// See [`frame_len`]; on error `e` is left exactly as it was.
pub fn put_frame(
    e: &mut Encoder,
    kind: u16,
    seq: u64,
    payload: impl FnOnce(&mut Encoder),
) -> io::Result<()> {
    let start = e.len();
    e.put_u16(MAGIC);
    e.put_u16(VERSION);
    e.put_u16(kind);
    e.put_u16(0); // flags, reserved
    e.put_u64(seq);
    e.put_u32(0); // length, patched once the payload is written
    payload(e);
    let len = match frame_len(e.len() - start - HEADER_LEN) {
        Ok(len) => len,
        Err(err) => {
            e.truncate(start);
            return Err(err);
        }
    };
    e.patch_u32(start + HEADER_LEN - 4, len);
    let crc = crc32(&e.as_bytes()[start..]);
    e.put_u32(crc);
    Ok(())
}

/// Encodes one frame of any kind around an already-encoded payload.
///
/// # Panics
///
/// If the payload is 4 GiB or larger (see [`frame_len`]).
pub fn encode_frame_raw(kind: u16, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    put_frame(&mut e, kind, seq, |e| e.put_raw(payload)).expect("frame payload under 4 GiB");
    e.into_bytes()
}

/// Encodes one WAL record as a complete frame.
///
/// # Panics
///
/// If the record's payload is 4 GiB or larger (see [`frame_len`]);
/// [`crate::Wal::append_group`] reports that as an error instead.
pub fn encode_frame(seq: u64, record: &WalRecord) -> Vec<u8> {
    encode_frame_raw(record.kind(), seq, &record.encode_payload())
}

/// One decoded frame before payload interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrame<'a> {
    /// Record kind from the header.
    pub kind: u16,
    /// Sequence number from the header.
    pub seq: u64,
    /// Checksummed payload bytes, borrowed from the input.
    pub payload: &'a [u8],
    /// Byte offset one past this frame's CRC (= prefix length that
    /// includes this frame).
    pub end: usize,
}

/// Reads one frame at `bytes[pos..]`. `Ok(None)` means the input ends
/// cleanly or tears here (short header, short payload, bad magic, bad
/// CRC); `Err` is reserved for a *future*-versioned frame with a valid
/// checksum, which must stop recovery loudly rather than silently.
fn decode_raw_frame(bytes: &[u8], pos: usize) -> Result<Option<RawFrame<'_>>, DecodeError> {
    let rest = &bytes[pos..];
    if rest.len() < HEADER_LEN + 4 {
        return Ok(None);
    }
    let mut d = Decoder::new(rest);
    let magic = d.u16().expect("header length checked");
    if magic != MAGIC {
        return Ok(None);
    }
    let version = d.u16().expect("header length checked");
    let kind = d.u16().expect("header length checked");
    let _flags = d.u16().expect("header length checked");
    let seq = d.u64().expect("header length checked");
    let len = d.u32().expect("header length checked") as usize;
    if rest.len() < HEADER_LEN + len + 4 {
        return Ok(None);
    }
    let framed = &rest[..HEADER_LEN + len];
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&rest[HEADER_LEN + len..HEADER_LEN + len + 4]);
    if crc32(framed) != u32::from_le_bytes(crc_bytes) {
        return Ok(None);
    }
    // Checksum is valid, so this is a real frame, not a torn tail: an
    // unsupported version is a hard error.
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    Ok(Some(RawFrame {
        kind,
        seq,
        payload: &framed[HEADER_LEN..],
        end: pos + HEADER_LEN + len + 4,
    }))
}

/// One decoded WAL record plus its frame position.
#[derive(Debug, Clone, PartialEq)]
pub struct Framed {
    /// Sequence number.
    pub seq: u64,
    /// The record.
    pub record: WalRecord,
    /// Byte offset one past this record's frame — truncating the log to
    /// `end` keeps this record and drops everything after it.
    pub end: usize,
}

/// Result of scanning a WAL byte string.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScan {
    /// All complete, checksum-valid records, in log order.
    pub frames: Vec<Framed>,
    /// Length of the valid prefix (equals `frames.last().end` or 0).
    pub valid_len: usize,
    /// True if bytes followed the valid prefix (a torn final record).
    pub torn: bool,
}

/// Scans WAL bytes into records, stopping at the first torn or invalid
/// frame.
///
/// # Errors
///
/// Only for a checksum-valid frame this build cannot interpret (future
/// format version, unknown kind, malformed payload) — real corruption
/// that truncation must not paper over.
pub fn decode_frames(bytes: &[u8]) -> Result<FrameScan, DecodeError> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while let Some(raw) = decode_raw_frame(bytes, pos)? {
        let record = WalRecord::decode_payload(raw.kind, raw.payload)?;
        pos = raw.end;
        frames.push(Framed { seq: raw.seq, record, end: raw.end });
    }
    Ok(FrameScan { frames, valid_len: pos, torn: pos != bytes.len() })
}

/// Reads the single snapshot frame (kind [`SNAPSHOT_KIND`]) a snapshot
/// file holds and returns `(seq, payload)`, the payload borrowed from
/// `bytes`.
///
/// # Errors
///
/// Unlike the WAL, a snapshot file is written temp-then-rename and must
/// be complete: any tear, checksum failure, or wrong kind is an error.
pub fn decode_snapshot_frame(bytes: &[u8]) -> Result<(u64, &[u8]), DecodeError> {
    let raw = decode_raw_frame(bytes, 0)?.ok_or(DecodeError::BadChecksum)?;
    if raw.kind != SNAPSHOT_KIND {
        return Err(DecodeError::BadKind(raw.kind));
    }
    if raw.end != bytes.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok((raw.seq, raw.payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::SubmitOffer {
                seed: [1; 32],
                height: 4,
                next_leaf: 3,
                secret: [2; 32],
                gives: "gold".into(),
                wants: "silver".into(),
            },
            WalRecord::SubmitSeeded {
                seeds: vec![
                    SeedRecord {
                        seed: [3; 32],
                        height: 2,
                        secret: [4; 32],
                        gives: "a".into(),
                        wants: "b".into(),
                    },
                    SeedRecord {
                        seed: [5; 32],
                        height: 5,
                        secret: [6; 32],
                        gives: "b".into(),
                        wants: "a".into(),
                    },
                ],
            },
            WalRecord::Resubmit {
                address: [7; 32],
                secret: [8; 32],
                gives: "x".into(),
                wants: "y".into(),
            },
            WalRecord::Cancel { offer: 42 },
            WalRecord::StageEntered { epoch: 3, stage: StageTag::Provisioning, at: 17 },
            WalRecord::EpochSettled { epoch: 3, at: 29, swaps: vec![5, 6, 7] },
            WalRecord::StepFailed { error: FailTag::KeysExhausted { swap: 9, address: [9; 32] } },
            WalRecord::PlanCommitted {
                epoch: 4,
                cycles: 2,
                offers_examined: 10,
                offers_matched: 5,
            },
            WalRecord::SwapSettled { swap: 11 },
            WalRecord::SwapRefunded { swap: 12, exhausted: true },
            WalRecord::IdentityRegistered { address: [10; 32] },
            WalRecord::IdentityMinted { ticket: 6, address: [11; 32] },
            WalRecord::LeavesLeased { swap: 13, address: [12; 32], count: 4 },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        for (i, rec) in sample_records().into_iter().enumerate() {
            let payload = rec.encode_payload();
            let back = WalRecord::decode_payload(rec.kind(), &payload)
                .unwrap_or_else(|e| panic!("record {i} failed to decode: {e}"));
            assert_eq!(back, rec, "record {i} changed across round trip");
            // Encode → decode → encode is byte-identical.
            assert_eq!(back.encode_payload(), payload, "record {i} re-encode differs");
        }
    }

    #[test]
    fn kinds_are_unique_and_stable() {
        let kinds: Vec<u16> = sample_records().iter().map(WalRecord::kind).collect();
        assert_eq!(kinds, (1..=13).collect::<Vec<u16>>());
        let commands = sample_records().iter().filter(|r| r.is_command()).count();
        assert_eq!(commands, 7);
    }

    #[test]
    fn frame_stream_round_trips() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64, rec));
        }
        let scan = decode_frames(&bytes).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.frames.len(), records.len());
        for (i, f) in scan.frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.record, records[i]);
        }
        // `end` offsets partition the byte string exactly.
        assert_eq!(scan.frames.last().unwrap().end, bytes.len());
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, rec) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64, rec));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let scan = decode_frames(&bytes[..cut]).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.frames.len(), whole, "cut at {cut}");
            assert_eq!(scan.valid_len, boundaries[whole], "cut at {cut}");
            assert_eq!(scan.torn, cut != boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64, rec));
        }
        let first_end = decode_frames(&bytes).unwrap().frames[0].end;
        // Flip one payload byte of the second frame: its CRC now fails, so
        // the scan keeps frame 0 and reports the rest as a torn tail.
        bytes[first_end + HEADER_LEN] ^= 0xFF;
        let scan = decode_frames(&bytes).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, first_end);
        assert!(scan.torn);
    }

    #[test]
    fn future_version_is_a_hard_error() {
        let rec = WalRecord::Cancel { offer: 1 };
        let payload = rec.encode_payload();
        let mut e = Encoder::new();
        e.put_u16(MAGIC);
        e.put_u16(VERSION + 1);
        e.put_u16(rec.kind());
        e.put_u16(0);
        e.put_u64(0);
        e.put_u32(payload.len() as u32);
        e.put_raw(&payload);
        let mut bytes = e.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frames(&bytes), Err(DecodeError::BadVersion(VERSION + 1)));
    }

    #[test]
    fn snapshot_frame_round_trips_and_rejects_tears() {
        let payload = b"snapshot payload".to_vec();
        let bytes = encode_frame_raw(SNAPSHOT_KIND, 77, &payload);
        assert_eq!(decode_snapshot_frame(&bytes).unwrap(), (77, &payload[..]));
        // A torn snapshot is an error, never silently accepted.
        assert!(decode_snapshot_frame(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_snapshot_frame(&extra).is_err());
        // Wrong kind (a WAL record) is rejected too.
        let wal = encode_frame(0, &WalRecord::Cancel { offer: 1 });
        assert!(decode_snapshot_frame(&wal).is_err());
    }

    #[test]
    fn frame_len_refuses_to_wrap() {
        assert_eq!(frame_len(0).unwrap(), 0);
        assert_eq!(frame_len(u32::MAX as usize).unwrap(), u32::MAX);
        #[cfg(target_pointer_width = "64")]
        {
            let err = frame_len(u32::MAX as usize + 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(frame_len(usize::MAX).is_err());
        }
    }

    #[test]
    fn put_frame_matches_encode_frame_and_appends_in_place() {
        let records = sample_records();
        let mut e = Encoder::new();
        e.put_raw(b"prefix");
        let mut expect = b"prefix".to_vec();
        for (i, rec) in records.iter().enumerate() {
            put_frame(&mut e, rec.kind(), i as u64, |e| rec.encode(e)).unwrap();
            // Framing in place equals framing a pre-encoded payload.
            expect.extend_from_slice(&encode_frame(i as u64, rec));
        }
        assert_eq!(e.as_bytes(), &expect[..]);
        assert_eq!(decode_frames(&e.as_bytes()[6..]).unwrap().frames.len(), records.len());
    }
}

//! Criterion benches for the durability store's snapshot path.
//!
//! * `store/crc32/8MiB` — the slicing-by-16 CRC32 every frame is
//!   checksummed with, next to a bytewise table loop as the baseline.
//! * `store/snapshot/encode` — [`Exchange::encode_snapshot`] on a
//!   journaled exchange holding a 50k-offer book (50 owners, key height 1,
//!   the shape of perfbench's `durable` workload): one pass over the live
//!   state into the frame buffer, no disk I/O.
//! * `store/snapshot/write` — [`Exchange::snapshot_now`]: the encode plus
//!   temp-file write, `fdatasync`, rename and directory fsync. Disk-bound
//!   and host-dependent.
//! * `store/snapshot/load` — [`load_latest_snapshot`]: read, CRC check and
//!   decode of that snapshot's file.
//! * `store/snapshot/recover` — [`Exchange::recover`] from the snapshot
//!   alone (load plus rebuilding the book, identities and material).

use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use swap_core::exchange::{Exchange, ExchangeConfig, JournalConfig, PartySeed};
use swap_crypto::Secret;
use swap_market::AssetKind;
use swap_sim::SimRng;
use swap_store::{crc32, load_latest_snapshot, SnapshotFrame};

const BOOK: usize = 50_000;
const OWNERS: usize = 50;

/// The classic one-byte-per-step table loop, for comparison.
fn crc32_bytewise(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn bench_crc32(c: &mut Criterion) {
    let mut rng = SimRng::from_seed(0xC3C3);
    let data: Vec<u8> = (0..(8 << 20) / 32).flat_map(|_| rng.bytes32()).collect();
    assert_eq!(crc32(&data), crc32_bytewise(&data), "slicing-by-16 must equal the bytewise CRC");
    let mut group = c.benchmark_group("store/crc32");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("8MiB", |b| b.iter(|| crc32(std::hint::black_box(&data))));
    group.bench_function("8MiB_bytewise_baseline", |b| {
        b.iter(|| crc32_bytewise(std::hint::black_box(&data)))
    });
    group.finish();
}

fn config() -> ExchangeConfig {
    ExchangeConfig { threads: 1, ..Default::default() }
}

fn journal(dir: &PathBuf) -> JournalConfig {
    JournalConfig { snapshot_every: 0, ..JournalConfig::new(dir) }
}

/// A journaled exchange over a standing book of `BOOK` never-matching
/// offers from `OWNERS` identities, driven to quiescence.
fn durable_book(dir: &PathBuf) -> Exchange {
    let mut ex = Exchange::with_journal(config(), journal(dir)).expect("store opens");
    let mut rng = SimRng::from_seed(0xD0AB);
    let owners = ex.submit_seeded(
        (0..OWNERS)
            .map(|j| PartySeed {
                seed: rng.bytes32(),
                key_height: 1,
                secret: Secret::random(&mut rng),
                gives: AssetKind::new(format!("d{j}")),
                wants: AssetKind::new("void"),
            })
            .collect(),
    );
    ex.drive_until_quiescent().expect("owners register");
    for j in OWNERS..BOOK {
        let (_, owner) = owners[j % OWNERS];
        let secret = Secret::random(&mut rng);
        ex.resubmit(owner, secret, AssetKind::new(format!("d{j}")), AssetKind::new("void"))
            .expect("registered owner");
    }
    ex.drive_until_quiescent().expect("book settles into the index");
    ex
}

fn bench_snapshot(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("swap-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ex = durable_book(&dir);
    let frame = ex.encode_snapshot().expect("encodes").expect("journal has records");
    ex.snapshot_now().expect("snapshot writes");
    drop(ex);
    // The loaded snapshot re-encodes to the live encoder's exact bytes.
    let loaded = load_latest_snapshot(&dir).expect("loads").expect("present");
    let again = SnapshotFrame::encode(loaded.last_seq, |e| loaded.encode(e)).expect("re-encodes");
    assert_eq!(again.bytes(), frame.bytes(), "live and decoded snapshots must agree");
    println!("snapshot: {} offers, {} bytes", loaded.book.entries.len(), frame.bytes().len());

    let mut group = c.benchmark_group("store/snapshot");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(frame.bytes().len() as u64));
    let mut ex = Exchange::recover(config(), journal(&dir)).expect("recovers").exchange;
    group.bench_function("encode", |b| b.iter(|| ex.encode_snapshot().expect("encodes")));
    group.bench_function("write", |b| b.iter(|| ex.snapshot_now().expect("writes")));
    drop(ex);
    group.bench_function("load", |b| b.iter(|| load_latest_snapshot(&dir).expect("loads")));
    group.bench_function("recover", |b| {
        b.iter(|| Exchange::recover(config(), journal(&dir)).expect("recovers"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_crc32, bench_snapshot
}
criterion_main!(benches);

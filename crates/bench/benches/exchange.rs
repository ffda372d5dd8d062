//! Criterion benches for the exchange pipeline: offers → staged epochs →
//! concurrent swap execution, sequential vs pooled, batch vs pipelined.
//!
//! One epoch over a book of 16 disjoint 3-party rings (48 offers) executes
//! 16 in-flight swaps. Cleared cycles are party- and chain-disjoint, so the
//! orchestrator spreads them across pool workers; the `exchange/epoch`
//! group times the identical workload at 1, 2, 4, and 8 workers. The
//! aggregate report is asserted identical in every case — sharding is a
//! wall-clock knob only — so the timing delta *is* the speedup. The thread
//! sweep forces the hashkey protocol so the workload stays the heavyweight
//! one (and comparable with earlier recordings).
//!
//! The `exchange/protocol` group adds the protocol-choice axis: the same
//! book under `ForceHashkey` vs `Auto` (per-cycle §4.6 HTLC selection), so
//! the HTLC fast path's storage/wall win is *measured*, not asserted.
//!
//! The `exchange/drive` group adds the driving-mode axis on a 4-wave
//! rolling book: `batch` drains each epoch before submitting the next
//! wave; `pipelined` submits wave w+1 the instant epoch w starts
//! executing, so clearing/provisioning overlap execution. Host wall-clock
//! differences are modest (the stages are cheap host-side); the simulated
//! wall-tick win is printed alongside and measured rigorously by E18.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swap_bench::drive_rolling;
use swap_core::exchange::{Exchange, ExchangeConfig, ExchangeParty, ProtocolPolicy, StageCosts};
use swap_market::AssetKind;
use swap_sim::SimRng;

/// Concurrent 3-party rings per epoch — comfortably past the ≥ 8 in-flight
/// swaps where sharding must pay for its spawns.
const RINGS: usize = 16;
const KEY_HEIGHT: u32 = 4;

/// The benchmark book: `RINGS` disjoint 3-cycles over distinct kinds.
fn book() -> Vec<ExchangeParty> {
    let mut rng = SimRng::from_seed(0xEC);
    let mut parties = Vec::with_capacity(RINGS * 3);
    for r in 0..RINGS {
        for p in 0..3 {
            parties.push(ExchangeParty::generate(
                &mut rng,
                KEY_HEIGHT,
                AssetKind::new(format!("r{r}k{p}")),
                AssetKind::new(format!("r{r}k{}", (p + 1) % 3)),
            ));
        }
    }
    parties
}

/// One full epoch through the staged pipeline: submit the book, drive the
/// stage machine dry, resolve.
fn drive_epoch(parties: &[ExchangeParty], threads: usize, protocol: ProtocolPolicy) {
    let mut exchange = Exchange::new(ExchangeConfig { threads, protocol, ..Default::default() });
    for p in parties {
        exchange.submit(p.clone());
    }
    let executed = exchange.drive_until_quiescent().expect("epoch clears");
    assert_eq!(executed.len(), RINGS);
    assert_eq!(exchange.report().swaps_settled, RINGS as u64);
}

fn bench_exchange_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange");
    group.sample_size(3);
    let parties = book();
    // Sharded-vs-sequential wall-clock needs host cores; say how many this
    // box has so the recorded numbers are interpretable.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("exchange: host parallelism = {cores} core(s)");
    // The pipeline's semantic throughput win, independent of host cores:
    // all in-flight swaps share one epoch wall in simulated time.
    {
        let config =
            ExchangeConfig { protocol: ProtocolPolicy::ForceHashkey, ..ExchangeConfig::default() };
        let delta_ticks = config.delta.ticks();
        let mut exchange = Exchange::new(config);
        for p in &parties {
            exchange.submit(p.clone());
        }
        exchange.drive_until_quiescent().expect("epoch clears");
        let report = exchange.report();
        let sequential: u64 = report.swaps.iter().map(|s| (s.rounds + 1) * delta_ticks).sum();
        println!(
            "exchange: {RINGS} in-flight swaps per epoch: {} sim ticks vs {sequential} \
             back-to-back ({:.1}x concurrency)",
            report.wall_ticks,
            sequential as f64 / report.wall_ticks as f64
        );
    }
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new(format!("epoch/{RINGS}x3"), threads),
            &threads,
            |b, &threads| b.iter(|| drive_epoch(&parties, threads, ProtocolPolicy::ForceHashkey)),
        );
    }
    group.finish();
}

/// The protocol-choice axis: the same book forced through the general
/// hashkey protocol vs auto-selected (all-HTLC for simple cycles). The
/// timing delta is the §4.6 fast path's execution win; the storage delta
/// is printed alongside.
fn bench_protocol_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange");
    group.sample_size(3);
    let parties = book();
    for (label, policy) in
        [("force-hashkey", ProtocolPolicy::ForceHashkey), ("auto-select", ProtocolPolicy::Auto)]
    {
        // Report the storage footprint once per policy so the bench output
        // carries the space axis too.
        let mut exchange = Exchange::new(ExchangeConfig { protocol: policy, ..Default::default() });
        for p in &parties {
            exchange.submit(p.clone());
        }
        exchange.drive_until_quiescent().expect("epoch clears");
        println!(
            "exchange/protocol/{label}: {} bytes on-chain across {} swaps",
            exchange.report().storage.total_bytes(),
            exchange.report().swaps_cleared
        );
        group.bench_with_input(
            BenchmarkId::new(format!("protocol/{RINGS}x3"), label),
            &policy,
            |b, &policy| b.iter(|| drive_epoch(&parties, 1, policy)),
        );
    }
    group.finish();
}

/// The driving-mode axis on a rolling book: batch (each wave waits for the
/// previous epoch to settle) vs pipelined (wave w+1 submitted as epoch w
/// starts executing, so clearing overlaps execution).
fn bench_driving_mode(c: &mut Criterion) {
    const WAVES: usize = 4;
    const WAVE_RINGS: usize = 4;
    let costs = StageCosts {
        clearing_base: 10,
        clearing_per_examined: 1,
        clearing_per_cycle: 1,
        provisioning_base: 5,
        provisioning_per_party: 1,
        settling_base: 5,
        settling_per_swap: 1,
    };
    let submit_wave = |exchange: &mut Exchange, w: usize| {
        let mut rng = SimRng::from_seed(0xD0 + w as u64);
        for r in 0..WAVE_RINGS {
            for p in 0..3 {
                exchange.submit(ExchangeParty::generate(
                    &mut rng,
                    KEY_HEIGHT,
                    AssetKind::new(format!("w{w}r{r}k{p}")),
                    AssetKind::new(format!("w{w}r{r}k{}", (p + 1) % 3)),
                ));
            }
        }
    };
    let run = |pipelined: bool| -> u64 {
        let mut exchange =
            Exchange::new(ExchangeConfig { threads: 2, stage_costs: costs, ..Default::default() });
        if pipelined {
            drive_rolling(&mut exchange, WAVES, submit_wave);
        } else {
            for w in 0..WAVES {
                submit_wave(&mut exchange, w);
                exchange.drive_until_quiescent().expect("epoch settles");
            }
        }
        assert_eq!(exchange.report().swaps_settled, (WAVES * WAVE_RINGS) as u64);
        exchange.report().wall_ticks
    };
    println!(
        "exchange/drive: {WAVES}-wave rolling book, sim wall ticks: batch {} vs pipelined {}",
        run(false),
        run(true)
    );
    let mut group = c.benchmark_group("exchange");
    group.sample_size(3);
    for (label, pipelined) in [("batch", false), ("pipelined", true)] {
        group.bench_with_input(
            BenchmarkId::new(format!("drive/{WAVES}x{WAVE_RINGS}x3"), label),
            &pipelined,
            |b, &pipelined| b.iter(|| run(pipelined)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_exchange_throughput, bench_protocol_choice, bench_driving_mode);
criterion_main!(benches);

//! `perfbench`: the end-to-end exchange benchmark.
//!
//! ```text
//! perfbench --workload <onboard|hashkey|durable> --seed <n> --seconds <s> --trace <0|1> [--store <dir>]
//! ```
//!
//! One run repeats *trials* of one workload until the measured phases add
//! up to `--seconds`. A trial builds a fresh exchange, sets it up to
//! quiescence (timed as `setup_s`), runs the measured phase, and checks
//! it. After the trials come two check trials: the same seed with one pool
//! thread (the deterministic fields must not move) and the next seed (the
//! workload shape must not move). The last line of standard output is one
//! JSON object: end-to-end metrics with `--trace 0`, the per-layer budget
//! from traced trials with `--trace 1`. Any failed check exits 1.

mod client;
mod probe;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use client::Span;
use workload::{run_trial, Kind, Plan, Trial};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Pool workers of every measured trial.
const THREADS: usize = 2;
/// Untraced trials a run makes at least, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;
/// Traced trials a `--trace 1` run makes at least.
const MIN_TRACED: usize = 2;
/// Timed offers a trial needs, so that its p99 has ten samples beyond it.
const MIN_SAMPLES: usize = 1000;
/// A run stops starting trials after this long, so it always ends in time.
const TRIAL_WINDOW_S: f64 = 100.0;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    store: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut store = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            "--store" => store = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        store: store.unwrap_or_else(|| std::env::temp_dir().join("perfbench-store")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let store = args.store.join(format!("run-{}", std::process::id()));
    let outcome = run(&args, &store);
    let _ = std::fs::remove_dir_all(&store);
    let (line, ok) = outcome;
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0–1) of `values` (0 when empty).
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the report's `Debug` text: a digest of the whole
/// deterministic observable.
fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The fields of a trial that must not depend on the host: identical
/// across trials of one seed and across pool thread counts.
#[derive(Debug, Clone, PartialEq)]
struct Deterministic {
    settle_ticks_p50: f64,
    settle_ticks_p99: f64,
    chain_bytes: usize,
    tx_executed: u64,
    offers_examined: u64,
    report_digest: u64,
}

fn deterministic(t: &Trial) -> Deterministic {
    Deterministic {
        settle_ticks_p50: percentile(&t.latency_ticks, 0.50),
        settle_ticks_p99: percentile(&t.latency_ticks, 0.99),
        chain_bytes: t.report.storage.total_bytes(),
        tx_executed: t.report.tx_executed,
        offers_examined: t.clear.offers_examined,
        report_digest: digest(&format!("{:?}", t.report)),
    }
}

/// Offer, swap and epoch counts: what a second seed must reproduce.
fn shape(t: &Trial) -> (u64, u64, u64, usize) {
    (t.report.offers_submitted, t.report.swaps_cleared, t.report.epochs, t.latency_ms.len())
}

/// Correctness of one trial; every failure is described.
fn check_trial(t: &Trial, failures: &mut Vec<String>) {
    let refunded = t.report.swaps_refunded - t.before.swaps_refunded;
    if t.swaps() == 0 {
        failures.push("no swap settled in the measured phase".into());
    }
    if t.latency_ms.len() < MIN_SAMPLES {
        failures.push(format!("only {} offers timed; p99 needs {MIN_SAMPLES}", t.latency_ms.len()));
    }
    if t.unsettled > 0 {
        failures.push(format!("{} injected offers never settled", t.unsettled));
    }
    if refunded + t.step_failures > 0 {
        failures.push(format!("{refunded} refunds and {} failed steps/swaps", t.step_failures));
    }
    if t.report.stage_ticks.total() != t.report.wall_ticks {
        failures.push("stage_ticks.total() != wall_ticks".into());
    }
    if t.end.heap <= t.start.heap {
        failures.push("the measured phase retained no heap".into());
    }
    if let Some(r) = &t.recovery {
        if !r.identical {
            failures.push("recovered report differs from the live one".into());
        }
        if r.stats.torn_tail || r.stats.snapshot_seq.is_none() {
            failures.push("recovery found a torn log or no snapshot".into());
        }
    }
}

/// One named metric with its unit.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    out.push(Metric { name: name.into(), unit, value });
}

/// The user-visible metrics, from the untraced trials: each trial's own
/// figure, median over trials, so one disturbed trial cannot set a run's
/// tail. Every trial times at least [`MIN_SAMPLES`] offers, so its p99 has
/// at least ten samples beyond it.
fn end_to_end(trials: &[Trial]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Trial) -> f64| median(&trials.iter().map(f).collect::<Vec<_>>());
    let mut out = Vec::new();
    metric(&mut out, "setup_s", "s", per(&|t| t.setup_s));
    metric(&mut out, "swaps_per_s", "1/s", per(&|t| t.swaps() as f64 / t.phase_s()));
    metric(&mut out, "settle_ms_p50", "ms", per(&|t| percentile(&t.latency_ms, 0.50)));
    metric(&mut out, "settle_ms_p99", "ms", per(&|t| percentile(&t.latency_ms, 0.99)));
    metric(&mut out, "settle_ticks_p50", "ticks", per(&|t| percentile(&t.latency_ticks, 0.50)));
    metric(&mut out, "settle_ticks_p99", "ticks", per(&|t| percentile(&t.latency_ticks, 0.99)));
    metric(
        &mut out,
        "chain_bytes_per_swap",
        "B",
        per(&|t| ratio(t.report.storage.total_bytes() as f64, t.report.swaps_settled as f64)),
    );
    metric(
        &mut out,
        "retained_bytes_per_swap",
        "B",
        per(&|t| (t.end.heap - t.start.heap) as f64 / t.swaps() as f64),
    );
    out
}

/// The per-layer budget of one traced trial. `overhead` is the tracing
/// overhead measured across the run.
fn per_layer(t: &Trial, overhead: f64) -> Vec<Metric> {
    let trace = t.trace.as_ref().expect("traced trial");
    let phase = t.phase_s();
    let swaps = t.swaps() as f64;
    let (b, r) = (&t.before, &t.report);
    let new_swaps = &r.swaps[b.swaps.len()..];
    let mut out = Vec::new();

    let minted = (r.identities_minted - b.identities_minted) as f64;
    metric(
        &mut out,
        "crypto.mint_ms_per_identity",
        "ms",
        ratio(trace.of(Span::Mint).wall_s * 1e3, minted),
    );
    metric(&mut out, "crypto.identities_minted", "count", minted);
    metric(&mut out, "crypto.leaves_leased", "count", (r.leaves_leased - b.leaves_leased) as f64);

    for kind in Span::ALL {
        let s = trace.of(kind);
        let p = kind.name();
        metric(&mut out, format!("{p}.wall_s"), "s", s.wall_s);
        metric(&mut out, format!("{p}.cpu_s"), "s", s.cpu_s);
        metric(&mut out, format!("{p}.wait_s"), "s", s.wait_s());
        metric(&mut out, format!("{p}.calls"), "count", s.calls as f64);
    }
    metric(&mut out, "market.offers_examined", "count", t.clear.offers_examined as f64);
    metric(&mut out, "market.cycles_emitted", "count", t.clear.cycles_emitted as f64);
    metric(&mut out, "market.open_offers_max", "count", t.clear.open_offers_max as f64);

    let wall_ticks = (r.wall_ticks - b.wall_ticks) as f64;
    let resident = (r.executing_resident_ticks - b.executing_resident_ticks) as f64;
    metric(&mut out, "exchange.occupancy", "ratio", ratio(resident, wall_ticks));
    let (st, sb) = (&r.stage_ticks, &b.stage_ticks);
    metric(&mut out, "exchange.stage_ticks.clearing", "ticks", (st.clearing - sb.clearing) as f64);
    metric(
        &mut out,
        "exchange.stage_ticks.provisioning",
        "ticks",
        (st.provisioning - sb.provisioning) as f64,
    );
    metric(
        &mut out,
        "exchange.stage_ticks.executing",
        "ticks",
        (st.executing - sb.executing) as f64,
    );
    metric(&mut out, "exchange.stage_ticks.settling", "ticks", (st.settling - sb.settling) as f64);

    let busy = t.end.worker_cpu - t.start.worker_cpu;
    let step_wait: f64 =
        [Span::Clear, Span::Provision, Span::Dispatch, Span::Execute, Span::Settle, Span::Idle]
            .iter()
            .map(|&k| trace.of(k).wait_s())
            .sum();
    metric(&mut out, "pool.busy_s", "s", busy);
    metric(&mut out, "pool.utilization", "ratio", ratio(busy, THREADS as f64 * phase));
    metric(&mut out, "pool.wait_s", "s", (step_wait - trace.snapshot_wait_s).max(0.0));
    metric(
        &mut out,
        "pool.mints_overlapping_execution",
        "count",
        (r.mints_overlapping_execution - b.mints_overlapping_execution) as f64,
    );

    let rounds: u64 = new_swaps.iter().map(|s| s.rounds).sum();
    let unlock: u64 = new_swaps.iter().map(|s| s.metrics.unlock_bytes).sum();
    metric(&mut out, "engine.rounds_per_swap", "rounds", ratio(rounds as f64, swaps));
    metric(&mut out, "chain.tx_executed", "count", (r.tx_executed - b.tx_executed) as f64);
    metric(&mut out, "chain.tx_rolled_back", "count", (r.tx_rolled_back - b.tx_rolled_back) as f64);
    metric(&mut out, "contract.unlock_bytes_per_swap", "B", ratio(unlock as f64, swaps));

    metric(&mut out, "store.write_bytes", "B", (t.end.io.wchar - t.start.io.wchar) as f64);
    metric(&mut out, "store.write_calls", "count", (t.end.io.syscw - t.start.io.syscw) as f64);
    metric(&mut out, "store.snapshots", "count", trace.snapshots as f64);
    metric(&mut out, "store.snapshot_bytes", "B", trace.snapshot_bytes as f64);
    metric(&mut out, "store.snapshot_wait_s", "s", trace.snapshot_wait_s);
    metric(&mut out, "store.settle_stall_ms_max", "ms", trace.stall_ms_max);
    let rec = t.recovery.as_ref();
    metric(&mut out, "store.recover_s", "s", rec.map_or(0.0, |x| x.seconds));
    metric(
        &mut out,
        "store.recover_records_replayed",
        "count",
        rec.map_or(0.0, |x| x.stats.records_replayed as f64),
    );
    metric(
        &mut out,
        "store.recover_commands_replayed",
        "count",
        rec.map_or(0.0, |x| x.stats.commands_replayed as f64),
    );

    let client_cpu = t.end.client_cpu - t.start.client_cpu;
    metric(&mut out, "client.cpu_s", "s", client_cpu);
    metric(&mut out, "client.wait_s", "s", (phase - client_cpu).max(0.0));

    metric(&mut out, "mem.rss_growth_bytes", "B", t.end.rss as f64 - t.start.rss as f64);
    metric(&mut out, "mem.heap_growth_bytes", "B", (t.end.heap - t.start.heap) as f64);

    let covered = trace.covered_s();
    metric(&mut out, "trace.phase_s", "s", phase);
    metric(&mut out, "trace.coverage", "ratio", ratio(covered, phase));
    metric(&mut out, "trace.residual_s", "s", phase - covered);
    metric(&mut out, "trace.overhead", "ratio", overhead);
    out
}

/// Element-wise median of several trials' metric lists (same names, same
/// order).
fn median_metrics(lists: Vec<Vec<Metric>>) -> Vec<Metric> {
    let first = &lists[0];
    (0..first.len())
        .map(|i| Metric {
            name: first[i].name.clone(),
            unit: first[i].unit,
            value: median(&lists.iter().map(|l| l[i].value).collect::<Vec<_>>()),
        })
        .collect()
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

/// Runs the trials and the checks; returns the result line and whether
/// every check passed.
fn run(args: &Args, store: &std::path::Path) -> (String, bool) {
    let plan = Plan::new(args.workload, args.seed);
    let started = Instant::now();
    let mut failures = Vec::new();
    let mut untraced: Vec<Trial> = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    let mut measured = 0.0;
    loop {
        let trace_this = args.trace && traced.len() < untraced.len();
        let n = untraced.len() + traced.len();
        let t = run_trial(&plan, THREADS, trace_this, &store.join(format!("trial-{n}")));
        check_trial(&t, &mut failures);
        measured += t.phase_s();
        eprintln!(
            "perfbench: trial {n}{}: setup {:.3} s, phase {:.3} s, {} swaps",
            if trace_this { " (traced)" } else { "" },
            t.setup_s,
            t.phase_s(),
            t.swaps()
        );
        if trace_this {
            traced.push(t)
        } else {
            untraced.push(t)
        }
        let enough = measured >= args.seconds
            && untraced.len() >= MIN_TRIALS
            && (!args.trace || traced.len() >= MIN_TRACED);
        if enough || started.elapsed().as_secs_f64() > TRIAL_WINDOW_S || !failures.is_empty() {
            break;
        }
    }

    // Determinism: every trial of this seed, traced or not, and one trial
    // on a single pool thread, agree on every host-independent field.
    let reference = deterministic(&untraced[0]);
    if untraced.iter().chain(&traced).any(|t| deterministic(t) != reference) {
        failures.push("deterministic fields differ between trials of one seed".into());
    }
    let single = run_trial(&plan, 1, false, &store.join("threads-1"));
    check_trial(&single, &mut failures);
    if deterministic(&single) != reference {
        failures.push("deterministic fields differ between 1 and 2 pool threads".into());
    }
    // Shape: the next seed yields the same offer, swap and epoch counts.
    let other = run_trial(
        &Plan::new(args.workload, args.seed.wrapping_add(1)),
        THREADS,
        false,
        &store.join("seed-2"),
    );
    check_trial(&other, &mut failures);
    if shape(&other) != shape(&untraced[0]) {
        failures.push(format!(
            "seed {} has shape {:?}, seed {} has {:?}",
            args.seed,
            shape(&untraced[0]),
            args.seed.wrapping_add(1),
            shape(&other)
        ));
    }

    let e2e = end_to_end(&untraced);
    let attempted: u64 = untraced
        .iter()
        .chain(&traced)
        .map(|t| t.report.swaps_cleared - t.before.swaps_cleared)
        .sum();
    let failed: u64 = untraced
        .iter()
        .chain(&traced)
        .map(|t| t.report.swaps_refunded - t.before.swaps_refunded + t.step_failures)
        .sum();

    // For the reader: the end-to-end table, plus the two figures that are
    // not benchmark metrics — `failed_share` (a check: it must be 0) and
    // `recover_s` (durable only; published per layer as `store.recover_s`).
    let mut shown = Vec::new();
    metric(&mut shown, "failed_share", "ratio", ratio(failed as f64, attempted as f64));
    if args.workload == Kind::Durable {
        let recover: Vec<f64> =
            untraced.iter().filter_map(|t| t.recovery.as_ref()).map(|r| r.seconds).collect();
        metric(&mut shown, "recover_s", "s", median(&recover));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: {:?} seed {}: end-to-end, median of {} trials of {} timed offers each \
         ({THREADS} pool threads, {cores} cores)",
        args.workload,
        args.seed,
        untraced.len(),
        untraced[0].latency_ms.len(),
    );
    for m in e2e.iter().chain(&shown) {
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let metrics = if args.trace {
        let overhead = ratio(
            median(&traced.iter().map(Trial::phase_s).collect::<Vec<_>>()),
            median(&untraced.iter().map(Trial::phase_s).collect::<Vec<_>>()),
        ) - 1.0;
        let layers = median_metrics(traced.iter().map(|t| per_layer(t, overhead)).collect());
        eprintln!("perfbench: per-layer budget ({} traced trials)", traced.len());
        for m in &layers {
            eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        e2e
    };
    for f in &failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let ok = failures.is_empty();
    (json_line(ok, attempted.max(1), failed, &metrics), ok)
}

//! The three workloads. Each one is a closed loop driven from one thread
//! through `Exchange`'s public API; all of its inputs are generated from
//! the seed up front, outside every timer.
//!
//! * `onboard` — waves of 2–4-party HTLC rings made of *new* parties,
//!   minted inside the timer by `submit_seeded` (key height 1). The next
//!   wave is injected when an epoch enters `Executing`.
//! * `hashkey` — the §4.5 hashkey protocol (`ForceHashkey`) on the same
//!   rolling ring book, with identities minted in setup and traded again
//!   through `resubmit`, so keygen stays out of the timer.
//! * `durable` — a journaled exchange over a standing book of
//!   never-matching offers: batch rounds of HTLC rings plus a block of
//!   book offers cancelled and resubmitted, each round stepped to
//!   quiescence; snapshots every 4 settled epochs; `recover` timed after.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use swap_core::exchange::{
    EpochStage, Exchange, ExchangeConfig, ExchangeReport, JournalConfig, PartySeed, ProtocolPolicy,
    RecoveryStats, StageCosts,
};
use swap_crypto::{Address, Secret};
use swap_market::{AssetKind, OfferId};
use swap_sim::SimRng;

use crate::client::{ClearTally, Client, Stepped, Trace};
use crate::probe::Mark;

/// Epochs that may execute at once (as in E23).
const EXECUTING_SLOTS: usize = 4;

// onboard: new parties every wave.
const ON_WARMUP_WAVES: usize = 12;
const ON_WAVES: usize = 60;
const ON_RINGS: usize = 10;
const ON_HEIGHT: u32 = 1;

// hashkey: `HK_GROUPS` groups of identities take turns, one group per wave;
// each identity trades once in setup and `HK_WAVES / HK_GROUPS` times in
// the measured phase, two one-time leaves per trade (one leader + 1).
const HK_GROUPS: usize = 4;
const HK_RINGS: usize = 8;
const HK_WAVES: usize = 60;
const HK_HEIGHT: u32 = 5;

// durable: a standing book of `DU_BOOK` offers owned by `DU_BOOK_IDS`
// identities, `DU_ROUNDS` rounds of `DU_RINGS` rings (identities in
// `DU_GROUPS` groups, as in hashkey) plus `DU_CHURN` book offers cancelled
// and resubmitted per round. `DU_ROUNDS % DU_SNAPSHOT_EVERY != 0`, so
// recovery replays a WAL tail on top of the last snapshot.
const DU_BOOK: usize = 50_000;
const DU_BOOK_IDS: usize = 50;
const DU_GROUPS: usize = 4;
const DU_RINGS: usize = 8;
const DU_ROUNDS: usize = 58;
const DU_CHURN: usize = 100;
const DU_HEIGHT: u32 = 5;
const DU_SNAPSHOT_EVERY: u64 = 4;

/// A workload name from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// New parties every wave; keygen inside the timer.
    Onboard,
    /// §4.5 hashkey protocol over re-traded identities.
    Hashkey,
    /// Journaled exchange over a deep standing book.
    Durable,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "onboard" => Some(Kind::Onboard),
            "hashkey" => Some(Kind::Hashkey),
            "durable" => Some(Kind::Durable),
            _ => None,
        }
    }
}

/// The exchange configuration of every trial: `threads` pool workers,
/// 2-tick stage costs (as in E19/E21).
fn config(kind: Kind, threads: usize) -> ExchangeConfig {
    ExchangeConfig {
        threads,
        executing_slots: EXECUTING_SLOTS,
        protocol: match kind {
            Kind::Hashkey => ProtocolPolicy::ForceHashkey,
            Kind::Onboard | Kind::Durable => ProtocolPolicy::Auto,
        },
        stage_costs: StageCosts {
            clearing_base: 2,
            provisioning_base: 2,
            settling_base: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One offer of a registered identity: which identity, and its terms.
#[derive(Debug)]
pub struct Trade {
    identity: usize,
    secret: Secret,
    gives: AssetKind,
    wants: AssetKind,
}

/// Ring `r` of wave (or group) `w` has 2–4 parties; the pattern is fixed,
/// so every seed yields the same workload shape.
fn ring_len(w: usize, r: usize) -> usize {
    2 + (w + r) % 3
}

/// The terms `(gives, wants)` of one wave of disjoint rings, with asset
/// kinds unique to `tag` and `w`, in ring order.
fn ring_terms(tag: &str, w: usize, rings: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for r in 0..rings {
        let len = ring_len(w, r);
        for p in 0..len {
            out.push((format!("{tag}{w}r{r}k{p}"), format!("{tag}{w}r{r}k{}", (p + 1) % len)));
        }
    }
    out
}

fn seeds_of(rng: &mut SimRng, terms: Vec<(String, String)>, height: u32) -> Vec<PartySeed> {
    terms
        .into_iter()
        .map(|(gives, wants)| PartySeed {
            seed: rng.bytes32(),
            key_height: height,
            secret: Secret::random(rng),
            gives: AssetKind::new(gives),
            wants: AssetKind::new(wants),
        })
        .collect()
}

/// Identity groups that take turns trading rings: every group's setup
/// seeds (one ring wave each), and the trades of wave `w`, made by group
/// `w % groups` in the same ring roles as its setup rings.
#[derive(Debug)]
pub struct RingBook {
    setup: Vec<PartySeed>,
    waves: Vec<Vec<Trade>>,
}

impl RingBook {
    fn new(rng: &mut SimRng, groups: usize, rings: usize, waves: usize, height: u32) -> RingBook {
        let mut setup = Vec::new();
        let mut group_start = Vec::new();
        for g in 0..groups {
            group_start.push(setup.len());
            setup.extend(seeds_of(rng, ring_terms("s", g, rings), height));
        }
        let waves = (0..waves)
            .map(|w| {
                let g = w % groups;
                let mut trades: Vec<Trade> = ring_terms("t", g, rings)
                    .into_iter()
                    .enumerate()
                    .map(|(slot, (gives, wants))| Trade {
                        identity: group_start[g] + slot,
                        secret: Secret::random(rng),
                        gives: AssetKind::new(format!("w{w}{gives}")),
                        wants: AssetKind::new(format!("w{w}{wants}")),
                    })
                    .collect();
                rng.shuffle(&mut trades);
                trades
            })
            .collect();
        RingBook { setup, waves }
    }

    fn inject(&self, d: &mut Client, identities: &[Address], w: usize) {
        for t in &self.waves[w] {
            d.resubmit(identities[t.identity], t.secret, t.gives.clone(), t.wants.clone(), true);
        }
    }
}

/// Every input of one workload, generated from the seed.
#[derive(Debug)]
pub enum Plan {
    /// Warm-up waves (setup) and measured waves, all fresh parties.
    Onboard {
        /// Minted and settled in setup.
        warmup: Vec<Vec<PartySeed>>,
        /// Minted inside the timer.
        waves: Vec<Vec<PartySeed>>,
    },
    /// A rolling ring book over identities minted in setup.
    Hashkey(RingBook),
    /// Standing book plus ring rounds, journaled.
    Durable {
        /// Ring identities and their rounds.
        rings: RingBook,
        /// Seeds of the book's owners; each seed's own offer is a book
        /// offer too.
        book_owners: Vec<PartySeed>,
        /// The rest of the standing book, loaded in setup.
        book: Vec<Trade>,
        /// Per round: book offers resubmitted after cancelling as many of
        /// the oldest.
        churn: Vec<Vec<Trade>>,
    },
}

fn book_trade(rng: &mut SimRng, j: usize) -> Trade {
    Trade {
        identity: j % DU_BOOK_IDS,
        secret: Secret::random(rng),
        gives: AssetKind::new(format!("d{j}")),
        wants: AssetKind::new("void"),
    }
}

impl Plan {
    /// Generates every input of `kind` from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Plan {
        let root = SimRng::from_seed(seed);
        match kind {
            Kind::Onboard => {
                let mut rng = root.stream("onboard");
                let mut wave = |tag: &str, w: usize| {
                    let mut terms = ring_terms(tag, w, ON_RINGS);
                    rng.shuffle(&mut terms);
                    seeds_of(&mut rng, terms, ON_HEIGHT)
                };
                let warmup = (0..ON_WARMUP_WAVES).map(|w| wave("u", w)).collect();
                let waves = (0..ON_WAVES).map(|w| wave("o", w)).collect();
                Plan::Onboard { warmup, waves }
            }
            Kind::Hashkey => {
                let mut rng = root.stream("hashkey");
                Plan::Hashkey(RingBook::new(&mut rng, HK_GROUPS, HK_RINGS, HK_WAVES, HK_HEIGHT))
            }
            Kind::Durable => {
                let mut rng = root.stream("durable");
                let rings = RingBook::new(&mut rng, DU_GROUPS, DU_RINGS, DU_ROUNDS, DU_HEIGHT);
                let book_owners = (0..DU_BOOK_IDS)
                    .map(|j| PartySeed {
                        seed: rng.bytes32(),
                        key_height: 1,
                        secret: Secret::random(&mut rng),
                        gives: AssetKind::new(format!("d{j}")),
                        wants: AssetKind::new("void"),
                    })
                    .collect();
                let book = (DU_BOOK_IDS..DU_BOOK).map(|j| book_trade(&mut rng, j)).collect();
                let churn = (0..DU_ROUNDS)
                    .map(|r| {
                        (0..DU_CHURN)
                            .map(|k| book_trade(&mut rng, DU_BOOK + r * DU_CHURN + k))
                            .collect()
                    })
                    .collect();
                Plan::Durable { rings, book_owners, book, churn }
            }
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Plan::Onboard { .. } => Kind::Onboard,
            Plan::Hashkey(_) => Kind::Hashkey,
            Plan::Durable { .. } => Kind::Durable,
        }
    }
}

/// Recovery of a `durable` trial's store, timed.
#[derive(Debug)]
pub struct Recovery {
    /// Wall seconds of `Exchange::recover`.
    pub seconds: f64,
    /// What the replay did.
    pub stats: RecoveryStats,
    /// Whether the recovered report equals the live one.
    pub identical: bool,
}

/// Everything one trial measured.
#[derive(Debug)]
pub struct Trial {
    /// Wall seconds from creating the exchange to the start of the
    /// measured phase (keygen of setup identities, book load, warm-up).
    pub setup_s: f64,
    /// Probes at the start and end of the measured phase.
    pub start: Mark,
    /// See `start`.
    pub end: Mark,
    /// The report when the measured phase started.
    pub before: ExchangeReport,
    /// The report when it ended.
    pub report: ExchangeReport,
    /// Host submit→settle latencies (ms) of the phase's offers.
    pub latency_ms: Vec<f64>,
    /// Simulated submit→settle latencies (ticks).
    pub latency_ticks: Vec<f64>,
    /// Offers of the phase that never settled.
    pub unsettled: usize,
    /// `step` errors plus swaps not ending all-`Deal`.
    pub step_failures: u64,
    /// Clearing work of the phase.
    pub clear: ClearTally,
    /// Span totals (traced trials only).
    pub trace: Option<Trace>,
    /// `durable` only.
    pub recovery: Option<Recovery>,
}

impl Trial {
    /// Measured-phase wall seconds.
    pub fn phase_s(&self) -> f64 {
        self.end.at.duration_since(self.start.at).as_secs_f64()
    }

    /// Swaps settled in the measured phase.
    pub fn swaps(&self) -> u64 {
        self.report.swaps_settled - self.before.swaps_settled
    }
}

/// Runs one trial of `plan`: a fresh exchange with `threads` pool
/// workers, setup to quiescence, the measured phase, and (for `durable`)
/// a timed recovery. `store` is a scratch directory for the journal.
pub fn run_trial(plan: &Plan, threads: usize, traced: bool, store: &Path) -> Trial {
    let kind = plan.kind();
    let cfg = config(kind, threads);
    let journal = || JournalConfig {
        snapshot_every: DU_SNAPSHOT_EVERY,
        ..JournalConfig::new(store.to_path_buf())
    };
    let journaled = kind == Kind::Durable;
    let clock = Instant::now();
    let ex = if journaled {
        Exchange::with_journal(cfg.clone(), journal()).expect("journal opens")
    } else {
        Exchange::new(cfg.clone())
    };
    let mut d = Client::new(ex, traced, journaled.then_some(store));
    let ready = setup(plan, &mut d);
    let setup_s = clock.elapsed().as_secs_f64();

    let before = d.ex.report().clone();
    d.start_measuring();
    let start = Mark::start();
    measure(plan, &mut d, ready);
    let end = Mark::end();

    let mut trial = Trial {
        setup_s,
        start,
        end,
        before,
        report: d.ex.report().clone(),
        unsettled: d.unsettled(),
        step_failures: d.step_errors + d.not_deal,
        latency_ms: std::mem::take(&mut d.latency_ms),
        latency_ticks: std::mem::take(&mut d.latency_ticks),
        clear: d.clear,
        trace: d.trace.take(),
        recovery: None,
    };
    // Drop the live exchange (joining its pool) before recovering the
    // store it leaves behind.
    drop(d);
    if journaled {
        let clock = Instant::now();
        let recovered = Exchange::recover(cfg, journal()).expect("store recovers");
        trial.recovery = Some(Recovery {
            seconds: clock.elapsed().as_secs_f64(),
            stats: recovered.stats,
            identical: *recovered.exchange.report() == trial.report,
        });
        drop(recovered);
        let _ = std::fs::remove_dir_all(store);
    }
    trial
}

/// What setup leaves for the measured phase.
#[derive(Default)]
struct Ready {
    /// Ring identities, in plan order.
    identities: Vec<Address>,
    /// Book owners, in plan order (`durable` only).
    owners: Vec<Address>,
    /// Open book offers, oldest first (`durable` only).
    book: VecDeque<OfferId>,
}

/// Setup: mint every setup identity through `submit_seeded` (the pool
/// does the keygen), load the book, and reach quiescence.
fn setup(plan: &Plan, d: &mut Client) -> Ready {
    match plan {
        Plan::Onboard { warmup, .. } => {
            // Warm-up: the same rolling loop as the measured phase.
            roll(d, warmup.len(), |d, w| {
                d.submit_seeded(warmup[w].clone());
            });
            Ready::default()
        }
        Plan::Hashkey(rings) => {
            let identities = addresses(d.submit_seeded(rings.setup.clone()));
            d.drain();
            Ready { identities, ..Ready::default() }
        }
        Plan::Durable { rings, book_owners, book, .. } => {
            let owned = d.submit_seeded(book_owners.clone());
            let mut book_ids: VecDeque<OfferId> = owned.iter().map(|&(id, _)| id).collect();
            let owners = addresses(owned);
            let identities = addresses(d.submit_seeded(rings.setup.clone()));
            d.drain();
            for t in book {
                let owner = owners[t.identity];
                book_ids.push_back(d.resubmit(
                    owner,
                    t.secret,
                    t.gives.clone(),
                    t.wants.clone(),
                    false,
                ));
            }
            d.drain();
            // The first timed snapshot must not be a cold one.
            d.ex.snapshot_now().expect("snapshot writes");
            Ready { identities, owners, book: book_ids }
        }
    }
}

fn addresses(submitted: Vec<(OfferId, Address)>) -> Vec<Address> {
    submitted.into_iter().map(|(_, address)| address).collect()
}

/// The measured phase.
fn measure(plan: &Plan, d: &mut Client, ready: Ready) {
    let Ready { identities, owners, book: mut open } = ready;
    match plan {
        Plan::Onboard { waves, .. } => roll(d, waves.len(), |d, w| {
            d.submit_seeded(waves[w].clone());
        }),
        Plan::Hashkey(rings) => roll(d, rings.waves.len(), |d, w| rings.inject(d, &identities, w)),
        Plan::Durable { rings, churn, .. } => {
            for (r, block) in churn.iter().enumerate() {
                for t in block {
                    d.cancel(open.pop_front().expect("book is deep"));
                    let owner = owners[t.identity];
                    open.push_back(d.resubmit(
                        owner,
                        t.secret,
                        t.gives.clone(),
                        t.wants.clone(),
                        false,
                    ));
                }
                rings.inject(d, &identities, r);
                d.drain();
            }
            d.sync();
        }
    }
}

/// The rolling loop: inject wave 0, then inject the next wave whenever an
/// epoch enters `Executing`, until every wave is in and the pipeline is
/// quiescent.
fn roll(d: &mut Client, waves: usize, mut inject: impl FnMut(&mut Client, usize)) {
    inject(d, 0);
    let mut next = 1;
    loop {
        match d.step() {
            Stepped::Entered(EpochStage::Executing) if next < waves => {
                inject(d, next);
                next += 1;
            }
            Stepped::Quiescent => break,
            _ => {}
        }
    }
    assert_eq!(next, waves, "every wave injected");
}

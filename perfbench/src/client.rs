//! The instrumented client: every public `Exchange` call the benchmark
//! makes goes through [`Client`], which records submit→settle latencies
//! and, in a traced trial, one span per call (wall time, client-thread CPU
//! time, and their difference — time the client spent blocked, mostly on
//! the worker pool).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use swap_core::exchange::{EpochStage, Exchange, PartySeed, StepEvent};
use swap_crypto::{Address, Secret};
use swap_market::{AssetKind, OfferId, OfferStatus};

use crate::probe::thread_cpu_s;

/// What a traced span covers. Each kind is one public call (or, for
/// `step`, one call classified by the event it returned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `submit_seeded`: identity keygen on the pool plus the submissions.
    Mint,
    /// `resubmit` and `cancel`: book entry by a registered identity.
    Admit,
    /// `step` returning `Clearing` entered: the clearing index plans and
    /// commits an epoch.
    Clear,
    /// `step` returning `Provisioning` entered.
    Provision,
    /// `step` returning `Executing` entered: swaps queued on the pool.
    Dispatch,
    /// `step` returning `Settling` entered: pool results collected.
    Execute,
    /// `step` returning `EpochSettled`: offers resolved, chains absorbed,
    /// and (when journaled) a due snapshot written.
    Settle,
    /// `step` returning `Quiescent`.
    Idle,
    /// `sync_journal`.
    Sync,
}

impl Span {
    /// Every kind, in report order.
    pub const ALL: [Span; 9] = [
        Span::Mint,
        Span::Admit,
        Span::Clear,
        Span::Provision,
        Span::Dispatch,
        Span::Execute,
        Span::Settle,
        Span::Idle,
        Span::Sync,
    ];

    /// The per-layer metric prefix of this span kind.
    pub fn name(self) -> &'static str {
        match self {
            Span::Mint => "crypto.mint",
            Span::Admit => "exchange.admit",
            Span::Clear => "market.clear",
            Span::Provision => "exchange.provision",
            Span::Dispatch => "exchange.dispatch",
            Span::Execute => "exchange.execute",
            Span::Settle => "exchange.settle",
            Span::Idle => "exchange.idle",
            Span::Sync => "store.sync",
        }
    }

    fn index(self) -> usize {
        Span::ALL.iter().position(|&s| s == self).expect("listed")
    }
}

/// Accumulated time of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Host wall seconds inside the calls.
    pub wall_s: f64,
    /// Client-thread CPU seconds inside the calls.
    pub cpu_s: f64,
    /// Calls made.
    pub calls: u64,
}

impl SpanTotals {
    /// Wall time the client spent off-CPU inside the calls.
    pub fn wait_s(&self) -> f64 {
        (self.wall_s - self.cpu_s).max(0.0)
    }
}

/// Per-kind span totals of one traced trial, plus the snapshot stalls.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Totals indexed like [`Span::ALL`].
    pub spans: [SpanTotals; 9],
    /// Settle steps that wrote a snapshot.
    pub snapshots: u64,
    /// Bytes of the snapshots those steps wrote.
    pub snapshot_bytes: u64,
    /// Longest settle step that wrote a snapshot, in ms.
    pub stall_ms_max: f64,
    /// Client wait inside settle steps that wrote a snapshot (the
    /// snapshot's fsync, not the pool).
    pub snapshot_wait_s: f64,
}

impl Trace {
    /// Totals of `kind`.
    pub fn of(&self, kind: Span) -> SpanTotals {
        self.spans[kind.index()]
    }

    /// Wall seconds covered by every span.
    pub fn covered_s(&self) -> f64 {
        self.spans.iter().map(|s| s.wall_s).sum()
    }
}

/// What one `step` did, with the payload the benchmark needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepped {
    /// An epoch entered a stage.
    Entered(EpochStage),
    /// An epoch settled.
    Settled,
    /// Nothing to do.
    Quiescent,
    /// The step returned an error (counted in [`Client::step_errors`]).
    Failed,
}

/// Clearing work observed through `service().last_clear_stats()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClearTally {
    /// Offers the matcher examined, summed over epochs.
    pub offers_examined: u64,
    /// Cycles emitted, summed over epochs.
    pub cycles_emitted: u64,
    /// Largest open book any clearing saw.
    pub open_offers_max: u64,
}

/// Wraps an exchange and accounts every call the benchmark makes on it.
pub struct Client {
    /// The exchange under test.
    pub ex: Exchange,
    /// Span totals when tracing; `None` in untraced trials.
    pub trace: Option<Trace>,
    /// Offers whose settlement is timed: id → (host submit instant,
    /// simulated frontier at submit).
    pending: HashMap<OfferId, (Instant, u64)>,
    /// Whether submissions are currently timed (the measured phase).
    measuring: bool,
    /// Host submit→settle latencies, ms.
    pub latency_ms: Vec<f64>,
    /// Simulated submit→settle latencies, ticks.
    pub latency_ticks: Vec<f64>,
    /// `step` calls that returned an error.
    pub step_errors: u64,
    /// Executed swaps in which some party did not end in `Deal`.
    pub not_deal: u64,
    /// Clearing work of the measured phase.
    pub clear: ClearTally,
    /// Store directory to watch for snapshots (traced durable trials).
    store: Option<PathBuf>,
    last_snapshot: Option<String>,
}

impl Client {
    /// Wraps `ex`; `traced` turns span recording on; `store` is the
    /// journal directory, if any.
    pub fn new(ex: Exchange, traced: bool, store: Option<&Path>) -> Client {
        Client {
            ex,
            trace: traced.then(Trace::default),
            pending: HashMap::new(),
            measuring: false,
            latency_ms: Vec::new(),
            latency_ticks: Vec::new(),
            step_errors: 0,
            not_deal: 0,
            clear: ClearTally::default(),
            store: store.map(Path::to_path_buf),
            last_snapshot: None,
        }
    }

    /// Offers submitted in the measured phase that have not settled yet.
    pub fn unsettled(&self) -> usize {
        self.pending.len()
    }

    fn begin(&self) -> Option<(Instant, f64)> {
        self.trace.as_ref().map(|_| (Instant::now(), thread_cpu_s()))
    }

    /// Closes a span; returns its wall and CPU seconds.
    fn end(&mut self, kind: Span, started: Option<(Instant, f64)>) -> (f64, f64) {
        let (Some(trace), Some((at, cpu))) = (self.trace.as_mut(), started) else {
            return (0.0, 0.0);
        };
        // CPU first, wall last: the clock read is a system call, and a
        // client preempted on its return (typically right after it handed
        // work to the pool) waits inside the span that caused it.
        let cpu = thread_cpu_s() - cpu;
        let wall = at.elapsed().as_secs_f64();
        let totals = &mut trace.spans[kind.index()];
        totals.wall_s += wall;
        totals.cpu_s += cpu;
        totals.calls += 1;
        (wall, cpu)
    }

    fn track(&mut self, id: OfferId, at: Instant) {
        if self.measuring {
            self.pending.insert(id, (at, self.ex.now().ticks()));
        }
    }

    /// `submit_seeded`, timing every offer it submits.
    pub fn submit_seeded(&mut self, seeds: Vec<PartySeed>) -> Vec<(OfferId, Address)> {
        let at = Instant::now();
        let span = self.begin();
        let out = self.ex.submit_seeded(seeds);
        self.end(Span::Mint, span);
        for &(id, _) in &out {
            self.track(id, at);
        }
        out
    }

    /// `resubmit` for a registered identity. `timed` offers must settle;
    /// book offers that never match are submitted untimed.
    pub fn resubmit(
        &mut self,
        address: Address,
        secret: Secret,
        gives: AssetKind,
        wants: AssetKind,
        timed: bool,
    ) -> OfferId {
        let at = Instant::now();
        let span = self.begin();
        let id = self.ex.resubmit(address, secret, gives, wants).expect("identity is registered");
        self.end(Span::Admit, span);
        if timed {
            self.track(id, at);
        }
        id
    }

    /// `cancel` of an open book offer.
    pub fn cancel(&mut self, id: OfferId) {
        let span = self.begin();
        self.ex.cancel(id).expect("book offer is open");
        self.end(Span::Admit, span);
    }

    /// `sync_journal`.
    pub fn sync(&mut self) {
        let span = self.begin();
        self.ex.sync_journal().expect("journal syncs");
        self.end(Span::Sync, span);
    }

    /// One `step`. Errors are counted (the run then fails its checks) and
    /// reported as `Quiescent` only if the pipeline is in fact quiescent.
    pub fn step(&mut self) -> Stepped {
        let span = self.begin();
        let result = self.ex.step();
        let returned = Instant::now();
        // Consuming the event (dropping the executed swaps' run reports)
        // is part of the call, so it happens inside the span.
        let (kind, stepped, settled_at) = match result {
            Ok(StepEvent::StageEntered { stage, .. }) => {
                let kind = match stage {
                    EpochStage::Clearing => Span::Clear,
                    EpochStage::Provisioning => Span::Provision,
                    EpochStage::Executing => Span::Dispatch,
                    EpochStage::Settling => Span::Execute,
                };
                (kind, Stepped::Entered(stage), None)
            }
            Ok(StepEvent::EpochSettled { at, executed, .. }) => {
                self.not_deal += executed.iter().filter(|s| !s.report.all_deal()).count() as u64;
                (Span::Settle, Stepped::Settled, Some(at.ticks()))
            }
            Ok(StepEvent::Quiescent) => (Span::Idle, Stepped::Quiescent, None),
            Err(_) => {
                self.step_errors += 1;
                (Span::Execute, Stepped::Failed, None)
            }
        };
        let (wall, cpu) = self.end(kind, span);
        if !self.measuring {
            return stepped;
        }
        if stepped == Stepped::Entered(EpochStage::Clearing) {
            if let Some(stats) = self.ex.service().last_clear_stats() {
                self.clear.offers_examined += stats.offers_examined;
                self.clear.cycles_emitted += stats.cycles_emitted;
                self.clear.open_offers_max = self.clear.open_offers_max.max(stats.open_offers);
            }
        }
        if let Some(at) = settled_at {
            // The service forgets a swap's offers once it resolves, so the
            // timed offers are matched by their status instead.
            let service = self.ex.service();
            let (latency_ms, latency_ticks) = (&mut self.latency_ms, &mut self.latency_ticks);
            self.pending.retain(|&id, &mut (submitted, ticks)| {
                if service.status(id) != Some(OfferStatus::Settled) {
                    return true;
                }
                latency_ms.push(returned.duration_since(submitted).as_secs_f64() * 1e3);
                latency_ticks.push((at - ticks) as f64);
                false
            });
            if self.trace.is_some() {
                self.watch_snapshot(wall, cpu);
            }
        }
        stepped
    }

    /// Steps until the pipeline is quiescent.
    pub fn drain(&mut self) {
        while self.step() != Stepped::Quiescent {}
    }

    /// Starts the measured phase: submissions from here on are timed.
    pub fn start_measuring(&mut self) {
        self.measuring = true;
        if let Some(trace) = &mut self.trace {
            *trace = Trace::default();
        }
        self.last_snapshot = self.newest_snapshot().map(|(name, _)| name);
    }

    /// The newest snapshot file in the store and its size.
    fn newest_snapshot(&self) -> Option<(String, u64)> {
        let entries = std::fs::read_dir(self.store.as_ref()?).ok()?;
        entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let is_snap = name.starts_with("snap-") && name.ends_with(".snap");
                is_snap.then(|| (name, e.metadata().map_or(0, |m| m.len())))
            })
            .max()
    }

    /// After a traced settle step: did it write a snapshot? Snapshots are
    /// only taken inside settle steps, and each replaces the previous
    /// file, so a new file name means a new snapshot.
    fn watch_snapshot(&mut self, wall_s: f64, cpu_s: f64) {
        let Some((name, bytes)) = self.newest_snapshot() else { return };
        if self.last_snapshot.as_deref() == Some(name.as_str()) {
            return;
        }
        self.last_snapshot = Some(name);
        let trace = self.trace.as_mut().expect("traced");
        trace.snapshots += 1;
        trace.snapshot_bytes += bytes;
        trace.stall_ms_max = trace.stall_ms_max.max(wall_s * 1e3);
        trace.snapshot_wait_s += (wall_s - cpu_s).max(0.0);
    }
}

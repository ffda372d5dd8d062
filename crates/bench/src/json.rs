//! JSON output for experiments, on `swap-store`'s shared writer.
//!
//! The generic builders of [`swap_store::json`] are re-exported here; what
//! stays local are the report-shaped encoders for [`RunMetrics`],
//! [`StorageReport`], and [`ExchangeReport`], plus the
//! `target/BENCH_*.json` writer.

use std::path::PathBuf;

use swap_chain::StorageReport;
use swap_core::exchange::ExchangeReport;
use swap_core::runner::RunMetrics;

pub use swap_store::json::{object, JsonArray, JsonObject};

/// Fills `obj` with a [`RunMetrics`]' counters.
pub fn run_metrics_fields(obj: &mut JsonObject, m: &RunMetrics) {
    obj.field_u64("rounds", m.rounds)
        .field_u64("contracts_published", m.contracts_published)
        .field_u64("unlock_calls", m.unlock_calls)
        .field_u64("unlock_bytes", m.unlock_bytes)
        .field_u64("claim_calls", m.claim_calls)
        .field_u64("refund_calls", m.refund_calls)
        .field_u64("direct_transfers", m.direct_transfers)
        .field_u64("rejected_calls", m.rejected_calls)
        .field_u64("announce_bytes", m.announce_bytes);
}

/// Renders a [`RunMetrics`] as one JSON object.
pub fn run_metrics_json(m: &RunMetrics) -> String {
    object(|o| run_metrics_fields(o, m))
}

/// Fills `obj` with a [`StorageReport`]'s byte accounting.
pub fn storage_fields(obj: &mut JsonObject, s: &StorageReport) {
    obj.field_u64("blocks", s.blocks)
        .field_usize("block_bytes", s.block_bytes)
        .field_usize("contract_bytes", s.contract_bytes)
        .field_usize("asset_bytes", s.asset_bytes)
        .field_usize("tx_bytes", s.tx_bytes)
        .field_usize("total_bytes", s.total_bytes());
}

/// Renders an [`ExchangeReport`] — aggregate counters, merged storage, and
/// one line per executed swap — as one JSON object.
pub fn exchange_report_json(r: &ExchangeReport) -> String {
    object(|o| exchange_report_fields(o, r))
}

/// Fills `obj` with an [`ExchangeReport`]'s fields (for nesting the report
/// inside a larger document).
pub fn exchange_report_fields(o: &mut JsonObject, r: &ExchangeReport) {
    {
        o.field_u64("epochs", r.epochs)
            .field_u64("offers_submitted", r.offers_submitted)
            .field_u64("offers_cancelled", r.offers_cancelled)
            .field_u64("swaps_cleared", r.swaps_cleared)
            .field_u64("swaps_settled", r.swaps_settled)
            .field_u64("swaps_refunded", r.swaps_refunded)
            .field_u64("swaps_exhausted", r.swaps_exhausted)
            .field_u64("identities_registered", r.identities_registered)
            .field_u64("identities_minted", r.identities_minted)
            .field_u64("mints_overlapping_execution", r.mints_overlapping_execution)
            .field_u64("leaves_leased", r.leaves_leased)
            .field_u64("wall_ticks", r.wall_ticks)
            .field_object("stage_ticks", |s| {
                s.field_u64("clearing", r.stage_ticks.clearing)
                    .field_u64("provisioning", r.stage_ticks.provisioning)
                    .field_u64("executing", r.stage_ticks.executing)
                    .field_u64("settling", r.stage_ticks.settling);
            })
            .field_u64("executing_peak", r.executing_peak)
            .field_u64("executing_resident_ticks", r.executing_resident_ticks)
            .field_u64("tx_executed", r.tx_executed)
            .field_u64("tx_rolled_back", r.tx_rolled_back)
            .field_object("storage", |s| storage_fields(s, &r.storage))
            .field_array("swaps", |arr| {
                for swap in &r.swaps {
                    arr.push_object(|o| {
                        o.field_u64("swap", swap.swap.raw())
                            .field_u64("epoch", swap.epoch)
                            .field_usize("parties", swap.parties)
                            .field_usize("leaders", swap.leaders)
                            .field_str("protocol", swap.protocol.label())
                            .field_bool("settled", swap.settled)
                            .field_bool("all_deal", swap.all_deal)
                            .field_u64("rounds", swap.rounds)
                            .field_object("metrics", |m| run_metrics_fields(m, &swap.metrics));
                    });
                }
            });
    }
}

/// Writes `json` to `target/BENCH_<name>.json` (creating `target/` if
/// needed) and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_metrics_round_trippable_shape() {
        let m = RunMetrics { rounds: 6, unlock_calls: 3, unlock_bytes: 900, ..Default::default() };
        let json = run_metrics_json(&m);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rounds\":6"));
        assert!(json.contains("\"unlock_calls\":3"));
        assert!(json.contains("\"unlock_bytes\":900"));
        // Every counter of the struct appears exactly once.
        assert_eq!(json.matches(':').count(), 9);
    }

    #[test]
    fn exchange_report_json_shape() {
        let report = ExchangeReport::default();
        let json = exchange_report_json(&report);
        assert!(json.contains("\"epochs\":0"));
        assert!(json.contains("\"storage\":{"));
        assert!(json.contains("\"swaps\":[]"));
    }
}

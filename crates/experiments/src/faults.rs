//! Divergence vs refresh-loss probability (this repo's extension of the
//! paper into the simulated-world fault model).
//!
//! Sweeps the loss probability of the refresh lane over the registered
//! `medium` regime and measures mean divergence for five schedulers
//! under the *same* seeded loss lane: the cooperative protocol with
//! degrade-to-stale recovery, with blind retransmission, and with
//! fault-aware retransmission (bandwidth priced by the estimated
//! delivery probability); the CGM-2 poller; and the omniscient ideal.
//! The spread between the coop columns is what the recovery policy
//! buys; aware vs blind retransmit is what pricing by delivery
//! probability buys on top; the gap to ideal is what loss costs a
//! scheduler that cannot observe it (CGM-2 loses poll responses, the
//! ideal loses refreshes it believes it delivered).

use besync::fault::{FaultProfile, RecoveryPolicy};
use besync_baselines::CgmVariant;
use besync_scenarios::{by_name, SystemKind};
use besync_sweep::{sweep, SweepError, SweepOptions};

use crate::output::Row;
use crate::Mode;

/// One loss probability of the table.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Probability that a refresh is lost on the link.
    pub loss: f64,
    /// Mean divergence, coop with degrade-to-stale recovery.
    pub coop_degrade: f64,
    /// Mean divergence, coop with blind retransmission.
    pub coop_retx: f64,
    /// Mean divergence, coop with fault-aware retransmission.
    pub coop_aware: f64,
    /// Mean divergence, the CGM-2 poller.
    pub cgm2: f64,
    /// Mean divergence, the omniscient ideal.
    pub ideal: f64,
    /// Refreshes lost in the degrade-to-stale run.
    pub lost: u64,
    /// Retransmissions in the fault-aware run.
    pub retx: u64,
}

impl Row for FaultRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "loss",
            "coop_degrade",
            "coop_retx",
            "coop_aware",
            "cgm2",
            "ideal",
            "lost",
            "retx",
        ]
    }
    fn fields(&self) -> Vec<String> {
        let divergences = [
            self.coop_degrade,
            self.coop_retx,
            self.coop_aware,
            self.cgm2,
            self.ideal,
        ];
        let mut fields = vec![format!("{:.2}", self.loss)];
        fields.extend(divergences.iter().map(|d| format!("{d:.6}")));
        fields.extend([self.lost.to_string(), self.retx.to_string()]);
        fields
    }
}

/// The loss probabilities, one row each; 0 runs the fault-free path.
const LOSSES: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4];

/// Retransmit deadline, in seconds, of both retransmitting columns.
const RETRANSMIT: RecoveryPolicy = RecoveryPolicy::Retransmit { deadline: 3.0 };

/// Recovery of the columns that do not retransmit.
const STALE: RecoveryPolicy = RecoveryPolicy::DegradeStale;

/// The divergence columns, in row order: (system, recovery, fault-aware).
const COLUMNS: [(SystemKind, RecoveryPolicy, bool); 5] = [
    (SystemKind::Coop, STALE, false),
    (SystemKind::Coop, RETRANSMIT, false),
    (SystemKind::Coop, RETRANSMIT, true),
    (SystemKind::Cgm(CgmVariant::Cgm2), STALE, false),
    (SystemKind::Ideal, STALE, false),
];

/// Runs the table in-process.
pub fn run(mode: Mode, seed: u64) -> Vec<FaultRow> {
    run_with(mode, seed, &SweepOptions::default()).expect("in-process sweeps cannot fail")
}

/// Runs the table through a sweep runner (see [`crate::fig4::run_with`]
/// for the `--shards` semantics): `medium` as registered, shrunk by
/// [`besync_scenarios::ScenarioSpec::quick`] in [`Mode::Quick`], under `seed`.
///
/// # Errors
///
/// Only the process-sharded path can fail (worker spawn/protocol).
pub fn run_with(mode: Mode, seed: u64, opts: &SweepOptions) -> Result<Vec<FaultRow>, SweepError> {
    let mut base = by_name("medium").expect("medium scenario registered");
    if mode == Mode::Quick {
        base = base.quick();
    }
    base.seed = seed;
    let mut specs = Vec::with_capacity(LOSSES.len() * COLUMNS.len());
    for loss in LOSSES {
        for (column, (system, recovery, aware)) in COLUMNS.into_iter().enumerate() {
            let mut spec = base.clone();
            spec.name = format!("faults/loss{loss}/{}", FaultRow::headers()[1 + column]);
            spec.system = system;
            // loss == 0 runs the fault-free path (`None`), so the first
            // row doubles as the clean yardstick for every column.
            spec.fault = (loss > 0.0).then(|| FaultProfile {
                loss_prob: loss,
                recovery,
                aware,
                ..FaultProfile::default()
            });
            specs.push(spec);
        }
    }
    let outcomes = sweep(&specs, opts)?.into_outcomes();
    let rows = LOSSES.iter().zip(outcomes.chunks_exact(COLUMNS.len()));
    Ok(rows
        .map(|(&loss, five)| {
            let divergence = |i: usize| five[i].report.mean_divergence();
            FaultRow {
                loss,
                coop_degrade: divergence(0),
                coop_retx: divergence(1),
                coop_aware: divergence(2),
                cgm2: divergence(3),
                ideal: divergence(4),
                lost: five[0].report.faults.lost_refreshes,
                retx: five[2].report.faults.retransmits,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's headline: once loss is material, pricing bandwidth by
    /// the estimated delivery probability never does worse than blind
    /// retransmission, cell by cell.
    #[test]
    fn aware_retransmit_never_loses_to_blind_retransmit() {
        let rows = run(Mode::Quick, 202);
        assert_eq!(rows.len(), LOSSES.len());
        for row in rows.iter().filter(|r| r.loss >= 0.1) {
            assert!(
                row.coop_aware <= row.coop_retx,
                "loss {}: aware {} > blind {}",
                row.loss,
                row.coop_aware,
                row.coop_retx
            );
        }
    }
}

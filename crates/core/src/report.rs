//! Run reports.

use std::convert::Infallible;

use besync_data::account::DivergenceReport;
use besync_sim::stats::{RawRunningStats, RunningStats};

use crate::fault::FaultSummary;

/// Everything a simulation run reports: the divergence outcome plus the
/// protocol activity needed to judge communication overhead and stability
/// (queue peaks reveal flooding; feedback counts reveal overhead).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Time-averaged divergence over the measurement window.
    pub divergence: DivergenceReport,
    /// Refresh messages sent by sources.
    pub refreshes_sent: u64,
    /// Refresh messages delivered at the cache.
    pub refreshes_delivered: u64,
    /// Positive feedback messages sent by the cache.
    pub feedback_messages: u64,
    /// Poll round-trips issued (cache-driven baselines only).
    pub polls_sent: u64,
    /// Largest backlog observed on the cache-side link.
    pub max_cache_queue: usize,
    /// Mean time refresh messages spent queued (seconds).
    pub mean_queue_wait: f64,
    /// Distribution of final local thresholds across sources.
    pub threshold_stats: RunningStats,
    /// Source updates processed during the run.
    pub updates_processed: u64,
    /// Simulated-world fault activity (all zero on the fault-free path).
    pub faults: FaultSummary,
    /// The sources' side of a §7 competitive run; `None` for every other
    /// system kind. The cache's side is the rest of the report: its
    /// objective is `divergence.mean_weighted`, its threshold-pool sends
    /// are `refreshes_sent − source_refreshes`. Boxed, so the reports of
    /// the other kinds grow by one pointer.
    pub competitive: Option<Box<SourceSide>>,
}

/// What a §7 run measures beyond the §5 report, on the same ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SourceSide {
    /// Weighted mean divergence under the sources' weights.
    pub source_objective: f64,
    /// Refreshes sent from source allocations or piggyback entitlements.
    pub source_refreshes: u64,
}

/// One scalar of a [`RunReport`], handed out by [`RunReport::walk`].
#[derive(Debug)]
pub enum Slot<'a> {
    /// An event or message count.
    U64(&'a mut u64),
    /// An object count or queue length.
    Usize(&'a mut usize),
    /// A measured quantity; every bit pattern is meaningful (an empty
    /// `RunningStats` carries `±∞`, a degenerate run can produce NaN).
    F64(&'a mut f64),
    /// Whether an optional block follows: spelled by omission when
    /// absent, so reports without the block keep their text.
    Flag(&'a mut bool),
}

impl RunReport {
    /// The report's one field list: visits every scalar as `(wire key,
    /// slot)` in wire order. The codec's writer and reader, the bit-exact
    /// comparison ([`RunReport::first_difference`]) and the test
    /// generators all drive this walk, so a new field is the struct field
    /// plus one line here — the destructurings below are exhaustive, so
    /// it does not compile until it has a wire key. The §7 block comes
    /// last, behind its [`Slot::Flag`]: a visitor that flips the flag
    /// adds or drops the block, and the walk carries on from that.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first error `visit` returns.
    pub fn walk<E>(
        &mut self,
        mut visit: impl FnMut(&'static str, Slot<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let RunReport {
            divergence,
            refreshes_sent,
            refreshes_delivered,
            feedback_messages,
            polls_sent,
            max_cache_queue,
            mean_queue_wait,
            threshold_stats,
            updates_processed,
            faults,
            competitive,
        } = self;
        let DivergenceReport {
            objects,
            total_unweighted,
            total_weighted,
            mean_unweighted,
            mean_weighted,
            max_unweighted,
            refreshes_applied,
        } = divergence;
        visit("objects", Slot::Usize(objects))?;
        visit("total_unweighted", Slot::F64(total_unweighted))?;
        visit("total_weighted", Slot::F64(total_weighted))?;
        visit("mean_unweighted", Slot::F64(mean_unweighted))?;
        visit("mean_weighted", Slot::F64(mean_weighted))?;
        visit("max_unweighted", Slot::F64(max_unweighted))?;
        visit("refreshes_applied", Slot::U64(refreshes_applied))?;
        visit("refreshes_sent", Slot::U64(refreshes_sent))?;
        visit("refreshes_delivered", Slot::U64(refreshes_delivered))?;
        visit("feedback_messages", Slot::U64(feedback_messages))?;
        visit("polls_sent", Slot::U64(polls_sent))?;
        visit("max_cache_queue", Slot::Usize(max_cache_queue))?;
        visit("mean_queue_wait", Slot::F64(mean_queue_wait))?;
        // The raw accumulator state, not the derived moments: only that
        // rebuilds the summary bit for bit.
        let mut raw = threshold_stats.to_raw();
        let RawRunningStats {
            count,
            mean,
            m2,
            min,
            max,
        } = &mut raw;
        visit("threshold_count", Slot::U64(count))?;
        visit("threshold_mean", Slot::F64(mean))?;
        visit("threshold_m2", Slot::F64(m2))?;
        visit("threshold_min", Slot::F64(min))?;
        visit("threshold_max", Slot::F64(max))?;
        *threshold_stats = RunningStats::from_raw(raw);
        visit("updates_processed", Slot::U64(updates_processed))?;
        let FaultSummary {
            lost_refreshes,
            retransmits,
            outages,
            outage_seconds,
            dropped_in_outage,
            crashes,
            down_seconds,
            missed_updates,
            resync_quotes,
            epoch_divergence,
            stale_drops,
            superseded_retries,
        } = faults;
        visit("fault_lost_refreshes", Slot::U64(lost_refreshes))?;
        visit("fault_retransmits", Slot::U64(retransmits))?;
        visit("fault_outages", Slot::U64(outages))?;
        visit("fault_outage_seconds", Slot::F64(outage_seconds))?;
        visit("fault_dropped_in_outage", Slot::U64(dropped_in_outage))?;
        visit("fault_crashes", Slot::U64(crashes))?;
        visit("fault_down_seconds", Slot::F64(down_seconds))?;
        visit("fault_missed_updates", Slot::U64(missed_updates))?;
        visit("fault_resync_quotes", Slot::U64(resync_quotes))?;
        visit("fault_epoch_divergence", Slot::F64(epoch_divergence))?;
        visit("fault_stale_drops", Slot::U64(stale_drops))?;
        visit("fault_superseded_retries", Slot::U64(superseded_retries))?;
        let mut present = competitive.is_some();
        visit("competitive", Slot::Flag(&mut present))?;
        if !present {
            *competitive = None;
            return Ok(());
        }
        let SourceSide {
            source_objective,
            source_refreshes,
        } = &mut **competitive.get_or_insert_with(Box::default);
        visit("source_objective", Slot::F64(source_objective))?;
        visit("source_refreshes", Slot::U64(source_refreshes))
    }

    /// Every walked field as `(wire key, bits)` in wire order, floats by
    /// bit pattern — what "bit-identical reports" compares.
    fn wire_bits(&self) -> Vec<(&'static str, u64)> {
        let mut bits = Vec::new();
        let Ok(()) = self.clone().walk(|key, slot| {
            bits.push(match slot {
                Slot::U64(v) => (key, *v),
                Slot::Usize(v) => (key, *v as u64),
                Slot::F64(v) => (key, v.to_bits()),
                Slot::Flag(v) => (key, *v as u64),
            });
            Ok::<(), Infallible>(())
        });
        bits
    }

    /// The wire key of the first field on which two reports are not
    /// bit-identical, `None` if there is none. Floats compare by bit
    /// pattern, so `-0.0 ≠ 0.0` and a NaN equals itself.
    pub fn first_difference(&self, other: &RunReport) -> Option<&'static str> {
        let (a, b) = (self.wire_bits(), other.wire_bits());
        a.iter().zip(&b).find(|(x, y)| x != y).map(|(x, _)| x.0)
    }

    /// Mean divergence per object — the y-axis of the paper's figures.
    pub fn mean_divergence(&self) -> f64 {
        self.divergence.mean_unweighted
    }

    /// Weighted mean divergence per object.
    pub fn mean_weighted_divergence(&self) -> f64 {
        self.divergence.mean_weighted
    }

    /// Total protocol messages (refreshes + feedback + polls×2), the
    /// communication-overhead measure.
    pub fn total_messages(&self) -> u64 {
        self.refreshes_sent + self.feedback_messages + 2 * self.polls_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = RunReport {
            divergence: DivergenceReport {
                mean_unweighted: 0.5,
                mean_weighted: 0.7,
                ..DivergenceReport::default()
            },
            refreshes_sent: 40,
            feedback_messages: 5,
            polls_sent: 3,
            ..RunReport::default()
        };
        assert_eq!(r.mean_divergence(), 0.5);
        assert_eq!(r.mean_weighted_divergence(), 0.7);
        assert_eq!(r.total_messages(), 40 + 5 + 6);
        assert!(!r.faults.any());
    }
}

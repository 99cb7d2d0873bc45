//! Data model for best-effort cache synchronization.
//!
//! This crate defines what the schedulers argue about: data objects and
//! their identities ([`ids`]), the three divergence metrics of the paper's
//! §3.1 ([`metric`]), importance/popularity weights (§3.2, [`weight`]), and
//! exact ground-truth divergence accounting shared by every scheduler
//! ([`account`]).
//!
//! Object values are plain `f64`s: every experiment in the paper operates
//! on numeric values (random walks, wind vector components, stock-like
//! quantities), and the value-deviation metric is pluggable through a
//! deviation function, so richer value types reduce to choosing a
//! different deviation function.

pub mod account;
pub mod ids;
pub mod metric;
pub mod weight;

pub use account::{ObjectTruth, TruthTable};
pub use ids::{ObjectId, SourceId};
pub use metric::{DeviationFn, Metric};
pub use weight::{WeightProfile, WeightSet};

//! Shared scenario layer.
//!
//! Every consumer of the simulator — the counter gate, the
//! figure-regeneration experiments, and the trajectory tests — used to
//! hand-roll its own workload + config
//! construction. This crate replaces those with one declarative
//! [`ScenarioSpec`]: a plain-data description of a run (system kind,
//! object layout, rate/weight regimes, policy, metric, bandwidth waves
//! including the paper's `m_B`, warm-up/measure windows) plus a lowering
//! that turns it into a [`besync_workloads::WorkloadSpec`] and the one
//! [`besync::config::SystemConfig`] every system kind is built from, and
//! builds the ready-to-run system (a CGM run adds its variant, a §7 run
//! its Ψ partition).
//!
//! Two properties matter:
//!
//! * **Bit-identity.** The lowering calls exactly the construction path
//!   the consumers called before (`random_walk_poisson`, literal
//!   `SystemConfig { .. }` updates over defaults), so porting a consumer
//!   onto a spec cannot move a trajectory. The counter record pins this.
//! * **Serializability.** [`codec`] round-trips a spec through a plain
//!   text form with no external dependencies. A scenario is therefore a
//!   value that can be shipped to another process — the unit of work a
//!   future sweep-sharding runner will distribute.
//!
//! The named registry in [`suite`](mod@suite) holds the bench scenario set (by
//! `name`, each with a one-line description) and the small golden
//! scenarios, so each definition exists exactly once.

pub mod codec;
pub mod spec;
pub mod suite;

pub use spec::{ReadySystem, ScenarioSpec, ScenarioSpecBuilder, SystemKind, WorkloadKind};
pub use suite::{all, by_name, goldens, suite};

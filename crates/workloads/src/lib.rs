//! Workload generators for the best-effort synchronization experiments.
//!
//! The paper evaluates on two families of data:
//!
//! * **Synthetic random walks** (§4.3, §6): each object is updated either
//!   "with probability λᵢ each second" (a Bernoulli-per-tick process) or
//!   "according to a Poisson process with parameter λᵢ", and each update
//!   increments or decrements the value by 1 with equal probability.
//!   Parameter assignment is uniform or deliberately skewed (§4.3), and
//!   weights may fluctuate as sine waves (§6).
//! * **Real wind-buoy measurements** (§6.2.1): 40 ocean buoys reporting
//!   2-component wind vectors every 10 minutes for 7 days. The original
//!   TAO/PMEL data set is not available offline, so [`buoy`] synthesizes a
//!   statistically similar trace.
//!
//! A workload is a [`WorkloadSpec`]: initial values, per-object
//! [`Updater`]s (stochastic or scripted), weight profiles, and nominal
//! update rates. Simulations replay a spec deterministically from a seed,
//! so competing schedulers observe *identical* update sequences.

pub mod buoy;
pub mod generators;
pub mod process;
pub mod spec;
pub mod trace;
pub mod walk;

pub use process::UpdateProcess;
pub use spec::{GapBuffer, Updater, WorkloadSpec};
pub use trace::{Trace, TraceEvent};
pub use walk::RandomWalk;

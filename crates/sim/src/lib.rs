//! Discrete-event simulation kernel for the best-effort synchronization
//! reproduction.
//!
//! This crate is deliberately independent of the caching domain: it provides
//! a simulated clock ([`SimTime`]), the deterministic calendar-queue
//! event scheduler the simulation event loop uses ([`CalendarQueue`]:
//! bucket chains threaded through one flat node per slot), the
//! position-indexed heap the domain crates' priority schedulers share
//! ([`IndexedHeap`]),
//! time-varying signals ([`Wave`]) used to model fluctuating bandwidth
//! and weights, seeded RNG streams ([`rng`]), and time-weighted
//! statistics ([`stats`]) used to measure divergence exactly between
//! events.
//!
//! Everything is deterministic: given the same seed, a simulation built on
//! this kernel replays identically, which is what lets the experiment
//! harness regenerate the paper's figures reproducibly.

pub mod calendar;
pub mod fastmath;
pub mod indexed_heap;
pub mod rng;
pub mod signal;
pub mod stats;
pub mod time;

pub use calendar::CalendarQueue;
pub use indexed_heap::{HeapKey, IndexedHeap};
pub use signal::Wave;
pub use stats::{PiecewiseConstant, RunningStats, TimeAverage};
pub use time::SimTime;

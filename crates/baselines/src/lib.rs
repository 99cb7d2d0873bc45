//! Cache-driven synchronization baselines (paper §6.3).
//!
//! The paper quantifies the benefit of source cooperation by comparing
//! against the best known *cache-driven* policy, "CGM" (Cho &
//! Garcia-Molina, "Synchronizing a database to improve freshness", SIGMOD
//! 2000): the cache alone fixes a refresh frequency per object from an
//! estimate of its average update rate and polls sources accordingly.
//! Three flavours appear in Figure 6:
//!
//! * **Ideal cache-based** — CGM under two theoretical gifts: polling is
//!   free (no round-trip cost) and the exact update rates λᵢ are known.
//! * **CGM1** — practical: each refresh costs a round trip, and rates are
//!   estimated from observations where the source reports the *time of the
//!   most recent update* at each poll.
//! * **CGM2** — practical: as CGM1, but the cache can only tell *whether*
//!   the object changed since the last poll (binary detection).
//!
//! [`freshness`] implements the freshness-optimal frequency allocation
//! (the Lagrange-multiplier system the paper notes is "not solvable
//! mathematically" — solved numerically here); [`estimators`] implements
//! both change-rate estimators from \[CGM00a\] as maximum-likelihood
//! estimators; [`cgm`] drives the actual polling schedulers against the
//! same workloads and truth accounting as the cooperative systems.

pub mod cgm;
pub mod estimators;
pub mod freshness;

pub use cgm::{CgmSystem, CgmVariant};

//! Object weights (paper §3.2).
//!
//! The refresh weight of an object is `W(O,t) = I(O,t) · P(O,t)`:
//! importance times popularity. The paper's experiments let weights
//! "vary over time following sine-wave patterns with randomly-assigned
//! amplitudes and periods" (§6), and assume weights change slowly relative
//! to refresh intervals so the priority function can use `W(O, t_now)` as a
//! multiplier (§3.3).

use besync_sim::signal::Signal;
use besync_sim::{SimTime, Wave};

/// The refresh weight of one object over time: an importance wave times a
/// popularity wave.
///
/// Constant weights are the common case (`WeightProfile::constant(w)`);
/// fluctuating experiments assign sine waves to either factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightProfile {
    importance: Wave,
    popularity: Wave,
    /// Precomputed `I · P` when both factors are constant — the common
    /// case, and `weight_at` is called on every simulation event, so the
    /// fast path is one branch and one load instead of two `Wave`
    /// evaluations spanning a second cache line.
    constant: Option<f64>,
}

impl WeightProfile {
    /// Unit weight (`I = P = 1`), the paper's default when all objects are
    /// treated equally.
    pub fn unit() -> Self {
        Self::constant(1.0)
    }

    /// A constant weight `w` (importance `w`, popularity 1).
    pub fn constant(w: f64) -> Self {
        assert!(w >= 0.0, "weights must be non-negative");
        Self::new(Wave::Constant(w), Wave::Constant(1.0))
    }

    /// A profile with explicit importance and popularity waves.
    pub fn new(importance: Wave, popularity: Wave) -> Self {
        let constant = match (importance, popularity) {
            // Same product expression as the varying path, precomputed
            // once, so both paths return bit-identical weights.
            (Wave::Constant(i), Wave::Constant(p)) => Some(i * p),
            _ => None,
        };
        WeightProfile {
            importance,
            popularity,
            constant,
        }
    }

    /// The weight at time `t`: `I(t) · P(t)`.
    #[inline]
    pub fn weight_at(&self, t: SimTime) -> f64 {
        match self.constant {
            Some(w) => w,
            None => self.importance.value(t) * self.popularity.value(t),
        }
    }

    /// The precomputed constant weight, when both factors are constant —
    /// `None` for fluctuating profiles. Hot loops (the truth accounting's
    /// SoA fast path) copy this into a dense array once so the per-event
    /// lookup never touches the profile itself.
    #[inline]
    pub fn constant_value(&self) -> Option<f64> {
        self.constant
    }

    /// The long-run mean weight (product of means; exact when at most one
    /// factor fluctuates, which is how the experiments configure it).
    pub fn mean(&self) -> f64 {
        self.importance.mean() * self.popularity.mean()
    }
}

impl Default for WeightProfile {
    fn default() -> Self {
        Self::unit()
    }
}

/// A dense per-object weight table with a precomputed constant fast path.
///
/// Every scheduler evaluates `W(O, t)` on its hot path — the truth
/// accounting at each transition, the sources at each priority quote. A
/// [`WeightProfile`] spans most of a cache line, so indexing a
/// `Vec<WeightProfile>` per event drags cold wave parameters through the
/// hierarchy even when (as in the common case) both factors are constant.
/// `WeightSet` keeps the profiles for the fluctuating slow path and
/// accessors, but copies each constant product once into a dense `f64`
/// array: the per-event lookup is one 8-byte load (eight objects per
/// line) and one branch. Fluctuating profiles are marked NaN — weights
/// are non-negative, so the sentinel cannot collide — and fall through to
/// full profile dispatch, returning bit-identical values either way.
#[derive(Debug, Clone)]
pub struct WeightSet {
    profiles: Vec<WeightProfile>,
    /// `W(O)` when the profile is constant, NaN when it fluctuates.
    constant: Vec<f64>,
}

impl WeightSet {
    /// Builds the set, precomputing the constant fast-path array.
    pub fn new(profiles: Vec<WeightProfile>) -> Self {
        let constant = profiles
            .iter()
            .map(|w| w.constant_value().unwrap_or(f64::NAN))
            .collect();
        WeightSet { profiles, constant }
    }

    /// Number of objects covered.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// `W(O, t)` for object `idx` — the hot-path lookup.
    #[inline]
    pub fn weight_at(&self, idx: usize, t: SimTime) -> f64 {
        let w = self.constant[idx];
        if w.is_nan() {
            self.profiles[idx].weight_at(t)
        } else {
            w
        }
    }

    /// The full profile of object `idx`.
    pub fn profile(&self, idx: usize) -> &WeightProfile {
        &self.profiles[idx]
    }
}

impl From<Vec<WeightProfile>> for WeightSet {
    fn from(profiles: Vec<WeightProfile>) -> Self {
        Self::new(profiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn unit_weight_is_one_everywhere() {
        let w = WeightProfile::unit();
        assert_eq!(w.weight_at(t(0.0)), 1.0);
        assert_eq!(w.weight_at(t(999.0)), 1.0);
        assert_eq!(w.mean(), 1.0);
    }

    #[test]
    fn constant_weight() {
        let w = WeightProfile::constant(10.0);
        assert_eq!(w.weight_at(t(5.0)), 10.0);
        assert_eq!(w.mean(), 10.0);
    }

    #[test]
    fn fluctuating_weight_is_product() {
        let imp = Wave::with_period(2.0, 0.5, 100.0, 0.0);
        let pop = Wave::Constant(3.0);
        let w = WeightProfile::new(imp, pop);
        // At t = 25 (quarter period) the sine peaks: 2·(1+0.5)·3 = 9.
        assert!((w.weight_at(t(25.0)) - 9.0).abs() < 1e-9);
        assert_eq!(w.mean(), 6.0);
    }

    #[test]
    fn weights_never_negative() {
        let w = WeightProfile::new(
            Wave::with_period(1.0, 1.0, 10.0, 0.0),
            Wave::with_period(1.0, 1.0, 7.0, 1.0),
        );
        for i in 0..1000 {
            assert!(w.weight_at(t(i as f64 * 0.1)) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weight() {
        let _ = WeightProfile::constant(-1.0);
    }

    #[test]
    fn weight_set_matches_profiles_bit_for_bit() {
        let profiles = vec![
            WeightProfile::unit(),
            WeightProfile::constant(3.25),
            WeightProfile::new(Wave::with_period(2.0, 0.5, 100.0, 0.3), Wave::Constant(1.5)),
        ];
        let set = WeightSet::new(profiles.clone());
        assert_eq!(set.len(), 3);
        for (i, p) in profiles.iter().enumerate() {
            for s in [0.0, 1.0, 25.0, 137.5] {
                let t = t(s);
                assert_eq!(set.weight_at(i, t).to_bits(), p.weight_at(t).to_bits());
            }
        }
        // Constant profiles take the dense path; fluctuating ones keep the
        // full profile.
        assert_eq!(set.profile(2).constant_value(), None);
        assert_eq!(set.profile(1).constant_value(), Some(3.25));
    }
}

//! Experiment harness: regenerates every table and figure in the paper's
//! evaluation; `experiments --help` lists them.
//!
//! Each module owns one experiment and produces typed rows; the
//! `experiments` binary prints them as aligned tables and writes CSV under
//! `results/`. All experiments accept a [`Mode`]:
//!
//! * `Quick` — CI-scale (seconds), same qualitative shapes.
//! * `Standard` — the default scale (minutes).
//! * `Full` — the paper's own grid sizes (can take hours).
//!
//! Determinism: every run derives from an explicit seed, so tables are
//! regenerable bit-for-bit.
//!
//! Every system a figure compares — `CoopSystem`, `IdealSystem`, the
//! competitive system and the CGM baselines — is a handler on the one
//! event kernel (`besync::kernel`), so figure regeneration takes the
//! fast path throughout; CI's experiments-smoke job regenerates the
//! quick fig4/5/6 and §7 grids on every PR.

pub mod bounds;
pub mod competitive;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod output;
pub mod params;
pub mod sampling;
pub mod validate;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Seconds; used by the tests.
    Quick,
    /// Minutes; the default scale.
    Standard,
    /// Paper-scale grids.
    Full,
}

impl Mode {
    /// Parses `quick`/`standard`/`full`.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "quick" => Some(Mode::Quick),
            "standard" => Some(Mode::Standard),
            "full" => Some(Mode::Full),
            _ => None,
        }
    }

    /// Name for filenames and logs.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Standard => "standard",
            Mode::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_round_trip() {
        for m in [Mode::Quick, Mode::Standard, Mode::Full] {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
        assert_eq!(Mode::parse("bogus"), None);
    }
}

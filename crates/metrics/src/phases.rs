//! Execution phases and phase timing.

/// The phases of an expanding hash-based join (§4: build, the hybrid's
/// reshuffling step, probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Hash-table building phase (relation R streams in).
    Build,
    /// The hybrid algorithm's reshuffling step between build and probe.
    Reshuffle,
    /// Hash-table probing phase (relation S streams in).
    Probe,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 3] = [Phase::Build, Phase::Reshuffle, Phase::Probe];

    /// Stable index for dense per-phase arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Self::Build => 0,
            Self::Reshuffle => 1,
            Self::Probe => 2,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Build => "build",
            Self::Reshuffle => "reshuffle",
            Self::Probe => "probe",
        }
    }
}

/// Wall (virtual) seconds spent in each phase of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    /// Hash-table building time (Figures 3, 9).
    pub build_secs: f64,
    /// Reshuffle time (Figure 5; zero for non-hybrid algorithms).
    pub reshuffle_secs: f64,
    /// Probe time.
    pub probe_secs: f64,
    /// End-to-end execution time (Figures 2, 6, 7, 8, 10); ≥ the sum of the
    /// phases because it includes phase-transition barriers.
    pub total_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn names() {
        assert_eq!(Phase::Build.name(), "build");
        assert_eq!(Phase::Reshuffle.name(), "reshuffle");
        assert_eq!(Phase::Probe.name(), "probe");
    }
}

//! Aggregate decision counters maintained by the interval manager.

use serde::Serialize;
use serde_json::FromJson;

/// Per-run tally of manager decisions, grouped by driving reason.
///
/// Maintained incrementally by the interval manager (one bump per
/// `observe()`), cheap enough to keep even with tracing disabled, and
/// embedded as a metrics snapshot in the fault-campaign JSON reports.
/// Every counter is derived solely from the deterministic decision stream,
/// so reports stay byte-identical across worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, FromJson)]
pub struct DecisionCounts {
    /// Intervals observed (decisions made).
    pub intervals: u64,
    /// Intervals where the manager held the current configuration.
    pub stays: u64,
    /// Switches issued to visit a configuration with no estimate yet.
    pub explore_switches: u64,
    /// Switches issued by the periodic re-sampling policy.
    pub resample_switches: u64,
    /// Switches issued by the confidence-gated predictor.
    pub predicted_switches: u64,
    /// Pre-switches issued by the pattern predictor.
    pub pattern_switches: u64,
    /// Returns to the sampling home after a re-sampling excursion.
    pub home_returns: u64,
    /// Intervals spent parked in safe mode (or fully quarantined).
    pub safe_mode_holds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_serialize_with_all_fields() {
        let c = DecisionCounts {
            intervals: 10,
            stays: 4,
            ..DecisionCounts::default()
        };
        let json = serde_json::to_string(&c).expect("counts serialize");
        let v = serde_json::from_str(&json).expect("counts parse");
        assert_eq!(v.get("intervals").and_then(|x| x.as_u64()), Some(10));
        assert_eq!(v.get("stays").and_then(|x| x.as_u64()), Some(4));
        for key in [
            "explore_switches",
            "resample_switches",
            "predicted_switches",
            "pattern_switches",
            "home_returns",
            "safe_mode_holds",
        ] {
            assert_eq!(v.get(key).and_then(|x| x.as_u64()), Some(0), "{key}");
        }
    }
}

//! Round-trip tests for the cached and journaled result types.
//!
//! Every result that the memo layer or the leg journal can replay
//! decodes through `serde_json::FromJson`, derived next to its
//! `Serialize` derive on the struct itself, so the field list a type
//! writes is the field list it reads back. Any shape mismatch decodes
//! to `None`, which callers treat as a miss — a corrupt cache entry or
//! journal line can never panic a run. The tests below, the ones in
//! `tests/parallel_equiv.rs` and the `json/derive-roundtrip` property of
//! `capsim verify` hold the derives to that.

#[cfg(test)]
mod tests {
    use crate::faults::{FaultStats, LegReport};
    use crate::manager::ResilienceStats;
    use cap_obs::DecisionCounts;
    use serde_json::{FromJson, Value};

    fn sample_leg() -> LegReport {
        LegReport {
            structure: "queue".to_string(),
            clean_tpi_ns: 1.625,
            faulty_tpi_ns: 1.75,
            tpi_degradation: 0.0769,
            clean_switches: 12,
            faulty_switches: 9,
            retries: 4,
            retry_penalty_ns: 321.5,
            switch_failures: 2,
            faults: FaultStats {
                transient_switch_faults: 4,
                permanent_switch_faults: 2,
                samples_corrupted_nan: 1,
                samples_corrupted_outlier: 3,
                samples_dropped: 1,
                dead_increments: 0,
                broken_configs: 1,
            },
            resilience: ResilienceStats {
                samples_rejected: 2,
                samples_clamped: 3,
                quarantines: 1,
                probations: 1,
                safe_mode_entries: 0,
            },
            decisions: DecisionCounts {
                intervals: 120,
                stays: 100,
                explore_switches: 8,
                resample_switches: 5,
                predicted_switches: 4,
                pattern_switches: 0,
                home_returns: 3,
                safe_mode_holds: 0,
            },
            quarantined_configs: 1,
            safe_mode: false,
            final_config: 2,
            final_config_label: "32 entries".to_string(),
            final_config_quarantined: false,
        }
    }

    #[test]
    fn leg_report_round_trips_bit_exactly() {
        let leg = sample_leg();
        let text = serde_json::to_string(&leg).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(LegReport::from_json(&doc), Some(leg));
    }

    #[test]
    fn missing_or_mistyped_fields_decode_to_none() {
        let leg = sample_leg();
        let text = serde_json::to_string(&leg).unwrap();

        let doc: Value = serde_json::from_str(&text.replace("\"structure\"", "\"construct\"")).unwrap();
        assert!(LegReport::from_json(&doc).is_none(), "renamed field");

        let doc: Value = serde_json::from_str(&text.replace("\"safe_mode\":false", "\"safe_mode\":0")).unwrap();
        assert!(LegReport::from_json(&doc).is_none(), "mistyped field");

        // A nested block with a hole poisons the whole decode.
        let doc: Value = serde_json::from_str(&text.replace("\"quarantines\"", "\"qqq\"")).unwrap();
        assert!(LegReport::from_json(&doc).is_none(), "nested hole");

        assert!(LegReport::from_json(&Value::Null).is_none());
    }
}

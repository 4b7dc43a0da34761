//! Interval-granular performance recording (paper §6).
//!
//! The paper's Figures 12–13 plot average TPI over consecutive intervals
//! of 2000 instructions. This module holds the interval sample and its
//! trace event, and records one interval of a managed core; each cycle
//! counts towards the interval in which it retires. Fixed-window series
//! run as lanes of one pass ([`crate::multisweep::interval_lanes`]).

use crate::core::OooCore;
use cap_obs::{Event, Recorder, SampleEvent};
use cap_timing::units::Ns;
use cap_trace::inst::InstStream;

/// The interval length used throughout the paper's Section 6.
pub const PAPER_INTERVAL_INSTS: u64 = 2000;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSample {
    /// Zero-based interval index.
    pub index: u64,
    /// Cycles the interval took.
    pub cycles: u64,
    /// Instructions committed in the interval (equals the interval length
    /// except possibly for bookkeeping at the very end of a run).
    pub insts: u64,
}

impl IntervalSample {
    /// Average time per instruction over the interval at a given cycle
    /// time.
    pub fn tpi(&self, cycle_time: Ns) -> Ns {
        if self.insts == 0 {
            Ns(0.0)
        } else {
            cycle_time * (self.cycles as f64 / self.insts as f64)
        }
    }
}

/// Records `sample` as the [`cap_obs::SampleEvent`] of the 1-based
/// interval `interval` of the run `label`, if `recorder` is enabled.
pub fn record_sample(recorder: &dyn Recorder, label: Option<&str>, interval: u64, sample: &IntervalSample) {
    if recorder.enabled() {
        recorder.record(&Event::Sample(SampleEvent {
            app: label.map(str::to_string),
            interval,
            cycles: sample.cycles,
            insts: sample.insts,
        }));
    }
}

/// Records interval `index` of a managed run on one core: one
/// [`OooCore::run`] of `interval_len` instructions, traced as the
/// [`cap_obs::SampleEvent`] numbered `index + 1` so that samples line up
/// with decision events. It always returns a sample.
///
/// # Errors
///
/// [`OooError::ZeroIntervalLength`](crate::error::OooError::ZeroIntervalLength) if `interval_len` is zero.
pub fn record_interval_observed<S: InstStream>(
    core: &mut OooCore,
    stream: &mut S,
    interval_len: u64,
    index: u64,
    recorder: &dyn Recorder,
    label: Option<&str>,
) -> Result<Option<IntervalSample>, crate::error::OooError> {
    if interval_len == 0 {
        return Err(crate::error::OooError::ZeroIntervalLength);
    }
    let stats = core.run(stream, interval_len);
    let sample = IntervalSample { index, cycles: stats.cycles, insts: stats.committed };
    record_sample(recorder, label, index + 1, &sample);
    Ok(Some(sample))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, WindowSize};
    use crate::multisweep::interval_lanes;
    use cap_trace::inst::{IlpParams, SegmentIlp};
    use cap_trace::phase::{Phase, PhasedIlp};

    fn serial() -> IlpParams {
        IlpParams {
            chain_len: 8,
            burst_len: 2,
            chain_latency: 2,
            burst_latency: 1,
            cross_dep_prob: 1.0,
            burst_chain_len: 1,
            far_dep_prob: 0.0,
            jitter: 0.0,
        }
    }

    fn parallel() -> IlpParams {
        IlpParams { cross_dep_prob: 0.0, ..serial() }
    }

    fn window64() -> WindowSize {
        WindowSize::new(64).unwrap()
    }

    #[test]
    fn intervals_cover_requested_span() {
        let s = SegmentIlp::new(IlpParams::balanced(), 1).unwrap();
        let v = interval_lanes(s, &[window64()], 10, PAPER_INTERVAL_INSTS).unwrap().remove(0);
        assert_eq!(v.len(), 10);
        let total: u64 = v.iter().map(|i| i.insts).sum();
        // Commit width 8 can overshoot an interval boundary by < 8.
        assert!(total >= 10 * PAPER_INTERVAL_INSTS);
        assert!(total < 10 * PAPER_INTERVAL_INSTS + 8 * 10);
        for (i, s) in v.iter().enumerate() {
            assert_eq!(s.index, i as u64);
            assert!(s.cycles > 0);
        }
    }

    #[test]
    fn a_managed_interval_sample_carries_its_index() {
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = SegmentIlp::new(IlpParams::balanced(), 1).unwrap();
        for index in 0..3 {
            let sample = record_interval_observed(&mut core, &mut s, 100, index, &cap_obs::NoopRecorder, None);
            assert_eq!(sample.unwrap().unwrap().index, index);
        }
    }

    #[test]
    fn phased_stream_shows_up_as_interval_variation() {
        // Alternate serial and parallel phases of 10_000 instructions:
        // interval cycle costs must alternate correspondingly.
        let schedule = vec![Phase::new(serial(), 10_000), Phase::new(parallel(), 10_000)];
        let stream = PhasedIlp::new(schedule, 3).unwrap();
        let v = interval_lanes(stream, &[window64()], 10, 2000).unwrap().remove(0);
        // Intervals 0-4 are serial (slow), 5-9 parallel (fast).
        let slow: u64 = v[1..4].iter().map(|i| i.cycles).sum();
        let fast: u64 = v[6..9].iter().map(|i| i.cycles).sum();
        assert!(slow > fast * 2, "serial {slow} vs parallel {fast}");
    }

    #[test]
    fn tpi_scales_with_cycle_time() {
        let s = IntervalSample { index: 0, cycles: 4000, insts: 2000 };
        assert!((s.tpi(Ns(0.5)).value() - 1.0).abs() < 1e-12);
        assert!((s.tpi(Ns(1.0)).value() - 2.0).abs() < 1e-12);
        let empty = IntervalSample { index: 0, cycles: 0, insts: 0 };
        assert_eq!(empty.tpi(Ns(0.5)), Ns(0.0));
    }

    #[test]
    fn zero_interval_rejected() {
        let s = SegmentIlp::new(IlpParams::balanced(), 1).unwrap();
        assert_eq!(
            interval_lanes(s, &[window64()], 1, 0).unwrap_err(),
            crate::error::OooError::ZeroIntervalLength
        );
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = SegmentIlp::new(IlpParams::balanced(), 1).unwrap();
        let err = record_interval_observed(&mut core, &mut s, 0, 0, &cap_obs::NoopRecorder, None);
        assert_eq!(err.unwrap_err(), crate::error::OooError::ZeroIntervalLength);
    }
}

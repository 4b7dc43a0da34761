//! Interval-granular performance recording (paper §6).
//!
//! The paper's Figures 12–13 plot average TPI over consecutive intervals
//! of 2000 instructions. This module runs a core and slices its progress
//! into such intervals, attributing each cycle to the interval in which it
//! retires.

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

/// Runs `core` over `stream` for `intervals` intervals of `interval_len`
/// committed instructions each, recording the cycle cost of every
/// interval.
///
/// # Errors
///
/// Returns [`OooError::ZeroIntervalLength`] if `interval_len` is zero.
pub fn record_intervals<S: InstStream>(
    core: &mut OooCore,
    stream: &mut S,
    intervals: u64,
    interval_len: u64,
) -> Result<Vec<IntervalSample>, crate::error::OooError> {
    record_intervals_observed(core, stream, intervals, interval_len, 0, &cap_obs::NoopRecorder, None)
}

/// [`record_intervals`] with trace emission: each recorded interval also
/// produces one [`cap_obs::SampleEvent`] carrying the raw cycle/instruction
/// counters, numbered `base_index + 1 ..` so a managed run's samples line
/// up with its decision events.
///
/// # Errors
///
/// Returns [`OooError::ZeroIntervalLength`] if `interval_len` is zero.
pub fn record_intervals_observed<S: InstStream>(
    core: &mut OooCore,
    stream: &mut S,
    intervals: u64,
    interval_len: u64,
    base_index: u64,
    recorder: &dyn Recorder,
    label: Option<&str>,
) -> Result<Vec<IntervalSample>, crate::error::OooError> {
    if interval_len == 0 {
        return Err(crate::error::OooError::ZeroIntervalLength);
    }
    let mut out = Vec::with_capacity(intervals as usize);
    for index in 0..intervals {
        let stats = core.run(stream, interval_len);
        let sample = IntervalSample { index, cycles: stats.cycles, insts: stats.committed };
        if recorder.enabled() {
            recorder.record(&Event::Sample(SampleEvent {
                app: label.map(str::to_string),
                interval: base_index + index + 1,
                cycles: sample.cycles,
                insts: sample.insts,
            }));
        }
        out.push(sample);
    }
    Ok(out)
}

/// Records exactly one interval at position `index` of a longer run —
/// the per-interval primitive of managed-run kernels. Equivalent to
/// [`record_intervals_observed`] with `intervals == 1` and
/// `base_index == index`; returns `None` only if the core produced no
/// sample (which the batched API would surface as an empty vector).
///
/// # Errors
///
/// Returns [`OooError::ZeroIntervalLength`] if `interval_len` is zero.
///
/// [`OooError::ZeroIntervalLength`]: crate::error::OooError::ZeroIntervalLength
pub fn record_interval_observed<S: InstStream>(
    core: &mut OooCore,
    stream: &mut S,
    interval_len: u64,
    index: u64,
    recorder: &dyn Recorder,
    label: Option<&str>,
) -> Result<Option<IntervalSample>, crate::error::OooError> {
    let samples = record_intervals_observed(core, stream, 1, interval_len, index, recorder, label)?;
    Ok(samples.first().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
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

    #[test]
    fn intervals_cover_requested_span() {
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = SegmentIlp::new(IlpParams::balanced(), 1).unwrap();
        let v = record_intervals(&mut core, &mut s, 10, PAPER_INTERVAL_INSTS).unwrap();
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
    fn phased_stream_shows_up_as_interval_variation() {
        // Alternate serial and parallel phases of 10_000 instructions:
        // interval cycle costs must alternate correspondingly.
        let schedule = vec![Phase::new(serial(), 10_000), Phase::new(parallel(), 10_000)];
        let mut stream = PhasedIlp::new(schedule, 3).unwrap();
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let v = record_intervals(&mut core, &mut stream, 10, 2000).unwrap();
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
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = SegmentIlp::new(IlpParams::balanced(), 1).unwrap();
        assert_eq!(
            record_intervals(&mut core, &mut s, 1, 0).unwrap_err(),
            crate::error::OooError::ZeroIntervalLength
        );
    }
}

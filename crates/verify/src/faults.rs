//! The fault campaign's lanes against its serial reference.
//!
//! A [`FaultCampaign`] leg runs its clean and faulty managed runs as two
//! lanes of one pass over the leg's stream
//! ([`cap_core::manager::run_managed_lanes`] for the queue,
//! [`cap_core::manager::run_managed_cache_lanes`] for the cache). The
//! reference runs each lane alone, clean first: [`run_managed`] over an
//! interval simulation of the lane's structure reading its own copy of
//! the stream. [`faults_lanes_vs_serial`] holds the two bit-identical
//! under fuzzing.

use crate::rng::Rng;
use cap_core::experiments::ExecPolicy;
use cap_core::faults::{FaultCampaign, FaultSpec, LegReport};
use cap_core::manager::{
    run_managed, run_managed_cache_lanes, run_managed_lanes, CacheIntervalSim, FaultedRun,
    ManagedInterval, ManagedLane, QueueIntervalSim, SwitchRetryPolicy,
};
use cap_core::plan::Executor;
use cap_core::policy::PolicyKind;
use cap_core::structure::AdaptiveStructure;
use cap_core::CapError;
use cap_obs::{Event, Recorder, RingRecorder};
use cap_workloads::App;
use std::sync::Arc;

/// A fault spec for one case: all classes off, the standard campaign,
/// every class at a high probability, or random valid values.
fn random_spec(rng: &mut Rng) -> FaultSpec {
    match rng.below(4) {
        0 => FaultSpec::disabled(),
        1 => FaultSpec::standard(),
        2 => FaultSpec {
            transient_switch_prob: 0.9,
            permanent_config_prob: 0.5,
            sample_nan_prob: 0.3,
            sample_outlier_prob: 0.3,
            sample_drop_prob: 0.3,
            outlier_scale: 1000.0,
            max_dead_increments: 16,
        },
        _ => FaultSpec {
            transient_switch_prob: rng.unit(),
            permanent_config_prob: rng.unit() / 2.0,
            sample_nan_prob: rng.unit() / 3.0,
            sample_outlier_prob: rng.unit() / 3.0,
            sample_drop_prob: rng.unit() / 3.0,
            outlier_scale: 1.0 + 100.0 * rng.unit(),
            max_dead_increments: rng.below(17) as usize,
        },
    }
}

/// One fuzzed campaign (`faults/lanes-vs-serial`): a random application,
/// seed, fault spec (all-zero and high-probability specs included) and
/// policy. Both legs run twice: at fuzzed lengths — one to forty
/// intervals of one instruction, `CW - 1`, an odd count or 1000, and of
/// one, 13 or up to 4000 references — and at the campaign's own interval
/// lengths with a few intervals. For each leg, each lane's
/// [`FaultedRun`] (every interval's configuration, sample, period and
/// TPI, the switch, retry and failure counts, every penalty and the
/// average TPI, as bits), its injector's statistics, its trace events
/// and the [`LegReport`] must equal the serial reference's. At the
/// campaign's lengths, [`FaultCampaign::run`] must report the
/// reference's legs, and its trace must be the reference's runs one
/// after another: queue clean, queue faulty, cache clean, cache faulty.
///
/// # Errors
///
/// Returns a message naming the first diverging leg, lane and field.
pub fn faults_lanes_vs_serial(rng: &mut Rng) -> Result<(), String> {
    let app = *rng.pick(&App::ALL);
    let seed = rng.next_u64();
    let kind = *rng.pick(&PolicyKind::ALL);
    let spec = random_spec(rng);
    let ctx = format!("{} seed {seed:#x} {} {spec:?}", app.name(), kind.name());
    let odd = 2 * rng.range(1, 500) + 1;
    let interval_len = *rng.pick(&[1, 7, odd, 1000]);
    let queue_intervals = rng.range(1, (30_000 / interval_len).clamp(2, 40));
    let some_refs = rng.range(50, 4000);
    let refs = *rng.pick(&[1, 13, some_refs]);
    let cache_intervals = rng.range(1, (60_000 / refs).clamp(2, 40));
    // The lanes a campaign starts do not depend on its run lengths.
    let campaign = FaultCampaign::new(app, seed).with_spec(spec).with_policy(kind);
    let stream_seed = seed ^ app.seed_salt();
    check_legs(&ctx, &campaign, app, stream_seed, [queue_intervals, interval_len], [cache_intervals, refs])?;

    let (queue, cache) = (
        [rng.range(1, 8), FaultCampaign::INTERVAL_INSTS],
        [rng.range(1, 6), FaultCampaign::INTERVAL_REFS],
    );
    let campaign = campaign.with_lengths(queue[0], cache[0]);
    let legs = check_legs(&ctx, &campaign, app, stream_seed, queue, cache)?;
    let ctx = format!("{ctx} q{}x{} c{}x{}", queue[0], queue[1], cache[0], cache[1]);
    let [(queue, queue_events), (cache, cache_events)] = legs;
    let report = campaign.run().map_err(|e| format!("{ctx}: the campaign failed: {e}"))?;
    for (name, got, want) in [("queue", &report.queue, &queue), ("cache", &report.cache, &cache)] {
        same_report(&format!("{ctx}: the campaign's {name} leg"), want, got)?;
    }
    let ring = Arc::new(RingRecorder::new());
    Executor::run(&campaign.plan(), &ExecPolicy::serial().with_recorder(ring.clone()))
        .map_err(|e| format!("{ctx}: the traced campaign failed: {e}"))?;
    let traced: Vec<String> = ring.events().iter().filter(|e| is_run_event(e)).map(Event::to_json).collect();
    same_events(&format!("{ctx}: the campaign's trace"), &[queue_events, cache_events].concat(), &traced)
}

/// Checks both legs of `campaign`'s lanes over `app`'s streams at
/// `stream_seed`, the queue leg at `[intervals, instructions per
/// interval]`, the cache leg at `[intervals, references per interval]`.
/// Returns each leg's reference report and trace.
fn check_legs(
    ctx: &str,
    campaign: &FaultCampaign,
    app: App,
    stream_seed: u64,
    [queue_intervals, interval_len]: [u64; 2],
    [cache_intervals, refs]: [u64; 2],
) -> Result<[(LegReport, Vec<String>); 2], String> {
    let retry = SwitchRetryPolicy::default();
    let queue = check_leg(
        &format!("{ctx} q{queue_intervals}x{interval_len}, queue leg"),
        "queue",
        |recorders| campaign.queue_lanes(recorders),
        |ManagedLane { structure, policy, clock, injector }| {
            let mut stream = app.ilp_profile().build(stream_seed);
            let mut sim = QueueIntervalSim::new(structure, &mut stream, interval_len)?;
            run_managed(&mut sim, &mut **policy, clock, queue_intervals, injector.as_mut(), retry)
        },
        |lanes| run_managed_lanes(app.ilp_profile().build(stream_seed), lanes, &[(queue_intervals, interval_len); 2]),
    )?;
    let profile = app.memory_profile();
    let cache = check_leg(
        &format!("{ctx} c{cache_intervals}x{refs}, cache leg"),
        "cache",
        |recorders| campaign.cache_lanes(recorders),
        |ManagedLane { structure, policy, clock, injector }| {
            let mut stream = profile.build(stream_seed);
            let mut sim = CacheIntervalSim::new(structure, &mut stream, refs, profile.insts_per_ref)?;
            run_managed(&mut sim, &mut **policy, clock, cache_intervals, injector.as_mut(), retry)
        },
        |lanes| {
            let stream = profile.build(stream_seed);
            run_managed_cache_lanes(stream, lanes, cache_intervals, refs, profile.insts_per_ref)
        },
    )?;
    Ok([queue, cache])
}

/// Checks one leg: the lanes `lanes` builds, run together by `together`,
/// against the same lanes each run alone by `serial`. Returns the
/// reference's report and its trace, clean run first.
fn check_leg<S: AdaptiveStructure>(
    ctx: &str,
    name: &str,
    lanes: impl Fn([Arc<dyn Recorder>; 2]) -> Result<[ManagedLane<S>; 2], CapError>,
    serial: impl Fn(&mut ManagedLane<S>) -> Result<FaultedRun, CapError>,
    together: impl FnOnce(&mut [ManagedLane<S>]) -> Result<Vec<FaultedRun>, CapError>,
) -> Result<(LegReport, Vec<String>), String> {
    let rings = || [(); 2].map(|()| Arc::new(RingRecorder::new()));
    let recorders = |rings: &[Arc<RingRecorder>; 2]| rings.clone().map(|ring| ring as Arc<dyn Recorder>);
    let (reference_rings, lane_rings) = (rings(), rings());
    let err = |what: &'static str| move |e: CapError| format!("{ctx}: {what} failed: {e}");

    let mut reference = lanes(recorders(&reference_rings)).map_err(err("building the lanes"))?;
    let want = reference.iter_mut().map(&serial).collect::<Result<Vec<_>, _>>().map_err(err("a serial run"))?;
    let mut under_test = lanes(recorders(&lane_rings)).map_err(err("building the lanes"))?;
    let got = together(&mut under_test).map_err(err("the lanes"))?;
    if got.len() != 2 {
        return Err(format!("{ctx}: the lanes returned {} runs for 2 lanes", got.len()));
    }

    let mut events = Vec::new();
    for (lane, run) in ["clean", "faulty"].into_iter().enumerate() {
        let ctx = format!("{ctx}, {run} lane");
        same_run(&ctx, &want[lane], &got[lane])?;
        let stats = |lanes: &[ManagedLane<S>; 2]| lanes[lane].injector.as_ref().map(|i| i.stats());
        if stats(&reference) != stats(&under_test) {
            return Err(format!(
                "{ctx}: injector stats {:?} (serial) vs {:?} (lanes)",
                stats(&reference),
                stats(&under_test)
            ));
        }
        let to_json = |ring: &RingRecorder| ring.events().iter().map(Event::to_json).collect::<Vec<_>>();
        let reference_events = to_json(&reference_rings[lane]);
        same_events(&ctx, &reference_events, &to_json(&lane_rings[lane]))?;
        events.extend(reference_events);
    }
    let report = LegReport::new(name, &want[0], &want[1], &reference[1]);
    same_report(ctx, &report, &LegReport::new(name, &got[0], &got[1], &under_test[1]))?;
    Ok((report, events))
}

/// Whether `event` is a managed run's, not the executor's.
fn is_run_event(event: &Event) -> bool {
    matches!(
        event,
        Event::Decision(_)
            | Event::SwitchResult(_)
            | Event::ClockSwitch(_)
            | Event::Quarantine(_)
            | Event::Probation(_)
            | Event::SafeMode(_)
            | Event::Pattern(_)
            | Event::Sample(_)
            | Event::CacheSim(_)
    )
}

/// Compares two runs of one lane, every time as bits.
pub(crate) fn same_run(ctx: &str, serial: &FaultedRun, lanes: &FaultedRun) -> Result<(), String> {
    let interval = |i: &ManagedInterval| (i.config, i.sample, i.period.value().to_bits(), i.tpi().value().to_bits());
    let (want, got) = (&serial.run.intervals, &lanes.run.intervals);
    if let Some(k) = (0..want.len().max(got.len())).find(|&k| want.get(k).map(interval) != got.get(k).map(interval)) {
        return Err(format!("{ctx}: interval {k} differs — {:?} (serial) vs {:?} (lanes)", want.get(k), got.get(k)));
    }
    let totals = |r: &FaultedRun| {
        [
            r.run.switches,
            r.run.switch_penalty.value().to_bits(),
            r.retries,
            r.retry_penalty.value().to_bits(),
            r.switch_failures,
            r.run.average_tpi().value().to_bits(),
        ]
    };
    if totals(serial) != totals(lanes) {
        let show = |r: &FaultedRun| {
            format!(
                "{} switches, {} penalty, {} retries, {} retry penalty, {} failures, TPI {}",
                r.run.switches,
                r.run.switch_penalty,
                r.retries,
                r.retry_penalty,
                r.switch_failures,
                r.run.average_tpi()
            )
        };
        return Err(format!("{ctx}: {} (serial) vs {} (lanes)", show(serial), show(lanes)));
    }
    Ok(())
}

/// Compares two leg reports as JSON, which prints every `f64` exactly.
fn same_report(ctx: &str, want: &LegReport, got: &LegReport) -> Result<(), String> {
    let (want, got) = (serde_json::to_string(want), serde_json::to_string(got));
    match (want, got) {
        (Ok(want), Ok(got)) if want == got => Ok(()),
        (want, got) => Err(format!("{ctx}: report {want:?} (serial) vs {got:?} (lanes)")),
    }
}

/// Compares two traces, given as JSON lines (a corrupted sample traces
/// as NaN, which no `Event` equals).
pub(crate) fn same_events(ctx: &str, want: &[String], got: &[String]) -> Result<(), String> {
    match (0..want.len().max(got.len())).find(|&k| want.get(k) != got.get(k)) {
        Some(k) => Err(format!("{ctx}: trace event {k} differs — {:?} (serial) vs {:?} (lanes)", want.get(k), got.get(k))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_campaigns_match_their_serial_reference() {
        for case in 0..6 {
            faults_lanes_vs_serial(&mut Rng::for_case(7, "faults/lanes-vs-serial", case)).unwrap();
        }
    }
}

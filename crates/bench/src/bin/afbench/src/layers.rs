//! The traced phase: each layer's public functions timed from outside.
//!
//! Nothing is traced inside the program. The benchmark calls each
//! layer's entry points itself on the workload's traces and clocks every
//! call. Calls too short to clock one by one are clocked as a loop: the
//! per-sample DSP kernels over the whole trace, and the engine's pushes
//! made outside a gesture (which cannot close a window) as runs. A clock
//! read costs about 20 ns here, against about 380 ns for a quiet push.

use crate::fleet_serve::FleetStats;
use crate::stats::{ratio, Timings};
use crate::workload::{Trace, SAMPLES_PER_TICK};
use airfinger_core::config::AirFingerConfig;
use airfinger_core::detect::DetectRecognizer;
use airfinger_core::engine::{DeferredPush, StreamingEngine};
use airfinger_core::events::Recognition;
use airfinger_core::filter::NonGestureFilter;
use airfinger_core::pipeline::AirFinger;
use airfinger_core::train::LabeledFeatures;
use airfinger_dsp::sbc::Sbc;
use airfinger_dsp::segment::StreamingSegmenter;
use airfinger_dsp::threshold::DynamicThreshold;
use airfinger_features::FeatureKind;
use airfinger_fleet::{Fleet, FleetConfig};
use airfinger_obs::alloc;
use airfinger_obs::monitor::with_horizon;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Length of the engine's ΔRSS² smoothing window, mirrored so the
/// threshold and segmenter kernels see the inputs the engine feeds them.
const SMOOTH_LEN: usize = 5;

/// Per-call timings of one traced replay of the pipeline.
#[derive(Debug, Default)]
pub struct Replay {
    /// Recognitions, in order.
    pub recs: Vec<Recognition>,
    /// Samples replayed.
    pub samples: u64,
    /// `push_deferred` calls that closed no window.
    pub ingest_calls: u64,
    /// Time spent in them.
    pub ingest_ns: u128,
    /// `push_deferred` calls that closed a window.
    pub close: Timings,
    /// `NonGestureFilter::is_gesture` per window.
    pub filter: Timings,
    /// `DetectRecognizer::features` per accepted window.
    pub features: Timings,
    /// `DetectRecognizer::predict_features` per accepted window.
    pub predict: Timings,
    /// `AirFinger::finish_window` per accepted window.
    pub finish: Timings,
    /// Windows the filter rejected.
    pub rejected: u64,
    /// Length of every closed window, in samples.
    pub window_lens: Vec<usize>,
    /// Every closed window's ΔRSS², each channel divided by the
    /// window's global peak (the series the feature kinds run on).
    pub normalised: Vec<Vec<Vec<f64>>>,
    /// Wall time of the replay loops.
    pub wall_ns: u128,
}

impl Replay {
    /// Time spent inside the timed calls.
    #[must_use]
    pub fn timed_ns(&self) -> u128 {
        self.ingest_ns
            + [
                &self.close,
                &self.filter,
                &self.features,
                &self.predict,
                &self.finish,
            ]
            .iter()
            .map(|t| t.sum_ns())
            .sum::<u128>()
    }
}

/// Train the benchmark's own copy of the non-gesture filter from the same
/// binary feature set and configuration the pipeline's was trained from,
/// so it reproduces the pipeline's filter decisions.
///
/// # Errors
///
/// Propagates training failures.
pub fn train_filter(
    config: &AirFingerConfig,
    binary: &LabeledFeatures,
) -> Result<NonGestureFilter, String> {
    let mut filter = NonGestureFilter::new(config);
    filter
        .train_features(&binary.x, &binary.y)
        .map_err(|e| format!("filter training: {e}"))?;
    Ok(filter)
}

/// Replay `trace` through `push_deferred`, then classify each closed
/// window through the filter, `features`, `predict_features` and
/// `finish_window` — the stages `push` runs inline — timing every call
/// into `r`.
///
/// # Errors
///
/// Propagates engine and recognition failures.
pub fn replay(
    pipeline: &Arc<AirFinger>,
    filter: &NonGestureFilter,
    trace: &Trace,
    keep_windows: bool,
    r: &mut Replay,
) -> Result<(), String> {
    let mut engine = StreamingEngine::with_shared(Arc::clone(pipeline), trace.channels)
        .map_err(|e| format!("engine: {e}"))?;
    let detect: &DetectRecognizer = pipeline.detect_recognizer();
    // lint: wall-clock — traced wall time
    let loop_start = Instant::now();
    // Start and length of the current run of pushes made outside a
    // gesture.
    let mut run: Option<(Instant, u64)> = None;
    for (i, sample) in trace.data.chunks_exact(trace.channels).enumerate() {
        if !engine.in_gesture() {
            // lint: wall-clock — the traced run
            let (t0, calls) = run.get_or_insert_with(|| (Instant::now(), 0));
            *calls += 1;
            let pushed = engine.push_deferred(sample);
            let t0 = *t0;
            match pushed.map_err(|e| format!("push {i}: {e}"))? {
                DeferredPush::Quiet if !engine.in_gesture() => continue,
                DeferredPush::Quiet => {}
                DeferredPush::Closed(pending) => {
                    return Err(format!(
                        "push {i} closed a window {:?} outside a gesture",
                        pending.window().segment
                    ));
                }
            }
            if let Some((_, calls)) = run.take() {
                r.ingest_ns += t0.elapsed().as_nanos();
                r.ingest_calls += calls;
            }
            continue;
        }
        let t0 = Instant::now(); // lint: wall-clock — the traced call
        let pushed = engine.push_deferred(sample);
        let t1 = Instant::now(); // lint: wall-clock — the traced call
        let pending = match pushed.map_err(|e| format!("push {i}: {e}"))? {
            DeferredPush::Quiet => {
                r.ingest_ns += (t1 - t0).as_nanos();
                r.ingest_calls += 1;
                continue;
            }
            DeferredPush::Closed(pending) => {
                r.close.record(t1 - t0);
                pending
            }
        };
        let window = pending.window();
        let t0 = Instant::now(); // lint: wall-clock — the traced call
        let is_gesture = filter.is_gesture(window);
        let t1 = Instant::now(); // lint: wall-clock — the traced call
        r.filter.record(t1 - t0);
        let result = if is_gesture.map_err(|e| format!("filter: {e}"))? {
            let t0 = Instant::now(); // lint: wall-clock — the traced call
            let features = detect.features(window);
            let t1 = Instant::now(); // lint: wall-clock — the traced call
            let predicted = detect.predict_features(&features);
            let t2 = Instant::now(); // lint: wall-clock — the traced call
            let index = predicted.map_err(|e| format!("predict: {e}"))?;
            let finished = pipeline.finish_window(window, index);
            let t3 = Instant::now(); // lint: wall-clock — the traced call
            r.features.record(t1 - t0);
            r.predict.record(t2 - t1);
            r.finish.record(t3 - t2);
            finished
        } else {
            r.rejected += 1;
            Ok(Recognition::Rejected {
                segment: window.segment,
            })
        };
        engine.resolve_pending(&pending, &result);
        r.recs.push(result.map_err(|e| format!("finish: {e}"))?);
        r.window_lens.push(window.segment.len());
        if keep_windows {
            let peak = window
                .delta
                .iter()
                .flatten()
                .fold(0.0f64, |m, &v| m.max(v))
                .max(f64::MIN_POSITIVE);
            r.normalised.push(
                window
                    .delta
                    .iter()
                    .map(|c| c.iter().map(|v| v / peak).collect())
                    .collect(),
            );
        }
    }
    if let Some((t0, calls)) = run {
        r.ingest_ns += t0.elapsed().as_nanos();
        r.ingest_calls += calls;
    }
    r.wall_ns += loop_start.elapsed().as_nanos();
    r.samples += trace.len() as u64;
    Ok(())
}

/// Nanoseconds per sample spent in `SbcStream::push`,
/// `DynamicThreshold::observe` (with the `threshold` read the engine
/// makes after it) and `StreamingSegmenter::push`, each clocked as one
/// loop over each trace.
#[must_use]
pub fn dsp(config: &AirFingerConfig, traces: &[Trace]) -> [f64; 3] {
    let mut ns = [0u128; 3];
    let mut samples = 0usize;
    for trace in traces {
        let n = trace.len();
        let ch = trace.channels;
        samples += n;

        let mut sbc: Vec<_> = (0..ch)
            .map(|_| Sbc::new(config.sbc_window).stream())
            .collect();
        let mut delta = vec![0.0; n * ch];
        let t0 = Instant::now(); // lint: wall-clock — the traced loop
        for (raw, out) in trace.data.chunks_exact(ch).zip(delta.chunks_exact_mut(ch)) {
            for ((s, &x), d) in sbc.iter_mut().zip(raw).zip(out.iter_mut()) {
                *d = s.push(x);
            }
        }
        ns[0] += t0.elapsed().as_nanos();

        // The engine's 5-tap running mean (untimed: it is inline engine
        // code, not a dsp call).
        let mut smoothed = vec![0.0; n * ch];
        for k in 0..ch {
            for i in 0..n {
                let lo = i.saturating_sub(SMOOTH_LEN - 1);
                let taps = (lo..=i).map(|j| delta[j * ch + k]);
                smoothed[i * ch + k] = taps.sum::<f64>() / (i - lo + 1) as f64;
            }
        }

        let mut thresholds: Vec<_> = (0..ch)
            .map(|_| DynamicThreshold::new(config.initial_threshold, config.threshold_forget))
            .collect();
        let mut activity = vec![0.0; n];
        let t0 = Instant::now(); // lint: wall-clock — the traced loop
        for (values, a) in smoothed.chunks_exact(ch).zip(activity.iter_mut()) {
            let mut act = 0.0f64;
            for (th, &v) in thresholds.iter_mut().zip(values) {
                th.observe(v);
                act = act.max(v / th.threshold().max(f64::MIN_POSITIVE));
            }
            *a = act;
        }
        ns[1] += t0.elapsed().as_nanos();

        let mut segmenter = StreamingSegmenter::new(config.segmenter);
        let t0 = Instant::now(); // lint: wall-clock — the traced loop
        for &a in &activity {
            black_box(segmenter.push(a, 1.0));
        }
        ns[2] += t0.elapsed().as_nanos();
    }
    ns.map(|t| ratio(t as f64, samples as f64))
}

/// For each Table-I kind, nanoseconds per window of
/// `FeatureKind::values` over every channel of every window.
#[must_use]
pub fn feature_kinds(windows: &[Vec<Vec<f64>>]) -> Vec<(FeatureKind, f64)> {
    FeatureKind::table1()
        .into_iter()
        .map(|kind| {
            let t0 = Instant::now(); // lint: wall-clock — the traced phase measures calls
            for window in windows {
                for channel in window {
                    black_box(kind.values(black_box(channel)));
                }
            }
            let ns = t0.elapsed().as_nanos() as f64;
            (kind, ratio(ns, windows.len() as f64))
        })
        .collect()
}

/// Snake-case name of a feature kind, as used in metric names.
#[must_use]
pub fn kind_name(kind: FeatureKind) -> String {
    let mut out = String::new();
    for (i, c) in format!("{kind:?}").chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Instrumentation and monitor cost, each measured as a difference of
/// whole push passes over `traces`.
#[derive(Debug, Clone, Copy)]
pub struct ObsCost {
    /// ns/push with obs recording on minus with it off.
    pub tax_ns: f64,
    /// ns/push with an `EngineMonitor` attached minus without.
    pub monitor_ns: f64,
    /// ns/push of the untraced pass (recording on, no monitor).
    pub bare_ns: f64,
    /// Allocations per push in the untraced pass.
    pub allocs: f64,
    /// Bytes allocated per push in the untraced pass.
    pub alloc_bytes: f64,
}

/// Turns obs recording back on when dropped, even on an early return.
struct RecordingOff;

impl RecordingOff {
    fn new() -> Self {
        airfinger_obs::set_recording(false);
        RecordingOff
    }
}

impl Drop for RecordingOff {
    fn drop(&mut self) {
        airfinger_obs::set_recording(true);
    }
}

/// One push pass per trace through fresh engines; returns (wall ns,
/// pushes, allocation events, allocated bytes).
fn push_pass(
    pipeline: &Arc<AirFinger>,
    traces: &[Trace],
    monitor: bool,
) -> Result<(f64, f64, f64, f64), String> {
    let mut ns = 0u128;
    let mut pushes = 0usize;
    let before = alloc::thread_stats();
    for trace in traces {
        let mut engine = StreamingEngine::with_shared(Arc::clone(pipeline), trace.channels)
            .map_err(|e| format!("engine: {e}"))?;
        if monitor {
            engine.attach_monitor(with_horizon(400));
        }
        let t0 = Instant::now(); // lint: wall-clock — the traced phase measures calls
        for i in 0..trace.len() {
            black_box(
                engine
                    .push(trace.sample(i))
                    .map_err(|e| format!("push {i}: {e}"))?,
            );
        }
        ns += t0.elapsed().as_nanos();
        pushes += trace.len();
    }
    let used = alloc::thread_stats().since(before);
    Ok((
        ns as f64,
        pushes as f64,
        used.count as f64,
        used.bytes as f64,
    ))
}

/// Measure [`ObsCost`] with one pass of each variant.
///
/// # Errors
///
/// Propagates engine failures.
pub fn obs_cost(pipeline: &Arc<AirFinger>, traces: &[Trace]) -> Result<ObsCost, String> {
    let (on_ns, n, allocs, bytes) = push_pass(pipeline, traces, false)?;
    let off_ns = {
        let _off = RecordingOff::new();
        push_pass(pipeline, traces, false)?.0
    };
    let (mon_ns, _, _, _) = push_pass(pipeline, traces, true)?;
    Ok(ObsCost {
        tax_ns: ratio(on_ns - off_ns, n),
        monitor_ns: ratio(mon_ns - on_ns, n),
        bare_ns: ratio(on_ns, n),
        allocs: ratio(allocs, n),
        alloc_bytes: ratio(bytes, n),
    })
}

/// Serve each of `traces` through its own one-session fleet, 4 samples
/// per round, clocking every `enqueue` and `run_round`. Returns the
/// fleet layer's statistics and the sessions' recognitions in trace
/// order.
///
/// # Errors
///
/// Propagates fleet failures.
pub fn fleet_probe(
    pipeline: &Arc<AirFinger>,
    traces: &[Trace],
) -> Result<(FleetStats, Vec<Recognition>), String> {
    let config = FleetConfig {
        shards: 1,
        sessions_per_shard: 1,
        queue_capacity: 512,
        quantum: 64,
        monitor_horizon: 0,
        threads: 1,
    };
    let mut stats = FleetStats::default();
    let mut recs = Vec::new();
    for trace in traces {
        let mut fleet = Fleet::new(Arc::clone(pipeline), trace.channels, config)
            .map_err(|e| format!("fleet: {e}"))?;
        fleet.admit(0).map_err(|e| format!("admit: {e}"))?;
        let loop_start = Instant::now(); // lint: wall-clock — traced wall time
        let mut next = 0usize;
        while next < trace.len() || !fleet.idle() {
            let stop = (next + SAMPLES_PER_TICK).min(trace.len());
            for i in next..stop {
                stats
                    .timed_enqueue(&mut fleet, 0, trace.sample(i))
                    .map_err(|e| format!("enqueue {i}: {e}"))?;
            }
            next = stop;
            stats.timed_round(&mut fleet)?;
        }
        stats.wall_ns += loop_start.elapsed().as_nanos();
        stats.shed += fleet.shed();
        recs.extend_from_slice(fleet.session_recognitions(0).unwrap_or(&[]));
    }
    Ok((stats, recs))
}

/// Seconds the ml layer takes to fit both forests (the recognizer and
/// the filter) from precomputed feature sets.
///
/// # Errors
///
/// Propagates training failures.
pub fn fit_seconds(
    config: &AirFingerConfig,
    gestures: &LabeledFeatures,
    binary: &LabeledFeatures,
) -> Result<f64, String> {
    let t0 = Instant::now(); // lint: wall-clock — the traced phase measures calls
    let mut detect = DetectRecognizer::new(config);
    detect
        .train_features(&gestures.x, &gestures.y)
        .map_err(|e| format!("recognizer training: {e}"))?;
    black_box(train_filter(config, binary)?);
    black_box(&detect);
    Ok(t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_snake_case() {
        assert_eq!(
            kind_name(FeatureKind::StandardDeviation),
            "standard_deviation"
        );
        assert_eq!(kind_name(FeatureKind::C3), "c3");
        assert_eq!(kind_name(FeatureKind::Ar), "ar");
        assert_eq!(
            kind_name(FeatureKind::LongestStrikeAboveBelowMean),
            "longest_strike_above_below_mean"
        );
    }
}

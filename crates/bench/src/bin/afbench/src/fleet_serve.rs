//! The open-loop end-to-end phase of fleet-serve.
//!
//! Every 10 ms tick enqueues 4 samples for each live session and runs
//! one `run_round`; admissions are staggered over the first second.
//! Ticks are due on a fixed schedule that does not slow when the fleet
//! does, so a stall delays later ticks and shows in their latency.
//!
//! The generator spins between ticks rather than sleeping: on a
//! two-vCPU KVM guest a vCPU left idle between ticks is lent to
//! neighbours, and the fleet's tens of megabytes of session state come
//! back cold, which moved capacity and latency by 10–30 % between
//! identical runs.

use crate::stats::{ratio, Timings};
use crate::stream::Closed;
use crate::workload::{
    Trace, Workload, ADMIT_TICKS, FLEET_SESSIONS, SAMPLES_PER_TICK, TICKS_PER_S,
};
use airfinger_core::events::Recognition;
use airfinger_core::pipeline::AirFinger;
use airfinger_fleet::{Fleet, FleetConfig, FleetError, RoundStats};
use airfinger_obs::events::Journal;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of the served fleet: 8 shards of 32 sessions, 2 drain
/// workers, a monitor on every session.
#[must_use]
pub fn config() -> FleetConfig {
    FleetConfig {
        shards: 8,
        sessions_per_shard: FLEET_SESSIONS / 8,
        queue_capacity: 512,
        quantum: 64,
        monitor_horizon: 400,
        threads: 2,
    }
}

/// What the fleet layer did, as seen through its public calls.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Every `enqueue`.
    pub enqueue: Timings,
    /// Every `run_round`.
    pub round: Timings,
    /// How late each tick started against its due time (empty for a
    /// closed loop, which has no schedule to fall behind).
    pub lag: Timings,
    /// Gesture windows classified in batched passes.
    pub batched: u64,
    /// Wall time of the loops that made the calls.
    pub wall_ns: u128,
    /// Most samples left queued after a round.
    pub queue_max: usize,
    /// Sessions shed.
    pub shed: u64,
}

impl FleetStats {
    /// Add `other`'s calls and counts.
    pub fn absorb(&mut self, other: &FleetStats) {
        self.enqueue.merge(&other.enqueue);
        self.round.merge(&other.round);
        self.lag.merge(&other.lag);
        self.batched += other.batched;
        self.wall_ns += other.wall_ns;
        self.queue_max = self.queue_max.max(other.queue_max);
        self.shed += other.shed;
    }

    /// Time spent inside `enqueue` and `run_round`.
    #[must_use]
    pub fn busy_ns(&self) -> f64 {
        (self.enqueue.sum_ns() + self.round.sum_ns()) as f64
    }

    /// Share of the loops' wall time spent inside fleet calls, in %.
    #[must_use]
    pub fn busy_pct(&self) -> f64 {
        100.0 * ratio(self.busy_ns(), self.wall_ns as f64)
    }

    /// Windows classified per round, on average.
    #[must_use]
    pub fn windows_per_round(&self) -> f64 {
        ratio(self.batched as f64, self.round.count() as f64)
    }

    /// Time one `run_round` and fold its statistics in; returns them
    /// with the call's duration and the instant it returned.
    ///
    /// # Errors
    ///
    /// Propagates a round failure.
    pub fn timed_round(
        &mut self,
        fleet: &mut Fleet,
    ) -> Result<(RoundStats, Duration, Instant), String> {
        let t0 = Instant::now(); // lint: wall-clock — the measured call
        let stats = fleet.run_round();
        let returned = Instant::now(); // lint: wall-clock — the measured call
        let took = returned - t0;
        self.round.record(took);
        let stats = stats.map_err(|e| format!("round: {e}"))?;
        self.batched += stats.batched as u64;
        self.queue_max = self.queue_max.max(stats.queued);
        Ok((stats, took, returned))
    }

    /// Time one `enqueue`.
    pub fn timed_enqueue(
        &mut self,
        fleet: &mut Fleet,
        session: u64,
        sample: &[f64],
    ) -> Result<(), FleetError> {
        let t0 = Instant::now(); // lint: wall-clock — the measured call
        let result = fleet.enqueue(session, sample);
        self.enqueue.record(t0.elapsed());
        result
    }
}

/// What one open-loop run measured.
#[derive(Debug)]
pub struct FleetRun {
    /// The fleet layer's calls.
    pub stats: FleetStats,
    /// Per round that pushed samples: its duration divided by the samples
    /// it pushed through session engines — the fleet's cost of one push.
    pub push: Timings,
    /// Per recognition: due time of the tick that delivered its closing
    /// sample to the return of the `run_round` that emitted it.
    pub recog: Timings,
    /// Samples pushed through session engines.
    pub processed: u64,
    /// Enqueue and recognition errors.
    pub errors: u64,
    /// Recognitions that differ from the solo reference at their place.
    pub mismatches: usize,
    /// Per session: its recognition log and the samples it was fed.
    pub logs: Vec<(Vec<Recognition>, usize)>,
}

/// Spin until `due`.
fn wait_until(due: Instant) {
    // lint: wall-clock — open-loop schedule
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Serve `traces` (session `s` replays `traces[s]`) through a fresh
/// fleet for `seconds` of ticks. `refs[s]` is trace `s`'s solo
/// reference; the fleet must reproduce it recognition for recognition.
/// Instance `instance` admits the sessions in an order rotated by
/// `instance · 97`, so each instance sees different windows close in the
/// same round.
///
/// # Errors
///
/// Fails on a fleet construction, admission or round error.
pub fn run(
    pipeline: &Arc<AirFinger>,
    traces: &[Trace],
    refs: &[Vec<Closed>],
    seconds: f64,
    instance: usize,
) -> Result<FleetRun, String> {
    let channels = traces.first().map_or(0, |t| t.channels);
    let mut fleet =
        Fleet::new(Arc::clone(pipeline), channels, config()).map_err(|e| format!("fleet: {e}"))?;
    fleet.set_journal(Journal::new(4096));
    let ticks = Workload::ticks(seconds);
    let tick_ns = (1e9 / TICKS_PER_S) as u64;
    let mut out = FleetRun {
        stats: FleetStats::default(),
        push: Timings::new(),
        recog: Timings::new(),
        processed: 0,
        errors: 0,
        mismatches: 0,
        logs: Vec::new(),
    };
    let order: Vec<usize> = (0..FLEET_SESSIONS)
        .map(|p| (p + instance * 97) % FLEET_SESSIONS)
        .collect();
    let mut admit_at = vec![0usize; FLEET_SESSIONS];
    for (p, &s) in order.iter().enumerate() {
        admit_at[s] = p * ADMIT_TICKS / FLEET_SESSIONS;
    }
    let mut admitted = 0usize;
    let mut live = vec![true; FLEET_SESSIONS];
    let mut seen = vec![0usize; FLEET_SESSIONS];
    let start = Instant::now(); // lint: wall-clock — origin of the tick schedule
    let due = |tick: usize| start + Duration::from_nanos(tick as u64 * tick_ns);
    let mut tick = 0usize;
    loop {
        if tick < ticks {
            wait_until(due(tick));
            let late = Instant::now().saturating_duration_since(due(tick)); // lint: wall-clock — generator lateness
            out.stats.lag.record(late);
            while admitted < FLEET_SESSIONS && admit_at[order[admitted]] <= tick {
                let s = order[admitted];
                fleet
                    .admit(s as u64)
                    .map_err(|e| format!("admit {s}: {e}"))?;
                admitted += 1;
            }
            for &s in &order[..admitted] {
                if !live[s] {
                    continue;
                }
                let trace = &traces[s];
                let base = (tick - admit_at[s]) * SAMPLES_PER_TICK;
                for i in base..base + SAMPLES_PER_TICK {
                    match out
                        .stats
                        .timed_enqueue(&mut fleet, s as u64, trace.sample(i))
                    {
                        Ok(()) => {}
                        Err(FleetError::SessionShed(_)) => {
                            live[s] = false;
                            break;
                        }
                        Err(_) => out.errors += 1,
                    }
                }
            }
        } else if fleet.idle() {
            break;
        }
        let (stats, took, returned) = out.stats.timed_round(&mut fleet)?;
        out.processed += stats.processed;
        if stats.processed > 0 {
            let per_sample = took.as_nanos() / u128::from(stats.processed);
            out.push
                .record_ns(u64::try_from(per_sample).unwrap_or(u64::MAX));
        }
        for &s in order[..admitted].iter().filter(|&&s| live[s]) {
            let log = fleet.session_recognitions(s as u64).unwrap_or(&[]);
            for (k, rec) in log.iter().enumerate().skip(seen[s]) {
                match refs[s].get(k) {
                    Some((closing, expected)) if expected == rec => {
                        let tick = admit_at[s] + closing / SAMPLES_PER_TICK;
                        out.recog
                            .record(returned.saturating_duration_since(due(tick)));
                    }
                    _ => out.mismatches += 1,
                }
            }
            seen[s] = log.len();
        }
        out.stats.wall_ns = returned.saturating_duration_since(start).as_nanos();
        tick += 1;
    }
    out.stats.shed = fleet.shed();
    out.errors += fleet.rollup().errors;
    out.logs = (0..FLEET_SESSIONS)
        .map(|s| {
            let fed = if live[s] {
                ticks.saturating_sub(admit_at[s]) * SAMPLES_PER_TICK
            } else {
                0
            };
            let log = fleet.session_recognitions(s as u64).unwrap_or(&[]).to_vec();
            (log, fed)
        })
        .collect();
    // Every recognition the reference closes inside the fed prefix must
    // have been emitted, and nothing else.
    for (s, (log, fed)) in out.logs.iter().enumerate() {
        let expected = refs[s]
            .iter()
            .take_while(|(closing, _)| closing < fed)
            .count();
        if log.len() != expected {
            out.mismatches += 1;
        }
    }
    Ok(out)
}

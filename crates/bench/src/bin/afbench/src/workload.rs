//! Workloads, their seeded inputs, and scoring against the script.
//!
//! Three choices keep one run's numbers about the code rather than about
//! the draw of its inputs:
//!
//! - The volunteers are a fixed panel, as in the paper's user study: each
//!   volunteer's habits (speed, size, pose) do not depend on `--seed`.
//!   One synth user's habits change the engine's cost per sample
//!   threefold.
//! - The model is trained on one fixed corpus, like the model a device
//!   ships with. Retraining per seed moves the filter's decisions and,
//!   with them, how many windows reach the feature stage.
//! - A stream pass is many short sessions, each through a fresh engine.
//!   How a session segments depends on its history (the dynamic
//!   threshold's histogram range only grows), and a few long windows
//!   carry much of the O(n²) feature cost, so the pass must hold
//!   hundreds of independent sessions.
//!
//! The seed draws the recordings: every trial's jitter, the sensor noise
//! and the IR-remote presses.

use airfinger_core::config::AirFingerConfig;
use airfinger_core::events::Recognition;
use airfinger_core::pipeline::AirFinger;
use airfinger_nir_sim::ambient::Interference;
use airfinger_nir_sim::noise::NoiseModel;
use airfinger_nir_sim::{Sampler, Scene, SensorLayout};
use airfinger_synth::dataset::{generate_sample, Corpus, CorpusSpec};
use airfinger_synth::gesture::{Gesture, NonGestureKind, SampleLabel};
use airfinger_synth::profile::UserProfile;
use airfinger_synth::trajectory::Trajectory;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// ADC sample rate of every trace (the prototype's 100 Hz).
pub const RATE_HZ: f64 = 100.0;
/// Seed of the volunteer panel's population draw.
const PANEL_SEED: u64 = 0x41F1_6E12;
/// Recording seed of the training corpus.
const CORPUS_SEED: u64 = 0xC0_4B05;
/// Volunteers 0..4 record the training corpus.
const TRAIN_USERS: usize = 4;
/// Volunteers from here on wear the sensor in the workloads; the model
/// was not trained on them.
const FIRST_WEARER: usize = TRAIN_USERS;
/// Distinct wearers; stream session `m` and fleet trace `m` are worn by
/// volunteer `FIRST_WEARER + m % WEARERS`.
const WEARERS: usize = 16;
/// Samples per stream session (25 s, ten gesture slots).
const SESSION_SAMPLES: usize = 2_500;
/// Sessions per pass of stream-mixed (1,000,000 samples).
const STREAM_SESSIONS: usize = 400;
/// Sessions per pass of stream-idle (2,000,000 samples): noise closes
/// only about 600 windows per million samples, and `recog_p99_us` needs
/// enough of them to repeat between seeds.
const IDLE_SESSIONS: usize = 800;
/// Sessions per pass of stream-interference (500,000 samples).
const INTERFERENCE_SESSIONS: usize = 200;
/// Stream gestures start every this many seconds, cycling the 8 gestures.
const GESTURE_PERIOD_S: f64 = 2.5;
/// A scripted gesture starts this far into its slot.
const LEAD_IN_S: f64 = 0.3;
/// Interference: every other session has a 5 s IR-remote burst 15 s in,
/// after the dynamic threshold has calibrated — one burst per 50 s.
const BURST: Range<usize> = 1_500..2_000;
/// Sessions served by fleet-serve, each replaying a trace of its own.
pub const FLEET_SESSIONS: usize = 256;
/// Fresh fleets served one after another in each end-to-end phase.
pub const FLEET_RUNS: usize = 5;
/// Fleet ticks per second (one `run_round` each).
pub const TICKS_PER_S: f64 = 100.0;
/// Samples each live fleet session receives per tick (4× its real rate).
pub const SAMPLES_PER_TICK: usize = 4;
/// Fleet admissions are spread over this many ticks (1 s, more than a
/// gesture period at 4× speed), so sessions do not close their windows
/// in lockstep.
pub const ADMIT_TICKS: usize = 100;
/// How many times set-up runs; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Gestures every 2.5 s through bare engines, closed loop.
    StreamMixed,
    /// A resting hand: no gestures, closed loop.
    StreamIdle,
    /// stream-mixed plus a 5 s IR-remote burst every 50 s.
    StreamInterference,
    /// 256 monitored sessions through one fleet, open loop.
    FleetServe,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamMixed,
        Workload::StreamIdle,
        Workload::StreamInterference,
        Workload::FleetServe,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamMixed => "stream-mixed",
            Workload::StreamIdle => "stream-idle",
            Workload::StreamInterference => "stream-interference",
            Workload::FleetServe => "fleet-serve",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ticks an open-loop run of `seconds` lasts.
    #[must_use]
    pub fn ticks(seconds: f64) -> usize {
        ((seconds * TICKS_PER_S).round() as usize).max(1)
    }

    /// The sessions this workload replays for `seed` and a run of
    /// `seconds`.
    #[must_use]
    pub fn sessions(self, seed: u64, seconds: f64) -> Vec<Session> {
        let (count, samples, period_s) = match self {
            Workload::StreamMixed => (STREAM_SESSIONS, SESSION_SAMPLES, GESTURE_PERIOD_S),
            Workload::StreamIdle => (IDLE_SESSIONS, SESSION_SAMPLES, f64::INFINITY),
            Workload::StreamInterference => {
                (INTERFERENCE_SESSIONS, SESSION_SAMPLES, GESTURE_PERIOD_S)
            }
            Workload::FleetServe => (
                FLEET_SESSIONS,
                Workload::ticks(seconds / FLEET_RUNS as f64) * SAMPLES_PER_TICK,
                GESTURE_PERIOD_S,
            ),
        };
        (0..count)
            .map(|m| Session {
                user: FIRST_WEARER + m % WEARERS,
                seed: mix(seed, 100 + m as u64),
                samples,
                period_s,
                bursts: if self == Workload::StreamInterference && m % 2 == 0 {
                    vec![BURST]
                } else {
                    Vec::new()
                },
            })
            .collect()
    }
}

/// SplitMix64 finaliser over `seed` and a per-use `salt`.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Volunteer `user` of the fixed panel.
fn volunteer(user: usize) -> UserProfile {
    UserProfile::sample(user, PANEL_SEED)
}

/// The training corpora recorded by volunteers `0..4`: 2 sessions × 10
/// repetitions of the 8 gestures, and 2 sessions × 30 non-gestures
/// cycling the three kinds.
#[must_use]
pub fn corpora() -> (Corpus, Corpus) {
    let spec = CorpusSpec {
        users: TRAIN_USERS,
        sessions: 2,
        reps: 10,
        seed: CORPUS_SEED,
        ..CorpusSpec::default()
    };
    let mut gestures = Vec::new();
    let mut nongestures = Vec::new();
    for user in 0..spec.users {
        let profile = volunteer(user);
        for session in 0..spec.sessions {
            for rep in 0..spec.reps {
                for &g in &spec.gestures {
                    let label = SampleLabel::Gesture(g);
                    gestures.push(generate_sample(&profile, label, session, rep, &spec));
                }
            }
            for rep in 0..3 * spec.reps {
                let kind = NonGestureKind::ALL[rep % NonGestureKind::ALL.len()];
                let label = SampleLabel::NonGesture(kind);
                nongestures.push(generate_sample(&profile, label, session, rep, &spec));
            }
        }
    }
    (Corpus::new(gestures), Corpus::new(nongestures))
}

/// One scripted continuous session.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Panel volunteer wearing the sensor.
    pub user: usize,
    /// Recording randomness.
    pub seed: u64,
    /// Length in samples.
    pub samples: usize,
    /// A gesture starts every this many seconds (infinite: none).
    pub period_s: f64,
    /// Sample ranges drowned by a directly pointed IR remote.
    pub bursts: Vec<Range<usize>>,
}

/// One scripted gesture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scripted {
    /// Its label.
    pub gesture: Gesture,
    /// First sample of its slot `[start, start + period)`.
    pub start: usize,
    /// Whether the slot overlaps an interference burst.
    pub in_fault: bool,
}

/// What the session's wearer was told to perform: gesture `k` is
/// `Gesture::ALL[k % 8]`, starting at `k·period + 0.3 s`.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Slot length in samples.
    pub period: usize,
    /// Scripted gestures in start order.
    pub gestures: Vec<Scripted>,
}

impl Script {
    /// The script of `session`.
    #[must_use]
    pub fn of(session: &Session) -> Script {
        let period = session.period_s * RATE_HZ;
        let slots = if period.is_finite() {
            (session.samples as f64 / period).floor() as usize
        } else {
            0
        };
        let period = if period.is_finite() {
            period.round() as usize
        } else {
            usize::MAX
        };
        let gestures = (0..slots)
            .map(|k| {
                let start = k * period + (LEAD_IN_S * RATE_HZ).round() as usize;
                let slot = start..start + period;
                Scripted {
                    gesture: Gesture::ALL[k % Gesture::ALL.len()],
                    start,
                    in_fault: session
                        .bursts
                        .iter()
                        .any(|b| b.start < slot.end && slot.start < b.end),
                }
            })
            .collect();
        Script { period, gestures }
    }
}

/// A rendered trace, samples interleaved by channel, with its script.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Photodiode channels per sample.
    pub channels: usize,
    /// `len() * channels` readings, sample-major.
    pub data: Vec<f64>,
    /// The gestures the trace was scripted with.
    pub script: Script,
}

impl Trace {
    /// Render `session` through the NIR simulator: the wearer rests at
    /// their habitual pose between scripted gestures; inside a burst the
    /// samples come from a second render of the same script with a
    /// directly pointed IR remote over a flooded noise floor.
    #[must_use]
    pub fn render(session: &Session) -> Trace {
        let profile = volunteer(session.user);
        let period_s = session.period_s;
        let duration_s = session.samples as f64 / RATE_HZ;
        let slots = if period_s.is_finite() {
            (duration_s / period_s).floor() as usize
        } else {
            0
        };
        let strokes: Vec<Trajectory> = (0..slots)
            .map(|k| {
                let label = SampleLabel::Gesture(Gesture::ALL[k % Gesture::ALL.len()]);
                let params = profile.trial_params(label, 0, k, session.seed);
                Trajectory::generate(label, &params, session.seed.wrapping_add(k as u64))
            })
            .collect();
        // The stroke under way at `t`; an overrunning stroke keeps the
        // finger until it ends.
        let pose = |t: f64| {
            let k = ((t - LEAD_IN_S) / period_s).floor();
            if k >= 0.0 && k.is_finite() {
                let k = k as usize;
                for j in k.saturating_sub(1)..=k {
                    let dt = t - (j as f64 * period_s + LEAD_IN_S);
                    if let Some(stroke) = strokes.get(j).filter(|s| dt < s.duration_s()) {
                        return stroke.position(dt);
                    }
                }
            }
            Some(profile.base)
        };
        let scene = Scene::new(SensorLayout::paper_prototype());
        let clean = Sampler::new(scene.clone(), RATE_HZ).sample(duration_s, session.seed, pose);
        let drowned = (!session.bursts.is_empty()).then(|| {
            let remote = scene
                .with_interference(Interference::IrRemote {
                    presses_per_s: 2.0,
                    amplitude: 4000.0,
                    direct: true,
                })
                .with_noise(NoiseModel {
                    thermal_sigma: 6.0,
                    ..NoiseModel::prototype()
                });
            Sampler::new(remote, RATE_HZ).sample(duration_s, session.seed, pose)
        });
        let channels = clean.channel_count();
        let mut data = Vec::with_capacity(clean.len() * channels);
        for i in 0..clean.len() {
            let source = match &drowned {
                Some(d) if session.bursts.iter().any(|b| b.contains(&i)) => d,
                _ => &clean,
            };
            data.extend((0..channels).map(|k| source.channel(k)[i]));
        }
        Trace {
            channels,
            data,
            script: Script::of(session),
        }
    }

    /// Samples in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len() / self.channels.max(1)
    }

    /// Sample `i`, one reading per channel.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[f64] {
        &self.data[i * self.channels..(i + 1) * self.channels]
    }
}

/// Recognitions scored against a script.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Score {
    /// Scripted gestures outside bursts whose slot was fully fed.
    pub scored: usize,
    /// Of those, how many an accepted recognition matched.
    pub matched: usize,
    /// Accepted recognitions matching no scripted gesture.
    pub false_pos: usize,
    /// Sensor time scored, in minutes.
    pub minutes: f64,
}

impl Score {
    /// Score `recs` for a session fed the first `fed` samples of a trace
    /// scripted by `script`. A recognition matches gesture `k` when it
    /// carries `k`'s label and its segment overlaps `k`'s slot.
    #[must_use]
    pub fn of(script: &Script, recs: &[Recognition], fed: usize) -> Score {
        let counted = |g: &Scripted| !g.in_fault && g.start.saturating_add(script.period) <= fed;
        let mut matched = vec![false; script.gestures.len()];
        let mut false_pos = 0;
        for rec in recs {
            let Some(label) = rec.gesture() else {
                continue;
            };
            let seg = rec.segment();
            let first = script
                .gestures
                .partition_point(|g| g.start.saturating_add(script.period) <= seg.start);
            let mut hit = false;
            for (k, g) in script.gestures.iter().enumerate().skip(first) {
                if g.start >= seg.end {
                    break;
                }
                if g.gesture == label {
                    matched[k] = true;
                    hit = true;
                }
            }
            if !hit {
                false_pos += 1;
            }
        }
        let scored = script.gestures.iter().filter(|g| counted(g)).count();
        let hits = script
            .gestures
            .iter()
            .zip(&matched)
            .filter(|(g, &m)| m && counted(g))
            .count();
        Score {
            scored,
            matched: hits,
            false_pos,
            minutes: fed as f64 / RATE_HZ / 60.0,
        }
    }

    /// Sum of two scores.
    #[must_use]
    pub fn plus(self, other: Score) -> Score {
        Score {
            scored: self.scored + other.scored,
            matched: self.matched + other.matched,
            false_pos: self.false_pos + other.false_pos,
            minutes: self.minutes + other.minutes,
        }
    }
}

/// Everything set-up produces.
#[derive(Debug)]
pub struct Inputs {
    /// The trained pipeline shared by every engine.
    pub pipeline: Arc<AirFinger>,
    /// Its configuration.
    pub config: AirFingerConfig,
    /// The training corpora (gestures, then non-gestures).
    pub corpus: (Corpus, Corpus),
    /// The workload's traces.
    pub traces: Vec<Trace>,
    /// Wall time of the whole set-up.
    pub setup_s: f64,
    /// Wall time of trace rendering alone.
    pub gen_s: f64,
}

/// Record the training corpora, train the pipeline (100 trees, one
/// thread) and render the workload's traces.
///
/// # Errors
///
/// Propagates training failures.
pub fn set_up(workload: Workload, seed: u64, seconds: f64) -> Result<Inputs, String> {
    let t0 = Instant::now(); // lint: wall-clock — set-up time is a measured metric
    let (gestures, nongestures) = corpora();
    let config = AirFingerConfig {
        n_threads: 1,
        ..AirFingerConfig::default()
    };
    let mut pipeline = AirFinger::new(config);
    pipeline
        .train_on_corpus(&gestures, Some(&nongestures))
        .map_err(|e| format!("training: {e}"))?;
    let t_gen = Instant::now(); // lint: wall-clock — trace rendering time is a measured metric
    let traces = workload
        .sessions(seed, seconds)
        .iter()
        .map(Trace::render)
        .collect();
    let gen_s = t_gen.elapsed().as_secs_f64();
    Ok(Inputs {
        pipeline: Arc::new(pipeline),
        config,
        corpus: (gestures, nongestures),
        traces,
        setup_s: t0.elapsed().as_secs_f64(),
        gen_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfinger_dsp::segment::Segment;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn traces_and_scripts_repeat_for_a_seed() {
        for w in Workload::ALL {
            let a: Vec<Trace> = w.sessions(11, 1.0).iter().map(Trace::render).collect();
            let b: Vec<Trace> = w.sessions(11, 1.0).iter().map(Trace::render).collect();
            assert_eq!(a, b, "{}", w.name());
            let c: Vec<Trace> = w.sessions(12, 1.0).iter().map(Trace::render).collect();
            assert_ne!(a, c, "{} ignores its seed", w.name());
        }
        assert_eq!(corpora(), corpora());
    }

    #[test]
    fn scripts_follow_the_cadence() {
        let mixed = Workload::StreamMixed.sessions(1, 1.0);
        assert_eq!(mixed.len(), 400);
        let script = Script::of(&mixed[0]);
        assert_eq!(script.period, 250);
        assert_eq!(script.gestures.len(), 10);
        assert_eq!(script.gestures[9].start, 9 * 250 + 30);
        assert_eq!(script.gestures[9].gesture, Gesture::ALL[1]);
        assert!(script.gestures.iter().all(|g| !g.in_fault));
        let idle = Workload::StreamIdle.sessions(1, 1.0);
        assert_eq!(idle.len(), 800);
        assert!(Script::of(&idle[0]).gestures.is_empty());
        let noisy = Workload::StreamInterference.sessions(1, 1.0);
        assert_eq!(noisy.len(), 200);
        // The 5 s burst 15 s in overlaps 3 of the 2.5 s slots, in every other
        // session.
        let faulted = |s: &Session| Script::of(s).gestures.iter().filter(|g| g.in_fault).count();
        assert_eq!((faulted(&noisy[0]), faulted(&noisy[1])), (3, 0));
        // 2 s per fleet: 200 ticks of 4 samples each.
        let fleet = Workload::FleetServe.sessions(1, 2.0 * FLEET_RUNS as f64);
        assert_eq!(fleet.len(), FLEET_SESSIONS);
        assert!(fleet.iter().all(|s| s.samples == 800));
    }

    #[test]
    fn scoring_matches_label_and_overlap() {
        let script = Script {
            period: 100,
            gestures: vec![
                Scripted {
                    gesture: Gesture::ALL[0],
                    start: 10,
                    in_fault: false,
                },
                Scripted {
                    gesture: Gesture::ALL[1],
                    start: 110,
                    in_fault: false,
                },
                Scripted {
                    gesture: Gesture::ALL[2],
                    start: 210,
                    in_fault: true,
                },
            ],
        };
        let detect = |g: Gesture, start, end| Recognition::Detect {
            gesture: g,
            segment: Segment::new(start, end),
        };
        let recs = [
            detect(Gesture::ALL[0], 20, 60),
            detect(Gesture::ALL[0], 120, 160),
            Recognition::Rejected {
                segment: Segment::new(130, 140),
            },
            detect(Gesture::ALL[2], 220, 260),
        ];
        let s = Score::of(&script, &recs, 400);
        assert_eq!((s.scored, s.matched, s.false_pos), (2, 1, 1));
        // A slot not yet fully fed is not scored.
        assert_eq!(Score::of(&script, &recs, 150).scored, 1);
    }
}

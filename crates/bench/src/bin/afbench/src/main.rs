//! `afbench` — the airFinger benchmark.
//!
//! ```text
//! afbench --workload stream-mixed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload in one process:
//!
//! 1. **Set-up**, run [`SETUPS`] times (`setup_s` is the median): generate
//!    the training corpus, train the pipeline (100 trees, one thread) and
//!    generate the workload's traces. An unmeasured warm-up pass then
//!    records the solo reference every later result is checked against.
//! 2. **End-to-end phase**: only the calls a user makes are timed —
//!    `StreamingEngine::push` on the stream workloads, `Fleet::enqueue`
//!    and `Fleet::run_round` on fleet-serve.
//! 3. **Traced phase**: each layer's public functions timed from outside
//!    (see [`layers`]), one replay of the traces. It always runs, as a
//!    correctness check; with `--trace 1` its timings are reported.
//!
//! The last line of standard output is the result object; a summary
//! with the sample count behind every percentile goes to standard error.
//! The exit code is 0 only when every check passed.

mod fleet_serve;
mod layers;
mod report;
mod stats;
mod stream;
mod workload;

use crate::fleet_serve::FleetStats;
use crate::layers::Replay;
use crate::report::{kind_metric, Outcome, END_TO_END};
use crate::stats::{digest, median_of, ratio, Timings};
use crate::stream::Closed;
use crate::workload::{Inputs, Score, Trace, Workload, FLEET_RUNS, SETUPS};
use airfinger_core::events::Recognition;
use airfinger_core::pipeline::AirFinger;
use airfinger_core::train::{all_gesture_feature_set, binary_feature_set};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

/// Counting allocator, so the traced phase can report allocations per
/// push. Pure pass-through to the system allocator plus two atomic adds.
#[global_allocator]
// lint: sync — CountingAlloc is two shared atomics; `GlobalAlloc` requires Sync
static ALLOC: airfinger_obs::CountingAlloc = airfinger_obs::CountingAlloc::new();

const USAGE: &str = "usage: afbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
     workloads: stream-mixed, stream-idle, stream-interference, fleet-serve";

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut out = Args {
            workload: Workload::StreamMixed,
            seed: 0,
            seconds: 20.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(bad)?);
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        out.workload = workload.ok_or("--workload is required")?;
        Ok(out)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("afbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("afbench: check failed: {problem}");
            }
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("afbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Collects metrics and failed checks for one run.
#[derive(Debug, Default)]
struct Sheet {
    values: BTreeMap<String, f64>,
    problems: Vec<String>,
}

impl Sheet {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Report percentile `q` of `t`, in units of `scale` ns, as metric
    /// `name`, printed with its sample count; fails the run when fewer
    /// than 10 samples lie beyond it.
    fn percentile(&mut self, name: &str, t: &mut Timings, q: f64, scale: f64) {
        let (value, n, beyond) = t
            .quantile(q)
            .map_or((0.0, 0, 0), |p| (p.ns / scale, p.n, p.beyond));
        eprintln!("  {name:<24} {value:>14.3}  (n = {n}, {beyond} beyond)");
        self.check(beyond >= 10, || {
            format!("{name}: only {beyond} of {n} samples beyond it")
        });
        self.set(name, value);
    }
}

/// What the end-to-end phase hands to the rest of the run.
#[derive(Debug)]
struct EndToEnd {
    attempted: u64,
    failed: u64,
    score: Score,
    /// `VmHWM` once serving has run.
    rss_peak_mb: f64,
    /// The fleet layer's calls (fleet-serve only).
    fleet: Option<FleetStats>,
    /// The first pass's recognitions per trace (stream workloads only).
    first: Option<Vec<Vec<Recognition>>>,
}

/// Run `args.workload` end to end.
fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    eprintln!(
        "afbench: {} seed {} ({} s)",
        w.name(),
        args.seed,
        args.seconds
    );

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut gen_s = Vec::with_capacity(SETUPS);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let i = workload::set_up(w, args.seed, args.seconds)?;
        setup_s.push(i.setup_s);
        gen_s.push(i.gen_s);
        inputs = Some(i);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let pipeline = &inputs.pipeline;
    let traces = &inputs.traces;
    let refs = traces
        .iter()
        .map(|t| stream::reference_pass(pipeline, t))
        .collect::<Result<Vec<Vec<Closed>>, String>>()?;
    let expected: Vec<Recognition> = refs.iter().flatten().map(|&(_, rec)| rec).collect();

    // The benchmark's own filter, for the traced replay.
    let (gestures, nongestures) = &inputs.corpus;
    let binary = binary_feature_set(
        &gestures.clone().merged(nongestures.clone()),
        &inputs.config,
    );
    let filter = layers::train_filter(&inputs.config, &binary)?;

    let mut sheet = Sheet::default();
    sheet.set("setup_s", median_of(&setup_s));
    sheet.set("gen.trace_s", median_of(&gen_s));
    eprintln!("end-to-end phase ({} s):", args.seconds);
    let e2e = match w {
        Workload::FleetServe => fleet_e2e(pipeline, traces, &refs, args.seconds, &mut sheet)?,
        _ => stream_e2e(pipeline, traces, &expected, args.seconds, &mut sheet)?,
    };
    let (attempted, failed, score) = (e2e.attempted, e2e.failed, e2e.score);
    sheet.set("rss_peak_mb", e2e.rss_peak_mb);
    sheet.check(failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    sheet.set(
        "quality.accuracy_pct",
        100.0 * ratio(score.matched as f64, score.scored as f64),
    );
    sheet.set(
        "quality.false_pos_per_min",
        ratio(score.false_pos as f64, score.minutes),
    );
    sheet.set(
        "quality.failed_ops_pct",
        100.0 * ratio(failed as f64, attempted as f64),
    );

    let mut replay = Replay::default();
    for trace in traces {
        layers::replay(pipeline, &filter, trace, args.trace, &mut replay)?;
    }
    sheet.check(digest(&replay.recs) == digest(&expected), || {
        "the traced replay differs from the end-to-end pass".to_string()
    });
    if args.trace {
        eprintln!("traced phase:");
        let gset = all_gesture_feature_set(gestures, &inputs.config);
        sheet.set(
            "ml.fit_s",
            layers::fit_seconds(&inputs.config, &gset, &binary)?,
        );
        traced_phase(&inputs, replay, e2e.fleet, e2e.first.as_deref(), &mut sheet)?;
    }
    finish(args, sheet, attempted, failed)
}

/// The closed-loop end-to-end phase of the stream workloads.
fn stream_e2e(
    pipeline: &Arc<AirFinger>,
    traces: &[Trace],
    expected: &[Recognition],
    seconds: f64,
    sheet: &mut Sheet,
) -> Result<EndToEnd, String> {
    let mut run = stream::run(pipeline, traces, seconds)?;
    let first = run.first.concat();
    sheet.check(run.digest_mismatches == 0, || {
        format!(
            "{} of {} passes changed their recognitions",
            run.digest_mismatches, run.passes
        )
    });
    sheet.check(digest(&first) == digest(expected), || {
        "the end-to-end pass differs from the warm-up pass".to_string()
    });
    sheet.set(
        "samples_per_s",
        ratio(run.push.count() as f64 * 1e9, run.push.sum_ns() as f64),
    );
    sheet.percentile("push_p50_ns", &mut run.push, 0.5, 1.0);
    sheet.percentile("push_p99_ns", &mut run.push, 0.99, 1.0);
    sheet.percentile("recog_p50_us", &mut run.recog, 0.5, 1e3);
    sheet.percentile("recog_p99_us", &mut run.recog, 0.99, 1e3);
    eprintln!("  {} passes, digest {:016x}", run.passes, digest(&first));
    let rss_peak_mb = peak_rss_mb()?;
    let score = traces
        .iter()
        .zip(&run.first)
        .map(|(trace, recs)| Score::of(&trace.script, recs, trace.len()))
        .fold(Score::default(), Score::plus);
    Ok(EndToEnd {
        attempted: run.push.count(),
        failed: run.failed,
        score,
        rss_peak_mb,
        fleet: None,
        first: Some(run.first),
    })
}

/// The open-loop end-to-end phase of fleet-serve: [`FLEET_RUNS`] fresh
/// fleets in turn, their calls pooled. Each admits its sessions in a
/// different order, so which windows close in the same round — what
/// sets the latency tail — is drawn anew each time.
fn fleet_e2e(
    pipeline: &Arc<AirFinger>,
    traces: &[Trace],
    refs: &[Vec<Closed>],
    seconds: f64,
    sheet: &mut Sheet,
) -> Result<EndToEnd, String> {
    let mut stats = FleetStats::default();
    let mut push = Timings::new();
    let mut recog = Timings::new();
    let mut processed = 0u64;
    let mut out = EndToEnd {
        attempted: 0,
        failed: 0,
        score: Score::default(),
        rss_peak_mb: 0.0,
        fleet: None,
        first: None,
    };
    for instance in 0..FLEET_RUNS {
        let run = fleet_serve::run(
            pipeline,
            traces,
            refs,
            seconds / FLEET_RUNS as f64,
            instance,
        )?;
        if instance == 0 {
            // Later fleets reuse what the first freed, but the heap
            // fragments across them and the peak creeps up by a sixth.
            out.rss_peak_mb = peak_rss_mb()?;
        }
        sheet.check(run.mismatches == 0, || {
            format!(
                "{} fleet sessions diverged from the solo reference",
                run.mismatches
            )
        });
        eprintln!(
            "  fleet {instance}: {} rounds, {} samples, digest {:016x}",
            run.stats.round.count(),
            run.processed,
            digest(&run.logs)
        );
        out.attempted += run.stats.enqueue.count();
        out.failed += run.errors + run.stats.shed;
        out.score = run
            .logs
            .iter()
            .enumerate()
            .map(|(s, (log, fed))| Score::of(&traces[s].script, log, *fed))
            .fold(out.score, Score::plus);
        processed += run.processed;
        stats.absorb(&run.stats);
        push.merge(&run.push);
        recog.merge(&run.recog);
    }
    sheet.set(
        "samples_per_s",
        ratio(processed as f64 * 1e9, stats.busy_ns()),
    );
    sheet.percentile("push_p50_ns", &mut push, 0.5, 1.0);
    sheet.percentile("push_p99_ns", &mut push, 0.99, 1.0);
    sheet.percentile("recog_p50_us", &mut recog, 0.5, 1e3);
    sheet.percentile("recog_p99_us", &mut recog, 0.99, 1e3);
    out.fleet = Some(stats);
    Ok(out)
}

/// The traced phase's measurements beyond the replay itself. The
/// one-session fleets serve the first quarter of the traces.
fn traced_phase(
    inputs: &Inputs,
    replay: Replay,
    e2e_fleet: Option<FleetStats>,
    stream_first: Option<&[Vec<Recognition>]>,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let traces: &[Trace] = &inputs.traces;
    let probed = &traces[..traces.len().div_ceil(4)];
    let windows_closed = replay.window_lens.len() as f64;
    let mut lens: Vec<f64> = replay.window_lens.iter().map(|&l| l as f64).collect();
    lens.sort_by(f64::total_cmp);
    sheet.set(
        "engine.ingest_ns",
        ratio(replay.ingest_ns as f64, replay.ingest_calls as f64),
    );
    sheet.set("engine.close_ns", replay.close.mean_ns());
    sheet.set("engine.windows", windows_closed);
    sheet.set("engine.window_len_p50", median_of(&lens));
    sheet.set("engine.window_len_max", lens.last().copied().unwrap_or(0.0));
    sheet.set("filter.ns_per_window", replay.filter.mean_ns());
    sheet.set(
        "filter.reject_pct",
        100.0 * ratio(replay.rejected as f64, windows_closed),
    );
    sheet.set("features.ns_per_window", replay.features.mean_ns());
    sheet.set("ml.predict_ns_per_window", replay.predict.mean_ns());
    sheet.set("zebra.finish_ns_per_window", replay.finish.mean_ns());
    sheet.set(
        "trace.attributed_pct",
        100.0 * ratio(replay.timed_ns() as f64, replay.wall_ns as f64),
    );

    let dsp = layers::dsp(&inputs.config, traces);
    sheet.set("dsp.sbc_ns", dsp[0]);
    sheet.set("dsp.threshold_ns", dsp[1]);
    sheet.set("dsp.segment_ns", dsp[2]);

    for (kind, ns) in layers::feature_kinds(&replay.normalised) {
        sheet.set(&kind_metric(kind), ns);
    }

    let obs = layers::obs_cost(&inputs.pipeline, traces)?;
    sheet.set("obs.tax_ns_per_push", obs.tax_ns);
    sheet.set("obs.monitor_ns_per_push", obs.monitor_ns);
    sheet.set("engine.allocs_per_push", obs.allocs);
    sheet.set("engine.alloc_bytes_per_push", obs.alloc_bytes);
    sheet.set(
        "trace.overhead_pct",
        100.0 * (ratio(replay.wall_ns as f64, replay.samples as f64) / obs.bare_ns - 1.0),
    );

    // fleet-serve measured the fleet layer end to end; the stream
    // workloads serve their traces one session at a time.
    let mut fleet = match (e2e_fleet, stream_first) {
        (Some(stats), _) => stats,
        (None, Some(first)) => {
            let (stats, recs) = layers::fleet_probe(&inputs.pipeline, probed)?;
            sheet.check(
                digest(&recs) == digest(&first[..probed.len()].concat()),
                || "the one-session fleets differ from the end-to-end pass".to_string(),
            );
            stats
        }
        (None, None) => FleetStats::default(),
    };
    sheet.set("fleet.enqueue_ns", fleet.enqueue.mean_ns());
    sheet.percentile("fleet.round_p50_us", &mut fleet.round, 0.5, 1e3);
    sheet.percentile("fleet.round_p99_us", &mut fleet.round, 0.99, 1e3);
    sheet.set("fleet.windows_per_round", fleet.windows_per_round());
    sheet.set("fleet.queue_max", fleet.queue_max as f64);
    sheet.set("fleet.shed", fleet.shed as f64);
    sheet.set("fleet.busy_pct", fleet.busy_pct());
    if fleet.lag.count() == 0 {
        // A closed loop has no schedule to fall behind.
        sheet.set("gen.lag_p99_us", 0.0);
    } else {
        sheet.percentile("gen.lag_p99_us", &mut fleet.lag, 0.99, 1e3);
    }
    Ok(())
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Pick the metrics this mode prints, in catalogue order, and check
/// every one is present and finite.
fn finish(args: &Args, mut sheet: Sheet, attempted: u64, failed: u64) -> Result<Outcome, String> {
    let wanted: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = sheet.values.get(&name).copied().unwrap_or(f64::NAN);
        sheet.check(value.is_finite(), || {
            format!("{name} is missing or not finite")
        });
        metrics.push((name, unit.to_string(), value));
    }
    Ok(Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
        problems: sheet.problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed in BENCHMARK.json's `section` array.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../../../../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let parsed = Args::parse(&args(
            "--workload fleet-serve --seed 7 --seconds 15 --trace 1",
        ))
        .expect("valid");
        assert_eq!(parsed.workload, Workload::FleetServe);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 15.0, true));
        for bad in [
            "",
            "--workload nope",
            "--workload stream-idle --trace 2",
            "--workload stream-idle --seconds 0",
            "--workload stream-idle --seed",
            "--workload stream-idle --frobnicate 1",
        ] {
            assert!(Args::parse(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = report::per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn interference_bursts_become_the_longest_windows() {
        let longest = |w: Workload| {
            let inputs = workload::set_up(w, 5, 1.0).expect("set-up");
            inputs
                .traces
                .iter()
                .flat_map(|t| stream::reference_pass(&inputs.pipeline, t).expect("pass"))
                .map(|(_, rec)| rec.segment().len())
                .max()
                .unwrap_or(0)
        };
        let noisy = longest(Workload::StreamInterference);
        let mixed = longest(Workload::StreamMixed);
        assert!(noisy > 500, "longest interference window {noisy}");
        assert!(mixed < 500, "longest mixed window {mixed}");
    }

    #[test]
    fn a_short_run_of_each_workload_emits_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 3,
                    seconds: 0.2,
                    trace,
                };
                let outcome = run(&args).expect("runs");
                let names: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(names, declared(section), "{} {section}", workload.name());
                for (name, unit, value) in &outcome.metrics {
                    assert!(!unit.is_empty(), "{name} has no unit");
                    assert!(value.is_finite(), "{name} = {value}");
                }
                assert!(outcome.attempted >= 1);
            }
        }
    }
}

//! The closed-loop end-to-end phase of the stream workloads.

use crate::stats::{digest, Timings};
use crate::workload::Trace;
use airfinger_core::engine::StreamingEngine;
use airfinger_core::events::Recognition;
use airfinger_core::pipeline::AirFinger;
use std::sync::Arc;
use std::time::Instant;

/// A recognition with the index of the push that returned it.
pub type Closed = (usize, Recognition);

/// One untimed pass of `trace` through a fresh bare engine: the
/// warm-up, and the reference every other pass is checked against.
///
/// # Errors
///
/// Propagates engine construction and push failures.
pub fn reference_pass(pipeline: &Arc<AirFinger>, trace: &Trace) -> Result<Vec<Closed>, String> {
    let mut engine = StreamingEngine::with_shared(Arc::clone(pipeline), trace.channels)
        .map_err(|e| format!("engine: {e}"))?;
    let mut out = Vec::new();
    for i in 0..trace.len() {
        if let Some(rec) = engine
            .push(trace.sample(i))
            .map_err(|e| format!("push {i}: {e}"))?
        {
            out.push((i, rec));
        }
    }
    Ok(out)
}

/// What the end-to-end phase measured.
#[derive(Debug)]
pub struct StreamRun {
    /// Every `push`.
    pub push: Timings,
    /// Every `push` that returned a recognition.
    pub recog: Timings,
    /// Completed passes over the trace.
    pub passes: usize,
    /// Passes whose recognition digest differed from the first pass.
    pub digest_mismatches: usize,
    /// The first pass's recognitions, per trace.
    pub first: Vec<Vec<Recognition>>,
    /// Pushes that returned an error.
    pub failed: u64,
}

/// Replay every trace through a fresh engine each, sending each sample
/// as soon as the previous `push` returns; repeat such passes until
/// `seconds` have passed (at least one pass). Only `push` is timed.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn run(pipeline: &Arc<AirFinger>, traces: &[Trace], seconds: f64) -> Result<StreamRun, String> {
    let mut out = StreamRun {
        push: Timings::new(),
        recog: Timings::new(),
        passes: 0,
        digest_mismatches: 0,
        first: Vec::new(),
        failed: 0,
    };
    let mut recs: Vec<Vec<Recognition>> = traces.iter().map(|_| Vec::new()).collect();
    let mut first_digest = None;
    let t0 = Instant::now(); // lint: wall-clock — bounds the measured phase
    while out.passes == 0 || t0.elapsed().as_secs_f64() < seconds {
        for (trace, recs) in traces.iter().zip(recs.iter_mut()) {
            let mut engine = StreamingEngine::with_shared(Arc::clone(pipeline), trace.channels)
                .map_err(|e| format!("engine: {e}"))?;
            recs.clear();
            for i in 0..trace.len() {
                let sample = trace.sample(i);
                let start = Instant::now(); // lint: wall-clock — the measured call
                let result = engine.push(sample);
                let took = start.elapsed();
                out.push.record(took);
                match result {
                    Ok(Some(rec)) => {
                        out.recog.record(took);
                        recs.push(rec);
                    }
                    Ok(None) => {}
                    Err(_) => out.failed += 1,
                }
            }
        }
        let d = digest(&recs.concat());
        match first_digest {
            None => {
                first_digest = Some(d);
                out.first = recs.clone();
            }
            Some(f) if f != d => out.digest_mismatches += 1,
            Some(_) => {}
        }
        out.passes += 1;
    }
    Ok(out)
}

//! `repro trace`: run a refinement-heavy mixed stream with a recorder
//! attached, export the schedule as Chrome-trace JSON (one `prep` and
//! one `compute` track per device), and fold the event stream into
//! latency / counter / calibration summary tables.
//!
//! The workload is a burst-coherent tracker mix: each arrival burst
//! shares one system shape, with loose predictor solves (priority 0)
//! the micro-batcher fuses and deep deadline-tagged corrector solves
//! (priority 1) that run refinement plans, streamed through a
//! V100 + P100 pool with micro-batching and stage-level scheduling —
//! the configuration that exercises every emit point: plan-cache
//! traffic, SECT previews, group formation, deadline caps, stage
//! bookings, refunds, pass extensions and settlements.

use std::sync::Arc;

use gpusim::Gpu;
use mdls_obs::metrics::Metrics;
use mdls_obs::{trace as obs_trace, Recorder};
use mdls_pipeline::{
    jobs_for_shapes, solve_stream_with, DevicePool, DispatchPolicy, EngineConfig, Job, JobOutcome,
    JobShape, StageSchedConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tables::TextTable;

/// Jobs per arrival burst (and the stream's reorder window).
const BURST: usize = 6;
/// Burst cadence, ms — wide enough that the pool occasionally drains
/// a burst early, so release-time idle gaps show up in the trace.
const GAP_MS: f64 = 40.0;

/// Calibration buckets shown in the summary table (the full set is
/// folded into [`Metrics`]; the table shows the most-sampled ones).
const CAL_ROWS: usize = 12;

/// Everything `repro trace` produces: the trace document plus the
/// rendered summary tables.
pub struct TraceReport {
    /// Chrome-trace-format JSON (open in `chrome://tracing` / Perfetto).
    pub trace_json: String,
    /// Devices in the traced pool (one process, two tracks each).
    pub devices: usize,
    /// Latency, counter and calibration summaries, in print order.
    pub tables: Vec<TextTable>,
}

/// The traced workload: `count` jobs arriving in bursts of [`BURST`]
/// every [`GAP_MS`] ms, each burst sharing one system shape (a tracker
/// stepping a path emits its predictor/corrector solves against the
/// same embedding). Four loose predictors per burst fuse into one
/// micro-batched group; the two deep deadline-tagged correctors run
/// refinement plans — so the recording carries fused groups, release
/// gaps, refunds and deadline pressure, not just settlements.
fn traced_jobs(count: usize, rng: &mut StdRng) -> Vec<Job> {
    let shapes: Vec<JobShape> = (0..count)
        .map(|i| {
            let step = i / BURST;
            let cols = [8, 12, 16, 24, 10, 6][step % 6];
            JobShape {
                rows: cols + [0, 4][step % 2],
                cols,
                target_digits: if i % BURST >= BURST - 2 {
                    [50, 100, 90, 50, 100, 25][step % 6]
                } else {
                    12
                },
            }
        })
        .collect();
    let mut jobs = jobs_for_shapes(&shapes, rng);
    for (i, job) in jobs.iter_mut().enumerate() {
        let release = (i / BURST) as f64 * GAP_MS;
        job.release_ms = Some(release);
        if i % BURST >= BURST - 2 {
            job.priority = 1;
            job.deadline_ms = Some(release + 2.0 * GAP_MS);
        }
    }
    jobs
}

/// Run `count` burst-coherent tracker jobs through the staged stream
/// with a recorder attached and summarize the recording.
pub fn trace_report(count: usize) -> TraceReport {
    let mut rng = StdRng::seed_from_u64(0x7ace);
    let jobs = traced_jobs(count, &mut rng);
    let n_jobs = jobs.len();

    let recorder = Arc::new(Recorder::new());
    let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    let devices = pool.devices().len();
    pool.attach_observer(recorder.clone());
    // structural worst-case booking + online re-booking (instead of
    // expected-pass booking): deep correctors that certify early leave
    // a reclaimable tail, so the trace shows refund markers too
    let sched = StageSchedConfig {
        book_expected: false,
        ..StageSchedConfig::staged()
    };
    let cfg = EngineConfig {
        policy: DispatchPolicy::ShortestExpectedCompletion,
        sched,
        ..EngineConfig::default()
    };
    let outs: Vec<JobOutcome> = solve_stream_with(&mut pool, jobs, BURST, &cfg).collect();
    assert_eq!(outs.len(), n_jobs);

    let events = recorder.events();
    let m = Metrics::from_events(&events);
    TraceReport {
        trace_json: obs_trace::chrome_trace(&events),
        devices,
        tables: vec![
            latency_table(&m, n_jobs, pool.makespan_ms()),
            counter_table(&m),
            calibration_table(&m),
        ],
    }
}

/// Turnaround percentiles per priority class.
fn latency_table(m: &Metrics, jobs: usize, makespan_ms: f64) -> TextTable {
    let mut t = TextTable::new(
        format!(
            "Stream turnaround by priority class: {jobs} burst-coherent tracker \
             jobs on V100 + P100, makespan {makespan_ms:.1} ms"
        ),
        "priority",
    );
    t.col("jobs")
        .col("p50 ms")
        .col("p99 ms")
        .col("p999 ms")
        .col("mean ms")
        .col("max ms");
    for (prio, h) in &m.latency {
        t.row(
            format!("{prio}"),
            vec![
                format!("{}", h.count()),
                format!("{:.1}", h.p50()),
                format!("{:.1}", h.p99()),
                format!("{:.1}", h.p999()),
                format!("{:.1}", h.mean()),
                format!("{:.1}", h.max()),
            ],
        );
    }
    t
}

/// Scheduler and planner counters from the recorded run.
fn counter_table(m: &Metrics) -> TextTable {
    let mut t = TextTable::new("Pipeline counters (recorded events)", "counter");
    t.col("value");
    let rows: [(&str, String); 11] = [
        ("jobs settled", format!("{}", m.jobs)),
        ("jobs in fused groups", format!("{}", m.fused_jobs)),
        ("fused groups formed", format!("{}", m.fused_groups)),
        (
            "deadline misses",
            format!("{} / {}", m.deadline_misses, m.deadline_jobs),
        ),
        ("deadline-capped groups", format!("{}", m.deadline_caps)),
        (
            "refunds (ms reclaimed)",
            format!("{} ({:.1})", m.refunds, m.refunded_ms),
        ),
        ("pass extensions", format!("{}", m.extensions)),
        (
            "plan cache hits / misses",
            format!("{} / {}", m.plan_cache_hits, m.plan_cache_misses),
        ),
        (
            "fused memo hits / misses",
            format!("{} / {}", m.fused_memo_hits, m.fused_memo_misses),
        ),
        ("ladder candidates scored", format!("{}", m.candidates)),
        ("SECT previews", format!("{}", m.sect_previews)),
    ];
    for (label, v) in rows {
        t.row(label, vec![v]);
    }
    t
}

/// Predicted-vs-settled stage wall clocks per (device, shape, stage,
/// rung) bucket — the cost model's calibration signal. Bias > 1 means
/// the model under-books the bucket; < 1 means the booking is
/// refund-bound.
fn calibration_table(m: &Metrics) -> TextTable {
    let mut cal = m.calibration();
    cal.sort_by_key(|c| std::cmp::Reverse(c.samples));
    let total = cal.len();
    cal.truncate(CAL_ROWS);
    let mut t = TextTable::new(
        format!(
            "Stage-time calibration: predicted vs settled wall clock, \
             {} most-sampled of {total} buckets",
            cal.len()
        ),
        "device shape stage",
    );
    t.col("samples")
        .col("predicted ms")
        .col("settled ms")
        .col("bias");
    for c in &cal {
        t.row(
            format!(
                "d{} {}x{} {} {}",
                c.device,
                c.rows,
                c.cols,
                c.kind.label(),
                c.rung
            ),
            vec![
                format!("{}", c.samples),
                format!("{:.3}", c.predicted_ms),
                format!("{:.3}", c.settled_ms),
                format!("{:.2}", c.bias()),
            ],
        );
    }
    t
}

/// The CI smoke: record a small run, assert the exported JSON parses
/// and names one `prep` and one `compute` track per device, and that
/// the recording carried at least one calibration record.
pub fn trace_smoke() -> Result<String, String> {
    let r = trace_report(18);
    let slices = obs_trace::validate_trace(&r.trace_json, r.devices)?;
    let cal_rows = r.tables[2].rows.len();
    if cal_rows == 0 {
        return Err("no predicted-vs-settled calibration records".into());
    }
    Ok(format!(
        "trace ok: {slices} duration slices across {} device lanes, \
         {cal_rows} calibration buckets",
        2 * r.devices
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_validates_and_tables_summarize() {
        let msg = trace_smoke().expect("trace must validate");
        assert!(msg.contains("trace ok"), "{msg}");

        let r = trace_report(18);
        let rendered: Vec<String> = r.tables.iter().map(TextTable::render).collect();
        // both priority classes appear with percentile columns
        assert!(rendered[0].contains("p999 ms"));
        assert!(rendered[0].contains('0') && rendered[0].contains('1'));
        // counters cover cache traffic and refunds
        assert!(rendered[1].contains("plan cache hits / misses"));
        assert!(rendered[1].contains("refunds"));
        // calibration rows carry a bias column
        assert!(rendered[2].contains("bias"));
    }
}

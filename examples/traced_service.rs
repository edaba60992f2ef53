//! Observability walkthrough: attach a recorder to the pool, stream a
//! bursty tracker workload through the staged scheduler, export the
//! schedule as a Chrome trace, and fold the event stream into latency
//! and calibration metrics — all without perturbing a single simulated
//! timestamp (see `tests/observability.rs` for the proof).
//!
//! ```sh
//! cargo run --release --example traced_service
//! ```

use std::sync::Arc;

use multidouble_ls::obs::{metrics::Metrics, trace, Event, Recorder};
use multidouble_ls::pipeline::{
    jobs_for_shapes, latency_summary, solve_stream_with, DevicePool, DispatchPolicy, EngineConfig,
    JobOutcome, JobShape, StageSchedConfig,
};
use multidouble_ls::sim::Gpu;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. a pool with an observer attached — the one extra line a
    //    service needs; with no observer, no event is even constructed
    let recorder = Arc::new(Recorder::new());
    let mut pool = DevicePool::new(vec![Gpu::v100(), Gpu::p100()]);
    pool.attach_observer(recorder.clone());

    // 2. a burst-coherent tracker mix: bursts of 6 jobs every 40 ms,
    //    each burst against one system shape — four loose predictors
    //    (priority 0, fusable) and two deep deadline-tagged correctors
    //    (priority 1, refinement plans) — through the staged scheduler
    let jobs = {
        let mut rng = StdRng::seed_from_u64(7);
        let shapes: Vec<JobShape> = (0..48)
            .map(|i| {
                let cols = [8, 12, 16, 24, 10, 6][(i / 6) % 6];
                JobShape {
                    rows: cols + [0, 4][(i / 6) % 2],
                    cols,
                    target_digits: if i % 6 >= 4 { 90 } else { 12 },
                }
            })
            .collect();
        let mut jobs = jobs_for_shapes(&shapes, &mut rng);
        for (i, job) in jobs.iter_mut().enumerate() {
            let release = (i / 6) as f64 * 40.0;
            job.release_ms = Some(release);
            if i % 6 >= 4 {
                job.priority = 1;
                job.deadline_ms = Some(release + 80.0);
            }
        }
        jobs
    };
    let cfg = EngineConfig {
        policy: DispatchPolicy::ShortestExpectedCompletion,
        // structural booking + online re-booking: early-certifying
        // correctors leave a reclaimable tail, visible as refunds
        sched: StageSchedConfig {
            book_expected: false,
            ..StageSchedConfig::staged()
        },
        ..EngineConfig::default()
    };
    let outs: Vec<JobOutcome> = solve_stream_with(&mut pool, jobs, 6, &cfg).collect();
    let lat = latency_summary(&outs);
    println!(
        "{} jobs drained, makespan {:.1} ms; turnaround p50 {:.1} / p99 {:.1} ms, \
         {} deadline misses",
        outs.len(),
        pool.makespan_ms(),
        lat.p50_ms,
        lat.p99_ms,
        lat.deadline_misses,
    );

    // 3. the recording: every planner, scheduler and pool decision,
    //    settled once per job in submission order
    let events = recorder.events();
    let settled = events
        .iter()
        .filter(|e| matches!(e, Event::JobSettled { .. }))
        .count();
    assert_eq!(settled, outs.len(), "one settlement per job");
    println!("{} events recorded ({} settlements)", events.len(), settled);

    // 4. export the schedule as a Chrome trace: one process per device
    //    with a `prep` and a `compute` track each — stage bookings as
    //    duration slices, refunds / extensions as instants
    let doc = trace::chrome_trace(&events);
    let slices = trace::validate_trace(&doc, pool.len()).expect("trace must validate");
    let path = std::path::Path::new("target").join("traced_service.json");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write(&path, &doc).expect("write trace");
    println!(
        "{slices} duration slices written to {} — open in chrome://tracing or ui.perfetto.dev",
        path.display()
    );

    // 5. metrics: the same stream folded into per-priority latency
    //    histograms, scheduler counters and cost-model calibration
    let m = Metrics::from_events(&events);
    for (prio, h) in &m.latency {
        println!(
            "priority {prio}: {} jobs, turnaround p50 {:.1} ms / p99 {:.1} ms / max {:.1} ms",
            h.count(),
            h.p50(),
            h.p99(),
            h.max()
        );
    }
    println!(
        "{} fused groups, {} refunds ({:.1} ms reclaimed), {} pass extensions, \
         plan cache {} hits / {} misses",
        m.fused_groups,
        m.refunds,
        m.refunded_ms,
        m.extensions,
        m.plan_cache_hits,
        m.plan_cache_misses
    );
    for c in m.calibration().iter().take(3) {
        println!(
            "calibration d{} {}x{} {} {}: booked {:.3} ms vs settled {:.3} ms (bias {:.2})",
            c.device,
            c.rows,
            c.cols,
            c.kind.label(),
            c.rung,
            c.predicted_ms,
            c.settled_ms,
            c.bias()
        );
    }
}

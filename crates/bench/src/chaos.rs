//! Chaos experiments: seeded device-fault schedules against the batch
//! engine, A/B-ing retry/re-dispatch recovery against the
//! fail-the-batch baseline (recovery with `redispatch` off).
//!
//! The fault schedule is **data**: one sticky loss (device 0 dies a
//! third of the way into the fault-free makespan) plus a seeded
//! transient schedule on device 1, both fixed before the run — every
//! invocation replays the same losses, retries and dispositions.
//! One job carries an unmeetable deadline so the admission path (shed)
//! shows up in the disposition taxonomy alongside the fault paths.

use std::sync::Arc;

use gpusim::{FaultPlan, Gpu};
use mdls_matrix::HostMat;
use mdls_obs::metrics::Metrics;
use mdls_obs::Recorder;
use mdls_pipeline::batch::Disposition;
use mdls_pipeline::{
    solve_batch_with, AdmissionConfig, BatchReport, DevicePool, EngineConfig, Job, RecoveryPolicy,
    StageSchedConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tables::TextTable;

/// Seed of the transient-fault schedule on device 1.
const TRANSIENT_SEED: u64 = 0xc4a05;
/// Mean gap between transients, simulated ms — a few per batch at the
/// smoke/bench job counts (small functional jobs finish in tens of
/// simulated ms).
const TRANSIENT_GAP_MS: f64 = 4.0;
/// Where in the fault-free makespan device 0 dies.
const LOSS_FRACTION: f64 = 1.0 / 3.0;

/// Functional chaos queue: well-conditioned diagonally dominant
/// systems at the dd rung; job 5 carries an unmeetable deadline so the
/// shed disposition appears in every arm.
pub fn chaos_jobs(count: usize, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs: Vec<Job> = (0..count as u64)
        .map(|id| {
            let n = [8usize, 10, 12][id as usize % 3];
            let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                let u: f64 = multidouble::random::rand_real(&mut rng);
                u + if r == c { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n)
                .map(|_| multidouble::random::rand_real(&mut rng))
                .collect();
            Job::new(id, a, b, 25)
        })
        .collect();
    if jobs.len() > 5 {
        jobs[5].deadline_ms = Some(1.0e-6);
    }
    jobs
}

/// One chaos arm: a 4×V100 pool, the given fault schedule, staged
/// booking with admission on and the given recovery policy, every
/// event recorded.
fn run_arm(jobs: &[Job], lost_at: Option<f64>, recovery: RecoveryPolicy) -> (BatchReport, Metrics) {
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
    if let Some(t) = lost_at {
        pool.set_fault_plan(0, FaultPlan::none().with_device_lost(t));
        pool.set_fault_plan(
            1,
            FaultPlan::seeded(TRANSIENT_SEED, t * 3.0, TRANSIENT_GAP_MS),
        );
    }
    let recorder = Arc::new(Recorder::new());
    pool.attach_observer(recorder.clone());
    let cfg = EngineConfig {
        sched: StageSchedConfig::staged(),
        admission: AdmissionConfig::default(),
        recovery,
        ..EngineConfig::default()
    };
    let report = solve_batch_with(&mut pool, jobs, &cfg);
    (report, Metrics::from_events(&recorder.events()))
}

fn completion_rate(r: &BatchReport) -> f64 {
    r.outcomes
        .iter()
        .filter(|o| o.disposition.completed())
        .count() as f64
        / r.outcomes.len().max(1) as f64
}

fn count(r: &BatchReport, d: Disposition) -> usize {
    r.outcomes.iter().filter(|o| o.disposition == d).count()
}

/// The three arms on one shared fault schedule: fault-free reference,
/// fail-the-batch baseline, retry/re-dispatch recovery. The loss time
/// derives from the fault-free makespan, so each arm sees the same
/// mid-batch loss.
fn chaos_arms(jobs: &[Job]) -> Vec<(&'static str, BatchReport, Metrics)> {
    let (base, base_m) = run_arm(jobs, None, RecoveryPolicy::default());
    let t = base.makespan_ms * LOSS_FRACTION;
    let fail_all = RecoveryPolicy { redispatch: false };
    let (failed, failed_m) = run_arm(jobs, Some(t), fail_all);
    let (recovered, recovered_m) = run_arm(jobs, Some(t), RecoveryPolicy::default());
    vec![
        ("fault-free", base, base_m),
        ("fail-all", failed, failed_m),
        ("retry/re-dispatch", recovered, recovered_m),
    ]
}

/// The chaos A/B table: completion rate, disposition taxonomy counts
/// and makespan overhead per arm, on one seeded fault schedule.
pub fn chaos_table(jobs: usize) -> TextTable {
    let queue = chaos_jobs(jobs, 0xc4a0);
    let arms = chaos_arms(&queue);
    let base_ms = arms[0].1.makespan_ms;
    let mut t = TextTable::new(
        format!(
            "Chaos A/B: {} dd jobs on 4 V100s, device 0 lost mid-batch + \
             seeded transients on device 1 (completion rate, dispositions, \
             makespan overhead vs fault-free)",
            queue.len()
        ),
        "arm",
    );
    t.col("completed")
        .col("retried")
        .col("shed")
        .col("failed")
        .col("refund ms")
        .col("makespan ms")
        .col("overhead");
    for (name, report, m) in &arms {
        let completed = report
            .outcomes
            .iter()
            .filter(|o| o.disposition.completed())
            .count();
        t.row(
            *name,
            vec![
                format!("{completed} / {}", report.outcomes.len()),
                format!("{}", count(report, Disposition::Retried)),
                format!("{}", count(report, Disposition::Shed)),
                format!("{}", count(report, Disposition::Failed)),
                format!("{:.1}", m.lost_refund_ms),
                format!("{:.1}", report.makespan_ms),
                if report.makespan_ms > 0.0 && base_ms > 0.0 {
                    format!("{:.2}x", report.makespan_ms / base_ms)
                } else {
                    "-".into()
                },
            ],
        );
    }
    t
}

/// Machine-readable chaos results (the `target/bench-chaos.json`
/// payload): one scenario per arm with completion rate, disposition
/// counts and the fault counters folded from the event stream.
pub fn chaos_json(jobs: usize) -> String {
    let queue = chaos_jobs(jobs, 0xc4a0);
    let scenarios: Vec<String> = chaos_arms(&queue)
        .iter()
        .map(|(name, report, m)| {
            format!(
                "{{\"name\":\"chaos_{}\",\"makespan_ms\":{:.6},\
                 \"completion_rate\":{:.6},\"retried\":{},\"shed\":{},\
                 \"failed\":{},\"devices_lost\":{},\"lost_refund_ms\":{:.6},\
                 \"transient_faults\":{},\"retries_booked\":{}}}",
                name.replace(['/', '-'], "_"),
                report.makespan_ms,
                completion_rate(report),
                count(report, Disposition::Retried),
                count(report, Disposition::Shed),
                count(report, Disposition::Failed),
                m.devices_lost,
                m.lost_refund_ms,
                m.transient_faults,
                m.retries_booked,
            )
        })
        .collect();
    format!("{{\"scenarios\":[{}]}}", scenarios.join(","))
}

/// The CI smoke contract: on a small seeded chaos schedule,
/// retry/re-dispatch must strictly beat fail-the-batch on completion
/// rate, lose no job itself, and the JSON payload must round-trip
/// through the reader. Returns a one-line summary on success.
pub fn chaos_smoke() -> Result<String, String> {
    let queue = chaos_jobs(16, 0xc4a0);
    let arms = chaos_arms(&queue);
    let (base, failed, recovered) = (&arms[0], &arms[1], &arms[2]);
    if !base
        .1
        .outcomes
        .iter()
        .all(|o| o.disposition.completed() || o.disposition == Disposition::Shed)
    {
        return Err("fault-free arm did not complete everything it admitted".into());
    }
    if count(&failed.1, Disposition::Failed) == 0 {
        return Err("fail-all arm lost nothing; the loss never bit".into());
    }
    if count(&recovered.1, Disposition::Failed) != 0 {
        return Err("recovery arm lost a job".into());
    }
    if count(&recovered.1, Disposition::Retried) == 0 {
        return Err("recovery arm retried nothing".into());
    }
    if completion_rate(&recovered.1) <= completion_rate(&failed.1) {
        return Err(format!(
            "recovery ({:.3}) did not strictly beat fail-all ({:.3}) on completion rate",
            completion_rate(&recovered.1),
            completion_rate(&failed.1)
        ));
    }
    if recovered.2.devices_lost != 1 || failed.2.devices_lost != 1 {
        return Err("each chaos arm must observe exactly one device loss".into());
    }
    if recovered.2.lost_refund_ms <= 0.0 {
        return Err("the loss refunded no booked time".into());
    }
    let doc = chaos_json(16);
    mdls_obs::json::parse(&doc).map_err(|e| format!("bench-chaos.json does not parse: {e}"))?;
    Ok(format!(
        "chaos smoke ok: recovery {:.0}% vs fail-all {:.0}% completion, \
         {} retried, {} shed, makespan overhead {:.2}x",
        completion_rate(&recovered.1) * 100.0,
        completion_rate(&failed.1) * 100.0,
        count(&recovered.1, Disposition::Retried),
        count(&recovered.1, Disposition::Shed),
        recovered.1.makespan_ms / base.1.makespan_ms.max(f64::MIN_POSITIVE),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_and_json_is_complete() {
        let msg = chaos_smoke().expect("chaos smoke");
        assert!(msg.contains("recovery"));
        let doc = mdls_obs::json::parse(&chaos_json(12)).expect("chaos json parses");
        let scenarios = doc
            .get("scenarios")
            .and_then(mdls_obs::json::Json::as_arr)
            .expect("scenarios array");
        assert_eq!(scenarios.len(), 3);
        for s in scenarios {
            let ms = s
                .get("makespan_ms")
                .and_then(mdls_obs::json::Json::as_f64)
                .expect("scenario makespan");
            assert!(ms > 0.0);
            let rate = s
                .get("completion_rate")
                .and_then(mdls_obs::json::Json::as_f64)
                .expect("completion rate");
            assert!((0.0..=1.0).contains(&rate));
        }
    }
}

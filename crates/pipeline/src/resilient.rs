//! Fault-tolerant execution: deadline-driven admission at ingress,
//! seeded device-fault injection, and retry/re-dispatch recovery.
//!
//! The helpers here are the steps the batch engine
//! ([`crate::batch::solve_batch_with`]) runs around its book → execute
//! → settle loop. Batch, stream and service share one ingress step:
//! `admit` (deadline admission), `tombstone` (the outcome of a job
//! that never ran or never finished) and `due_losses` (the sticky
//! losses due by a given instant).
//!
//! * **Admission** — before anything is booked, every deadlined job is
//!   previewed against the surviving pool
//!   ([`DevicePool::preview_stages`]). A job whose requested digits
//!   cannot meet its deadline on *any* surviving device is down-laddered
//!   to the cheapest precision rung that can
//!   ([`Disposition::Degraded`], with the original request kept on
//!   [`JobOutcome::requested_digits`]) or, when no rung fits, shed at
//!   the door ([`Disposition::Shed`]) instead of burning device time on
//!   a guaranteed miss.
//! * **Sticky device loss** — each device model may carry a seeded
//!   [`FaultPlan`](gpusim::FaultPlan). When a plan says the device dies
//!   at `t`, the pool marks it lost ([`DevicePool::fail_device`]):
//!   unexecuted booked spans become refunds and every interrupted or
//!   queued group is re-planned and re-dispatched onto the survivors
//!   ([`Disposition::Retried`]) — a started-but-lost stage re-runs from
//!   its factorization, reusing the promoted-matrix cache, so recovery
//!   costs time but never changes arithmetic. With
//!   [`RecoveryPolicy::redispatch`] off (the fail-the-batch A/B
//!   baseline) interrupted jobs end [`Disposition::Failed`].
//! * **Transient kernel faults** — à la ECC replay: each transient in
//!   the device's seeded schedule that lands inside a group's executed
//!   interval books one bounded, exponentially backed-off replay of the
//!   group's steady-state pass. Retries only extend *simulated time*;
//!   the solution bits are exactly the fault-free solve's.
//!
//! Faults are **data, not entropy**: the schedule is fixed by
//! [`FaultPlan::seeded`](gpusim::FaultPlan::seeded) before the batch
//! starts, no wall clock or global RNG is consulted anywhere, and the
//! whole run — losses, retries, down-ladders, sheds — replays
//! bit-identically from the same seeds.

use std::collections::HashSet;

use crate::batch::{Booked, Disposition, EngineConfig, JobOutcome};
use crate::job::{Job, Precision, Solution};
use crate::microbatch::{dispatch_group_staged, GroupDispatch};
use crate::plan::ExecPlan;
use crate::planner::Planner;
use crate::pool::DevicePool;
use mdls_obs::Event;

/// Cap on transient-fault replays per dispatch (ECC-replay style),
/// shared by the batch engine and [`crate::service::serve`].
pub(crate) const MAX_TRANSIENT_RETRIES: usize = 3;

/// Base of the exponential transient-replay backoff, simulated ms:
/// replay `r` books no earlier than `RETRY_BACKOFF_MS · 2^r` after the
/// failed end.
pub(crate) const RETRY_BACKOFF_MS: f64 = 0.05;

/// Ingress admission control for deadlined jobs: a job no rung can
/// finish in time is shed, and one that only a cheaper rung can finish
/// is down-laddered to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Master switch: when false, every job is admitted as requested.
    pub enabled: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { enabled: true }
    }
}

/// What to do about faults once they happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-plan and re-dispatch groups interrupted by a sticky device
    /// loss onto the survivors. False = the fail-the-batch baseline:
    /// interrupted jobs end [`Disposition::Failed`].
    pub redispatch: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { redispatch: true }
    }
}

/// What ingress admission made of one job.
#[derive(Clone, Debug)]
pub(crate) enum Admitted {
    /// Run at `digits`; `degraded` when they are below the request.
    Run { digits: u32, degraded: bool },
    /// No rung fits the deadline: the job's shed tombstone.
    Shed(Box<JobOutcome>),
}

/// Earliest predicted completion of a singleton solve of
/// `rows×cols` at `digits` over the surviving devices, no earlier than
/// `release` — the admission controller's crystal ball, the same
/// [`DevicePool::preview_stages`] the staged dispatcher books by.
fn earliest_end(
    pool: &DevicePool,
    planner: &Planner,
    rows: usize,
    cols: usize,
    digits: u32,
    overlap: bool,
    release: f64,
) -> f64 {
    let mut best = f64::INFINITY;
    for d in pool.devices().iter().filter(|d| !d.is_lost()) {
        let (plan, fused) = planner.plan_fused(&d.gpu, rows, cols, digits, 1);
        let reqs = fused.stage_reqs(ExecPlan::booked_stages(plan.corrections()));
        best = best.min(pool.preview_stages(d.id, &reqs, overlap, release));
    }
    best
}

/// The one ingress step of the batch, stream and service front ends.
/// Deadline-free jobs, and every job when admission is off or no
/// device survives, run as requested. A deadlined job previewed (from
/// `release`) to meet its deadline at the requested digits runs at
/// them; else it runs at the highest cheaper rung that does (announced
/// as [`Event::JobDegraded`]); else it is shed (announced as
/// [`Event::JobShed`]) with a tombstone stamped at `shed_at_ms`.
pub(crate) fn admit(
    pool: &DevicePool,
    planner: &Planner,
    job: &Job,
    overlap: bool,
    release: f64,
    enabled: bool,
    shed_at_ms: f64,
) -> Admitted {
    let run = |digits: u32| Admitted::Run {
        digits,
        degraded: digits != job.target_digits,
    };
    let Some(deadline) = job.deadline_ms else {
        return run(job.target_digits);
    };
    if !enabled || pool.alive_count() == 0 {
        return run(job.target_digits);
    }
    let end_at = |digits: u32| {
        earliest_end(
            pool,
            planner,
            job.rows(),
            job.cols(),
            digits,
            overlap,
            release,
        )
    };
    let requested_end = end_at(job.target_digits);
    if requested_end <= deadline {
        return run(job.target_digits);
    }
    // walk the ladder downward: the nearest cheaper rung that fits
    // loses the fewest digits
    let requested_rung = Precision::for_digits(job.target_digits);
    for rung in Precision::LADDER
        .into_iter()
        .rev()
        .filter(|r| *r < requested_rung)
    {
        if end_at(rung.digits()) <= deadline {
            emit_degraded(pool, job, rung.digits());
            return run(rung.digits());
        }
    }
    pool.emit(|| Event::JobShed {
        job: job.id,
        deadline_ms: deadline,
        predicted_end_ms: requested_end,
    });
    Admitted::Shed(Box::new(tombstone(
        pool,
        planner,
        job,
        job.target_digits,
        Disposition::Shed,
        shed_at_ms,
    )))
}

/// A terminal outcome for a job that never ran (shed) or never
/// finished (lost): an empty solution with its plan at `digits` on the
/// first surviving device (device 0 when none survives), stamped at
/// `at_ms`, the moment the verdict fell.
pub(crate) fn tombstone(
    pool: &DevicePool,
    planner: &Planner,
    job: &Job,
    digits: u32,
    disposition: Disposition,
    at_ms: f64,
) -> JobOutcome {
    let device = pool
        .devices()
        .iter()
        .find(|d| !d.is_lost())
        .map(|d| d.id)
        .unwrap_or(0);
    let (plan, _) = planner.plan_fused(pool.gpu(device), job.rows(), job.cols(), digits, 1);
    tombstone_outcome(job, plan, device, disposition, at_ms)
}

/// [`tombstone`] with the plan and device already chosen.
pub(crate) fn tombstone_outcome(
    job: &Job,
    plan: ExecPlan,
    device: usize,
    disposition: Disposition,
    end_ms: f64,
) -> JobOutcome {
    JobOutcome {
        job_id: job.id,
        device,
        plan,
        x: Solution::D1(Vec::new()),
        residual: f64::INFINITY,
        achieved_digits: 0.0,
        start_ms: end_ms,
        end_ms,
        fused_group: 1,
        corrections_run: 0,
        refunded_ms: 0.0,
        extended_ms: 0.0,
        priority: job.priority,
        release_ms: job.release(),
        deadline_ms: job.deadline_ms,
        disposition,
        requested_digits: job.target_digits,
        tenant: job.tenant,
    }
}

/// Announce a down-ladder of `job` to `digits`.
pub(crate) fn emit_degraded(pool: &DevicePool, job: &Job, digits: u32) {
    pool.emit(|| Event::JobDegraded {
        job: job.id,
        from_digits: job.target_digits,
        to_digits: digits,
    });
}

/// The surviving devices whose fault plan loses them by `t`, as
/// `(device, loss time)` sorted by (time, id) — the one scan behind
/// every front end's sticky-loss handling.
pub(crate) fn due_losses(pool: &DevicePool, t: f64) -> Vec<(usize, f64)> {
    let mut due: Vec<(usize, f64)> = pool
        .devices()
        .iter()
        .filter(|d| !d.is_lost())
        .filter_map(|d| {
            d.gpu
                .fault
                .lost_at_ms()
                .filter(|&at| at <= t)
                .map(|at| (d.id, at))
        })
        .collect();
    due.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    due
}

/// Apply the sticky device losses the pool's fault plans schedule,
/// oldest first, to a batch whose groups are all booked. Each loss
/// interrupts the unfinished bookings on the dying device; they
/// re-dispatch immediately onto the survivors (so a *later* loss can
/// interrupt the re-booked work too — it is live again) and their
/// members become [`Disposition::Retried`] — or, with
/// [`RecoveryPolicy::redispatch`] off or no survivor left, die at the
/// loss time ([`Disposition::Failed`]). Recovery only books onto
/// survivors: their existing spans are never moved or re-run. A pool
/// without scheduled losses is left untouched.
pub(crate) fn recover_losses(
    pool: &mut DevicePool,
    planner: &Planner,
    jobs: &[Job],
    booked: &mut [Booked],
    dispo: &mut [Disposition],
    cfg: &EngineConfig,
) {
    for (id, t) in due_losses(pool, f64::INFINITY) {
        let report = pool.fail_device(id, t);
        let hit: HashSet<u64> = report.interrupted.iter().copied().collect();
        for b in booked.iter_mut().filter(|b| hit.contains(&b.g.booking.id)) {
            let idxs = b.g.jobs.clone();
            if cfg.recovery.redispatch && pool.alive_count() > 0 {
                let release = idxs.iter().map(|&j| jobs[j].release()).fold(t, f64::max);
                b.g = dispatch_group_staged(
                    pool, planner, idxs, &b.shape, cfg.policy, &cfg.sched, release,
                );
                for &j in &b.g.jobs {
                    if dispo[j] == Disposition::Ok {
                        dispo[j] = Disposition::Retried;
                    }
                }
            } else {
                b.dead_at = Some(t);
                for &j in &idxs {
                    dispo[j] = Disposition::Failed;
                }
            }
        }
    }
}

/// Replay the transient kernel faults of `g`'s device that landed
/// inside its settled interval, à la ECC replay: each of the first
/// [`MAX_TRANSIENT_RETRIES`] such faults books one backed-off replay of
/// the group's steady-state pass (or, for direct plans, the whole
/// booking) no earlier than `RETRY_BACKOFF_MS · 2^r` after the previous
/// end. Time moves,
/// bits do not. Extends `g.end_ms` over the replays and returns the
/// fault instants replayed (empty on a quiet device).
pub(crate) fn replay_transients(
    pool: &mut DevicePool,
    g: &mut GroupDispatch,
    overlap: bool,
    job: u64,
) -> Vec<f64> {
    let device = g.device;
    let hits: Vec<f64> = pool
        .gpu(device)
        .fault
        .transients()
        .iter()
        .copied()
        .filter(|t| *t >= g.start_ms && *t < g.end_ms)
        .take(MAX_TRANSIENT_RETRIES)
        .collect();
    for (r, at) in hits.iter().enumerate() {
        pool.emit(|| Event::FaultInjected {
            device,
            job,
            at_ms: *at,
            retry: r,
        });
        let mut reqs = g.fused.extension_reqs();
        if reqs.is_empty() {
            reqs = g.fused.stage_reqs(usize::MAX);
        }
        let backoff = RETRY_BACKOFF_MS * (1u64 << r) as f64;
        let b = pool.commit_stages(device, &reqs, 0.0, 0.0, 0, overlap, g.end_ms + backoff);
        pool.mark_settled(b.id);
        pool.emit(|| Event::RetryBooked {
            device,
            job,
            end_ms: b.end_ms(),
            backoff_ms: backoff,
        });
        g.end_ms = b.end_ms();
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::solve_batch_with;
    use crate::microbatch::MicrobatchConfig;
    use crate::scheduler::StageSchedConfig;
    use gpusim::{FaultPlan, Gpu};
    use mdls_matrix::HostMat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diag_jobs(count: usize, n: usize, digits: u32, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count as u64)
            .map(|id| {
                let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                    let u: f64 = multidouble::random::rand_real(&mut rng);
                    u + if r == c { 4.0 } else { 0.0 }
                });
                let b: Vec<f64> = (0..n)
                    .map(|_| multidouble::random::rand_real(&mut rng))
                    .collect();
                Job::new(id, a, b, digits)
            })
            .collect()
    }

    /// The resilient configuration of the engine: staged booking,
    /// admission on.
    fn resilient(micro: MicrobatchConfig) -> EngineConfig {
        EngineConfig {
            micro,
            sched: StageSchedConfig::staged(),
            admission: AdmissionConfig::default(),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn quiet_plans_and_no_deadlines_match_the_staged_engine() {
        let jobs = diag_jobs(8, 8, 25, 0xfa01);
        let plain = EngineConfig {
            sched: StageSchedConfig::staged(),
            ..EngineConfig::default()
        };
        let mut pool_a = DevicePool::homogeneous(&Gpu::v100(), 2);
        let a = solve_batch_with(&mut pool_a, &jobs, &plain);
        // a seeded fault plan over an empty horizon: no transient, no loss
        let mut pool_b = DevicePool::homogeneous(&Gpu::v100(), 2);
        pool_b.set_fault_plan(1, FaultPlan::seeded(3, 0.0, 1.0));
        let b = solve_batch_with(&mut pool_b, &jobs, &resilient(MicrobatchConfig::default()));
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.job_id, y.job_id);
            assert_eq!(x.x, y.x, "job {}: resilience steps changed bits", x.job_id);
            assert_eq!(x.end_ms, y.end_ms);
            assert_eq!(y.disposition, Disposition::Ok);
        }
        assert_eq!(a.makespan_ms, b.makespan_ms);
    }

    #[test]
    fn transient_faults_retry_and_extend_time_not_bits() {
        let jobs = diag_jobs(4, 8, 25, 0xfa02);
        let cfg = resilient(MicrobatchConfig::off());
        let mut quiet = DevicePool::homogeneous(&Gpu::v100(), 1);
        let base = solve_batch_with(&mut quiet, &jobs, &cfg);
        let mut noisy = DevicePool::homogeneous(&Gpu::v100(), 1);
        // a dense transient schedule: mean gap well under the batch span
        noisy.set_fault_plan(0, FaultPlan::seeded(11, 1.0e4, 50.0));
        let hit = solve_batch_with(&mut noisy, &jobs, &cfg);
        assert!(
            hit.outcomes
                .iter()
                .any(|o| o.disposition == Disposition::Retried),
            "no transient landed inside the batch window"
        );
        for (b, h) in base.outcomes.iter().zip(&hit.outcomes) {
            assert_eq!(b.x, h.x, "job {}: a retry changed the bits", b.job_id);
            assert!(h.end_ms >= b.end_ms);
            // a replay books strictly after the settled end, so every
            // retried job finishes later than its fault-free twin
            if h.disposition == Disposition::Retried {
                assert!(h.end_ms > b.end_ms, "job {}: free retry", h.job_id);
            }
        }
        assert!(hit.makespan_ms >= base.makespan_ms);
    }

    #[test]
    fn unmeetable_deadline_sheds_and_is_not_a_miss() {
        let mut jobs = diag_jobs(3, 8, 25, 0xfa03);
        jobs[1].deadline_ms = Some(1.0e-6); // nothing finishes this fast
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        let report = solve_batch_with(&mut pool, &jobs, &resilient(MicrobatchConfig::off()));
        let shed = &report.outcomes[1];
        assert_eq!(shed.disposition, Disposition::Shed);
        assert!(!shed.missed_deadline(), "a shed job is not a miss");
        assert_eq!(report.latency.shed, 1);
        assert_eq!(report.latency.deadline_misses, 0);
        // the other two ran normally
        assert_eq!(report.outcomes[0].disposition, Disposition::Ok);
        assert_eq!(report.outcomes[2].disposition, Disposition::Ok);
        assert_eq!(
            report
                .outcomes
                .iter()
                .filter(|o| o.disposition.completed())
                .count(),
            2
        );
    }
}

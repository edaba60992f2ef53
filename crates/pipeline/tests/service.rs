//! Multi-tenant service-shell properties: weighted-fair isolation
//! bounds a light tenant's tail latency under an adversarial burster
//! (strictly better than the FIFO baseline), quota exhaustion starves
//! only the exhausted tenant, the service loop is bit- and
//! schedule-deterministic across runs and bit-identical to the
//! reference interpreter, a tripped circuit breaker keeps non-probe
//! work off the quarantined device until a probe succeeds, and the
//! service's accounting holds for any seeded pool, tenant mix and
//! fault schedule.

use std::sync::Arc;

use gpusim::{FaultPlan, Gpu};
use mdls_matrix::HostMat;
use mdls_obs::metrics::Metrics;
use mdls_obs::{Event, Recorder};
use mdls_pipeline::batch::Disposition;
use mdls_pipeline::{
    serve, solve_planned, Backpressure, BreakerConfig, DevicePool, ExecutionMode, Job,
    OverloadConfig, Planner, ServiceConfig, ServicePolicy, ServiceReport, SloClass, TenantId,
    TenantSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn diag_jobs(
    count: usize,
    id_base: u64,
    digits: u32,
    seed: u64,
    tenant: TenantId,
    slo: SloClass,
    spacing_ms: f64,
) -> Vec<Job> {
    let n = 8;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count as u64)
        .map(|i| {
            let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                let u: f64 = multidouble::random::rand_real(&mut rng);
                u + if r == c { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n)
                .map(|_| multidouble::random::rand_real(&mut rng))
                .collect();
            Job::new(id_base + i, a, b, digits)
                .with_tenant(tenant)
                .with_slo(slo)
                .with_release_ms(i as f64 * spacing_ms)
        })
        .collect()
}

fn tenant_summary(report: &ServiceReport, id: TenantId) -> &mdls_pipeline::TenantSummary {
    report
        .tenants
        .iter()
        .find(|t| t.tenant == id)
        .expect("tenant summarized")
}

/// A 10× burster slams the pool at t = 0; a light tenant trickles jobs
/// in. Under weighted-fair scheduling the light tenant's p99 stays
/// within a constant factor of its uncontended p99 — and strictly
/// below the FIFO baseline, where its jobs drown behind the burst.
#[test]
fn weighted_fair_bounds_light_tenant_p99_under_burst() {
    let light_id = TenantId(1);
    let burst_id = TenantId(2);
    let light = diag_jobs(40, 0, 25, 0xfa1e, light_id, SloClass::Standard, 5.0);
    let burst = diag_jobs(400, 1000, 25, 0xb1a57, burst_id, SloClass::BestEffort, 0.0);
    let mut jobs = light.clone();
    jobs.extend(burst);
    let specs = [
        TenantSpec::new(light_id, "light"),
        TenantSpec::new(burst_id, "burster").with_queue(1000, Backpressure::Reject),
    ];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        ..ServiceConfig::default()
    };

    let run = |jobs: &[Job], policy: ServicePolicy| {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        serve(&mut pool, jobs, &specs, &ServiceConfig { policy, ..cfg })
    };
    let solo = run(&light, ServicePolicy::WeightedFair);
    let fair = run(&jobs, ServicePolicy::WeightedFair);
    let fifo = run(&jobs, ServicePolicy::Fifo);

    let solo_p99 = tenant_summary(&solo, light_id).p99_ms;
    let fair_light = tenant_summary(&fair, light_id);
    let fifo_light = tenant_summary(&fifo, light_id);
    assert_eq!(
        fair_light.completed, 40,
        "fair run completes the light tenant"
    );
    assert!(
        fair_light.p99_ms < fifo_light.p99_ms,
        "weighted fair must strictly beat FIFO for the light tenant: \
         fair p99 {} vs fifo p99 {}",
        fair_light.p99_ms,
        fifo_light.p99_ms
    );
    // the SLO bound: a constant factor over the uncontended tail, not
    // proportional to the burster's backlog
    assert!(
        fair_light.p99_ms <= solo_p99.max(1e-3) * 10.0,
        "burst leaked into the light tenant's tail: p99 {} vs solo {}",
        fair_light.p99_ms,
        solo_p99
    );
    // the burster itself pays: its tail is far beyond the light one's
    assert!(tenant_summary(&fair, burst_id).p99_ms > fair_light.p99_ms);
}

/// Pool sizes every accounting test runs at: a quota or deficit gap
/// between dispatch and settle only shows once more than one job can be
/// in flight.
const POOL_SIZES: [usize; 3] = [1, 2, 4];

/// A zero-refill quota starves only its own tenant: the metered tenant
/// completes what its bucket covers and sheds the rest, while the
/// unmetered tenant completes everything — at every pool size.
#[test]
fn quota_exhaustion_sheds_only_the_exhausted_tenant() {
    let metered = TenantId(1);
    let free = TenantId(2);
    let a = diag_jobs(10, 0, 25, 0x90a7, metered, SloClass::Standard, 0.0);
    let b = diag_jobs(10, 100, 25, 0x5eed, free, SloClass::Standard, 0.0);
    // price one job on the reference model to size the bucket at ~2 jobs
    let planner = mdls_pipeline::Planner::new();
    let (_, fused) = planner.plan_fused(&Gpu::v100(), 8, 8, 25, 1);
    let cost = fused.predicted_ms;

    let mut jobs = a;
    jobs.extend(b);
    let specs = [
        TenantSpec::new(metered, "metered").with_quota(2.2 * cost, 0.0),
        TenantSpec::new(free, "free"),
    ];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        ..ServiceConfig::default()
    };
    for devices in POOL_SIZES {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), devices);
        let report = serve(&mut pool, &jobs, &specs, &cfg);

        let m = tenant_summary(&report, metered);
        let f = tenant_summary(&report, free);
        assert_eq!(
            f.completed, 10,
            "{devices} devices: unmetered tenant touched"
        );
        assert_eq!(f.shed, 0);
        assert_eq!(
            m.completed, 2,
            "{devices} devices: bucket covers exactly two jobs"
        );
        assert_eq!(m.shed, 8, "{devices} devices: the rest starve and shed");
        assert!(m.quota_exhaustions >= 1, "dry spell must be counted");
        assert!(report
            .outcomes
            .iter()
            .filter(|o| o.tenant == metered)
            .all(|o| o.disposition == Disposition::Ok || o.disposition == Disposition::Shed));
    }
}

/// A bucket sized for 1.2 jobs pays for exactly one, however many
/// devices could take the metered tenant's jobs in the same dispatch
/// round: the predicted cost is reserved at dispatch, so the second
/// job of a round already sees the drained bucket.
#[test]
fn quota_reserves_at_dispatch_so_one_round_cannot_overspend() {
    let metered = TenantId(1);
    let jobs = diag_jobs(8, 0, 25, 7, metered, SloClass::Standard, 0.0);
    let planner = mdls_pipeline::Planner::new();
    let (_, fused) = planner.plan_fused(&Gpu::v100(), 8, 8, 25, 1);
    let cost = fused.predicted_ms;
    // bucket covers ~1.2 jobs, zero refill
    let specs = [TenantSpec::new(metered, "metered").with_quota(1.2 * cost, 0.0)];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        ..ServiceConfig::default()
    };
    for devices in POOL_SIZES {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), devices);
        let report = serve(&mut pool, &jobs, &specs, &cfg);
        let t = &report.tenants[0];
        assert_eq!(
            t.completed, 1,
            "{devices} devices: bucket covers exactly one job"
        );
    }
}

/// The service loop is bit- and schedule-deterministic: identical
/// outcomes (solutions, placements, simulated times, dispositions)
/// across repeated runs. A dispatch round executes on parallel host
/// threads, so every completed outcome must also equal the reference
/// interpreter's solve of its job and plan.
#[test]
fn service_loop_is_deterministic_across_runs() {
    let t1 = TenantId(1);
    let t2 = TenantId(2);
    let mut jobs = diag_jobs(12, 0, 40, 0xde7e, t1, SloClass::Standard, 0.7);
    jobs.extend(diag_jobs(
        12,
        100,
        25,
        0x4e11,
        t2,
        SloClass::BestEffort,
        0.3,
    ));
    let specs = [
        TenantSpec::new(t1, "alpha").with_weight(2),
        TenantSpec::new(t2, "beta"),
    ];
    let run = || {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
        pool.set_fault_plan(1, FaultPlan::seeded(0x7ea5, 10.0, 1.5));
        serve(&mut pool, &jobs, &specs, &ServiceConfig::default())
    };
    let a = run();
    let b = run();
    let c = run();
    for (x, y) in a
        .outcomes
        .iter()
        .zip(&b.outcomes)
        .chain(a.outcomes.iter().zip(&c.outcomes))
    {
        assert_eq!(x.job_id, y.job_id);
        assert_eq!(x.device, y.device, "placement must not change across runs");
        assert_eq!(x.start_ms.to_bits(), y.start_ms.to_bits());
        assert_eq!(x.end_ms.to_bits(), y.end_ms.to_bits());
        assert_eq!(x.residual.to_bits(), y.residual.to_bits());
        assert_eq!(x.x, y.x, "solution bits must match");
        assert_eq!(x.disposition, y.disposition);
    }
    assert_eq!(a.makespan_ms.to_bits(), b.makespan_ms.to_bits());
    assert_eq!(a.makespan_ms.to_bits(), c.makespan_ms.to_bits());
    assert_matches_reference_interpreter(&[Gpu::v100(), Gpu::v100()], &jobs, &a);
}

/// Every completed outcome of `report` is bit-identical to
/// [`solve_planned`] of its job and plan on the device it ran on.
fn assert_matches_reference_interpreter(gpus: &[Gpu], jobs: &[Job], report: &ServiceReport) {
    let mut checked = 0;
    for (job, o) in jobs.iter().zip(&report.outcomes) {
        if !o.disposition.completed() {
            continue;
        }
        let (x, residual) = solve_planned(&gpus[o.device], job, &o.plan);
        assert_eq!(
            x, o.x,
            "job {}: service bits differ from solve_planned",
            o.job_id
        );
        assert_eq!(residual.to_bits(), o.residual.to_bits(), "job {}", o.job_id);
        checked += 1;
    }
    assert!(checked > 0, "no completed outcome to check; vacuous");
}

/// A flapping device trips its breaker; from the trip to the probe,
/// the quarantined device receives no bookings at all, and the first
/// booking after re-admission is the probe itself. A clean probe
/// closes the breaker and normal dispatch resumes.
#[test]
fn quarantined_device_gets_no_nonprobe_dispatches_until_probe_succeeds() {
    let t1 = TenantId(1);
    let jobs = diag_jobs(40, 0, 25, 0xc1c1, t1, SloClass::Standard, 0.0);
    let specs = [TenantSpec::new(t1, "solo").with_queue(64, Backpressure::Block)];
    let cfg = ServiceConfig {
        mode: ExecutionMode::ModelOnly,
        breaker: BreakerConfig {
            enabled: true,
            window_ms: 50.0,
            max_faults: 2,
            backoff_ms: 5.0,
        },
        ..ServiceConfig::default()
    };
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
    // dense transients early on device 1, quiet after 3 ms
    pool.set_fault_plan(1, FaultPlan::seeded(0xf00d, 3.0, 0.3));
    let recorder = Arc::new(Recorder::new());
    pool.attach_observer(recorder.clone());
    let report = serve(&mut pool, &jobs, &specs, &cfg);

    assert_eq!(report.outcomes.len(), 40);
    assert!(
        report.outcomes.iter().all(|o| o.disposition.completed()),
        "quarantine must not lose jobs — the healthy device absorbs them"
    );
    let b1 = report.breakers[1];
    assert!(b1.opens >= 1, "flapping device must trip its breaker");
    assert!(b1.probes >= 1, "quarantine must end in a probe");
    assert!(b1.closes >= 1, "a clean probe must close the breaker");

    // replay the event stream: between CircuitOpen(d1) and the next
    // CircuitProbe(d1), device 1 must receive zero bookings
    let events = recorder.events();
    let mut quarantined = false;
    let mut saw_transitions = 0;
    for ev in &events {
        match ev {
            Event::CircuitOpen { device: 1, .. } => {
                quarantined = true;
                saw_transitions += 1;
            }
            Event::CircuitProbe { device: 1, .. } => {
                quarantined = false;
            }
            Event::StageBooked { device: 1, .. } => {
                assert!(!quarantined, "booking on a quarantined device");
            }
            _ => {}
        }
    }
    assert!(saw_transitions >= 1);
    // after the final close, the device serves normal traffic again
    let close_at = events
        .iter()
        .rposition(|e| matches!(e, Event::CircuitClose { device: 1, .. }))
        .expect("breaker closed");
    assert!(
        events[close_at..]
            .iter()
            .any(|e| matches!(e, Event::StageBooked { device: 1, .. })),
        "re-admitted device must receive work again"
    );
}

/// Uniform index in `0..n`.
fn pick(rng: &mut StdRng, n: usize) -> usize {
    (rng.random_range(0.0..n as f64) as usize).min(n - 1)
}

/// One seeded service scenario: a mixed V100/P100 pool of 1–8 devices
/// with seeded transients and at most one sticky loss, 1–4 tenants
/// with random weights, queues, backpressure policies and quotas, and
/// jobs of random shape, digits, SLO class, release and deadline.
struct Scenario {
    gpus: Vec<Gpu>,
    faults: Vec<Option<FaultPlan>>,
    jobs: Vec<Job>,
    specs: Vec<TenantSpec>,
    cfg: ServiceConfig,
}

fn scenario(seed: u64, job_count: usize, mode: ExecutionMode) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let devices = 1 + pick(&mut rng, 8);
    let gpus: Vec<Gpu> = (0..devices)
        .map(|_| {
            if pick(&mut rng, 2) == 0 {
                Gpu::v100()
            } else {
                Gpu::p100()
            }
        })
        .collect();
    // the reference price of one mid-sized job scales every time knob
    let unit = Planner::new()
        .plan_fused(&Gpu::v100(), 8, 8, 25, 1)
        .1
        .predicted_ms;
    let horizon = unit * job_count as f64;
    let mut faults: Vec<Option<FaultPlan>> = (0..devices)
        .map(|d| {
            (pick(&mut rng, 3) == 0).then(|| {
                FaultPlan::seeded(
                    seed * 64 + d as u64,
                    horizon,
                    unit * (1.0 + pick(&mut rng, 8) as f64),
                )
            })
        })
        .collect();
    if pick(&mut rng, 2) == 0 {
        let d = pick(&mut rng, devices);
        let at = rng.random_range(0.0..horizon / 2.0);
        let plan = faults[d].take().unwrap_or_else(FaultPlan::none);
        faults[d] = Some(plan.with_device_lost(at));
    }

    let tenants = 1 + pick(&mut rng, 4);
    let backpressure = [
        Backpressure::Reject,
        Backpressure::ShedOldest,
        Backpressure::Block,
    ];
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|t| {
            let spec = TenantSpec::new(TenantId(t as u32), "tenant")
                .with_weight(1 + pick(&mut rng, 3) as u32)
                .with_queue(1 + pick(&mut rng, 16), backpressure[pick(&mut rng, 3)]);
            if pick(&mut rng, 2) == 0 {
                let burst = unit * rng.random_range(1.0..8.0);
                let refill = unit * rng.random_range(0.0..400.0);
                spec.with_quota(burst, refill)
            } else {
                spec
            }
        })
        .collect();

    let digits = [12, 25, 40, 60];
    let sizes = [6, 8, 10];
    let mut release = 0.0;
    let jobs: Vec<Job> = (0..job_count as u64)
        .map(|id| {
            let n = sizes[pick(&mut rng, sizes.len())];
            let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                let u: f64 = multidouble::random::rand_real(&mut rng);
                u + if r == c { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n)
                .map(|_| multidouble::random::rand_real(&mut rng))
                .collect();
            release += rng.random_range(0.0..unit);
            let mut job = Job::new(id, a, b, digits[pick(&mut rng, digits.len())])
                .with_tenant(TenantId(pick(&mut rng, tenants) as u32))
                .with_slo(SloClass::LADDER[pick(&mut rng, 3)])
                .with_release_ms(release);
            if pick(&mut rng, 3) == 0 {
                job = job.with_deadline_ms(release + unit * rng.random_range(0.2..6.0));
            }
            job
        })
        .collect();

    let overload = if pick(&mut rng, 2) == 0 {
        let degrade = unit * rng.random_range(1.0..6.0);
        OverloadConfig::thresholds(degrade, 2.0 * degrade)
    } else {
        OverloadConfig::default()
    };
    let policy = if pick(&mut rng, 4) == 0 {
        ServicePolicy::Fifo
    } else {
        ServicePolicy::WeightedFair
    };
    let cfg = ServiceConfig {
        policy,
        overload,
        breaker: BreakerConfig {
            enabled: true,
            window_ms: unit * 4.0,
            max_faults: 2,
            backoff_ms: unit * 2.0,
        },
        mode,
    };
    Scenario {
        gpus,
        faults,
        jobs,
        specs,
        cfg,
    }
}

/// Run `s` with a recorder attached; the report and the folded event
/// stream.
fn run_scenario(s: &Scenario) -> (ServiceReport, Metrics) {
    let mut pool = DevicePool::new(s.gpus.clone());
    for (d, f) in s.faults.iter().enumerate() {
        if let Some(f) = f {
            pool.set_fault_plan(d, f.clone());
        }
    }
    let recorder = Arc::new(Recorder::new());
    pool.attach_observer(recorder.clone());
    let report = serve(&mut pool, &s.jobs, &s.specs, &s.cfg);
    (report, Metrics::from_events(&recorder.events()))
}

/// The accounting every `serve` report must satisfy, whatever the
/// pool, tenants and faults.
fn assert_service_accounting(seed: u64, s: &Scenario, report: &ServiceReport, m: &Metrics) {
    let ctx = format!("seed {seed}");
    // exactly one outcome per job, in submission order
    assert_eq!(report.outcomes.len(), s.jobs.len(), "{ctx}");
    for (job, o) in s.jobs.iter().zip(&report.outcomes) {
        assert_eq!(job.id, o.job_id, "{ctx}: outcome out of order");
        assert_eq!(job.tenant, o.tenant, "{ctx}: job {}", job.id);
    }
    let completed = report
        .outcomes
        .iter()
        .filter(|o| o.disposition.completed())
        .count();

    // per tenant: conservation, class rows, rejects inside sheds
    let mut shed_total = 0;
    for t in &report.tenants {
        let submitted = s.jobs.iter().filter(|j| j.tenant == t.tenant).count();
        assert_eq!(t.submitted, submitted, "{ctx}: tenant {:?}", t.tenant);
        assert_eq!(
            t.submitted,
            t.completed + t.shed,
            "{ctx}: tenant {:?} lost a job",
            t.tenant
        );
        assert!(t.rejected <= t.shed, "{ctx}: tenant {:?}", t.tenant);
        let sum =
            |f: fn(&mdls_pipeline::ClassSummary) -> usize| t.classes.iter().map(f).sum::<usize>();
        assert_eq!(sum(|c| c.submitted), t.submitted, "{ctx}: class rows");
        assert_eq!(sum(|c| c.completed), t.completed, "{ctx}: class rows");
        assert_eq!(sum(|c| c.shed), t.shed, "{ctx}: class rows");
        assert_eq!(sum(|c| c.degraded), t.degraded, "{ctx}: class rows");
        shed_total += t.shed;
        // the recorder's per-tenant histogram saw every completion
        let seen = m.tenant_latency.get(&t.tenant.0).map_or(0, |h| h.count());
        assert_eq!(seen as usize, t.completed, "{ctx}: tenant {:?}", t.tenant);
    }
    assert_eq!(
        report.tenants.iter().map(|t| t.submitted).sum::<usize>(),
        s.jobs.len(),
        "{ctx}"
    );

    // per device: a breaker closes only after a probe, and probes only
    // after an open
    for b in &report.breakers {
        assert!(b.closes <= b.probes, "{ctx}: device {}: {b:?}", b.device);
        assert!(b.probes <= b.opens, "{ctx}: device {}: {b:?}", b.device);
    }

    // the event stream and the report count the same things alike
    assert_eq!(m.jobs as usize, completed, "{ctx}: settled events");
    assert_eq!(
        (m.jobs_shed + m.tenant_sheds) as usize,
        shed_total,
        "{ctx}: shed events"
    );
    assert_eq!(
        m.quota_exhaustions as usize,
        report
            .tenants
            .iter()
            .map(|t| t.quota_exhaustions)
            .sum::<usize>(),
        "{ctx}"
    );
    let breaker_sum = |f: fn(&mdls_pipeline::BreakerSummary) -> usize| {
        report.breakers.iter().map(f).sum::<usize>() as u64
    };
    assert_eq!(m.circuit_opens, breaker_sum(|b| b.opens), "{ctx}");
    assert_eq!(m.circuit_probes, breaker_sum(|b| b.probes), "{ctx}");
    assert_eq!(m.circuit_closes, breaker_sum(|b| b.closes), "{ctx}");
    assert_eq!(
        m.deadline_misses as usize, report.latency.deadline_misses,
        "{ctx}"
    );
    assert!(
        m.jobs_degraded as usize >= report.tenants.iter().map(|t| t.degraded).sum::<usize>(),
        "{ctx}: a degraded outcome without its event"
    );

    // a metered tenant never settles more predicted device-ms than its
    // bucket could ever have held: the burst plus the refill over the
    // run. A dispatch is charged its reference-model cost at the
    // requested digits, less its refund, plus its extension.
    if s.cfg.policy == ServicePolicy::WeightedFair {
        let planner = Planner::new();
        for spec in &s.specs {
            let Some(q) = spec.quota else { continue };
            let mut spend = 0.0;
            let mut charged = 0usize;
            for (job, o) in s.jobs.iter().zip(&report.outcomes) {
                if job.tenant != spec.id || !o.disposition.completed() {
                    continue;
                }
                let (_, fused) =
                    planner.plan_fused(&s.gpus[0], job.rows(), job.cols(), job.target_digits, 1);
                spend += fused.predicted_ms - o.refunded_ms + o.extended_ms;
                charged += 1;
            }
            let budget = q.burst_ms + q.refill_per_s * report.makespan_ms / 1000.0;
            assert!(
                spend <= budget + 1e-9 * (1 + charged) as f64,
                "{ctx}: tenant {:?} settled {spend} device-ms of a {budget} budget",
                spec.id
            );
        }
    }
}

/// Seeded accounting invariants of the service shell over pools of 1–8
/// mixed devices, random tenant mixes, transients and sticky losses
/// (model-only, so every seed is cheap).
#[test]
fn service_accounting_holds_for_any_seed() {
    for seed in 0..32u64 {
        let s = scenario(seed, 48, ExecutionMode::ModelOnly);
        let (report, m) = run_scenario(&s);
        assert_service_accounting(seed, &s, &report, &m);
    }
}

/// The same invariants on one small functional scenario, where
/// execution also refunds and extends bookings, and every completed
/// outcome is bit-identical to the reference interpreter.
#[test]
fn functional_service_accounting_and_bits_hold() {
    let seed = 0x5e7;
    let s = scenario(seed, 16, ExecutionMode::Functional);
    let (report, m) = run_scenario(&s);
    assert_service_accounting(seed, &s, &report, &m);
    assert_matches_reference_interpreter(&s.gpus, &s.jobs, &report);
}

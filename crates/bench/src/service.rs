//! Sustained-load service bench: the multi-tenant shell under a
//! heterogeneous tenant mix with one adversarial burster, A/B-ing
//! weighted-fair scheduling against the FIFO baseline.
//!
//! The workload is **data**: every arrival time, shape, SLO class and
//! fault is derived from fixed seeds, so each invocation replays the
//! same bursts, sheds, quota exhaustions and breaker trips. The mix is
//! six tenants on a 4×V100 pool:
//!
//! * `premium`  — steady Premium stream, weight 4;
//! * `std-a`/`std-b` — steady Standard streams, weight 2;
//! * `batch`    — BestEffort trickle, weight 1;
//! * `metered`  — Standard stream behind a small refilling token
//!   bucket, so quota exhaustion shows up in the taxonomy;
//! * `burster`  — the adversary: BestEffort, weight 1, releasing its
//!   whole allotment in instantaneous waves against a bounded
//!   shed-oldest queue.
//!
//! Device 1 carries a seeded transient-fault schedule dense enough to
//! trip its circuit breaker, so quarantine → probe → re-admit cycles
//! run under load. Runs use the shell's model-only mode (numerics are
//! covered by `verify` and the pipeline test suites).

use std::sync::Arc;

use gpusim::{FaultPlan, Gpu};
use mdls_matrix::HostMat;
use mdls_obs::metrics::Metrics;
use mdls_obs::Recorder;
use mdls_pipeline::{
    serve, Backpressure, BreakerConfig, DevicePool, ExecutionMode, Job, OverloadConfig, Planner,
    ServiceConfig, ServicePolicy, ServiceReport, SloClass, TenantId, TenantSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tables::TextTable;

/// Seed of the job-matrix entries.
const JOB_SEED: u64 = 0x5e41ce;
/// Seed of device 1's transient-fault schedule.
const TRANSIENT_SEED: u64 = 0xb4ea6e4;
/// Pool size: the paper's 4-GPU node.
const DEVICES: usize = 4;
/// Burster wave size: this many jobs land at one instant.
const WAVE: usize = 200;

pub struct ServiceWorkload {
    pub jobs: Vec<Job>,
    pub specs: Vec<TenantSpec>,
}

/// Build the seeded six-tenant workload. `count` is the total job
/// count across all tenants; arrival spacing is derived from the cost
/// model so the steady tenants offer ~75% of pool capacity and the
/// burster's waves push past it.
pub fn service_workload(count: usize) -> ServiceWorkload {
    let planner = Planner::new();
    let gpu = Gpu::v100();
    let c25 = planner.plan_fused(&gpu, 8, 8, 25, 1).1.predicted_ms;
    let c40 = planner.plan_fused(&gpu, 8, 8, 40, 1).1.predicted_ms;
    // steady cost per block of 10 jobs (8 steady + 2 burster):
    // 2×premium(40) + 3×std(25) + 1×std(40) + 1×batch(25) + 1×metered(25)
    let block_cost = 3.0 * c40 + 5.0 * c25;
    // block period sized so the steady streams use 75% of the pool
    let period = block_cost / (DEVICES as f64 * 0.75);
    // a burster wave lands every WAVE/2 blocks (2 burst jobs per block)
    let wave_gap = period * (WAVE / 2) as f64;

    let mut rng = StdRng::seed_from_u64(JOB_SEED);
    let mut jobs = Vec::with_capacity(count);
    for i in 0..count {
        let block = (i / 10) as f64;
        let (tenant, slo, digits, release) = match i % 10 {
            0 | 1 => (1, SloClass::Premium, 40, block * period),
            2..=4 => (2, SloClass::Standard, 25, block * period),
            5 => (3, SloClass::Standard, 40, (block + 0.5) * period),
            6 => (4, SloClass::BestEffort, 25, block * period),
            7 => (6, SloClass::Standard, 25, block * period),
            // the adversary: everything in instantaneous waves
            _ => (
                5,
                SloClass::BestEffort,
                25,
                (i / (WAVE * 5)) as f64 * wave_gap,
            ),
        };
        let n = 8;
        let a = HostMat::<f64>::from_fn(n, n, |r, c| {
            let u: f64 = multidouble::random::rand_real(&mut rng);
            u + if r == c { 4.0 } else { 0.0 }
        });
        let b: Vec<f64> = (0..n)
            .map(|_| multidouble::random::rand_real(&mut rng))
            .collect();
        jobs.push(
            Job::new(i as u64, a, b, digits)
                .with_tenant(TenantId(tenant))
                .with_slo(slo)
                .with_release_ms(release),
        );
    }
    let specs = vec![
        TenantSpec::new(TenantId(1), "premium")
            .with_weight(4)
            .with_queue(512, Backpressure::Block),
        TenantSpec::new(TenantId(2), "std-a")
            .with_weight(2)
            .with_queue(512, Backpressure::Block),
        TenantSpec::new(TenantId(3), "std-b")
            .with_weight(2)
            .with_queue(512, Backpressure::Block),
        TenantSpec::new(TenantId(4), "batch").with_queue(512, Backpressure::Block),
        // the burster gets a bounded shed-oldest queue: waves overflow
        // it and the overflow is shed at the door, not queued forever
        TenantSpec::new(TenantId(5), "burster").with_queue(WAVE / 2, Backpressure::ShedOldest),
        // a token bucket covering a burst of ~15 jobs, refilling at a
        // third of the tenant's steady spend (~30·c25/s at the
        // saturated pool's real block period): the bucket runs dry,
        // the tenant is metered down to its paid-for rate, and the
        // overflow starves
        TenantSpec::new(TenantId(6), "metered")
            .with_weight(2)
            .with_queue(512, Backpressure::Block)
            .with_quota(15.0 * c25, 10.0 * c25),
    ];
    ServiceWorkload { jobs, specs }
}

/// The service configuration both arms share: model-only execution,
/// overload thresholds derived from the cost model, and a breaker
/// tuned to trip on device 1's seeded transient schedule.
fn service_cfg(policy: ServicePolicy) -> ServiceConfig {
    let c25 = Planner::new()
        .plan_fused(&Gpu::v100(), 8, 8, 25, 1)
        .1
        .predicted_ms;
    ServiceConfig {
        policy,
        mode: ExecutionMode::ModelOnly,
        // degrade past ~60 queued jobs per device, shed past ~120
        overload: OverloadConfig::thresholds(60.0 * c25, 120.0 * c25),
        breaker: BreakerConfig {
            enabled: true,
            window_ms: 8.0 * c25,
            max_faults: 3,
            backoff_ms: 20.0 * c25,
        },
    }
}

/// One service arm. `observe` attaches a recorder and folds the event
/// stream into [`Metrics`] — skipped for the full-size bench, where
/// recording millions of events would dominate the run.
fn run_arm(w: &ServiceWorkload, policy: ServicePolicy, observe: bool) -> (ServiceReport, Metrics) {
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), DEVICES);
    let horizon = w.jobs.iter().map(|j| j.release()).fold(0.0f64, f64::max) * 1.5 + 100.0;
    pool.set_fault_plan(
        1,
        FaultPlan::seeded(
            TRANSIENT_SEED,
            horizon,
            service_cfg(policy).breaker.window_ms / 8.0,
        ),
    );
    let recorder = observe.then(|| {
        let r = Arc::new(Recorder::new());
        pool.attach_observer(r.clone());
        r
    });
    let report = serve(&mut pool, &w.jobs, &w.specs, &service_cfg(policy));
    let metrics = recorder
        .map(|r| Metrics::from_events(&r.events()))
        .unwrap_or_default();
    (report, metrics)
}

/// The service A/B table: per-tenant completion/shed/degrade taxonomy
/// and latency tails under weighted-fair scheduling, with the FIFO
/// baseline's p99 alongside, plus a breaker row per quarantined
/// device.
pub fn service_table(count: usize) -> TextTable {
    let w = service_workload(count);
    let (fair, _) = run_arm(&w, ServicePolicy::WeightedFair, false);
    let (fifo, _) = run_arm(&w, ServicePolicy::Fifo, false);
    let mut t = TextTable::new(
        format!(
            "Service A/B: {} jobs, 6 tenants (burster waves of {}) on {} V100s — \
             weighted-fair vs FIFO (per-tenant taxonomy, turnaround tails, \
             breaker trips on the flaky device)",
            w.jobs.len(),
            WAVE,
            DEVICES
        ),
        "tenant",
    );
    t.col("submitted")
        .col("completed")
        .col("shed")
        .col("degraded")
        .col("quota dry")
        .col("p50 ms")
        .col("p99 ms")
        .col("p999 ms")
        .col("fifo p99 ms");
    for ts in &fair.tenants {
        let fifo_p99 = fifo
            .tenants
            .iter()
            .find(|f| f.tenant == ts.tenant)
            .map(|f| f.p99_ms)
            .unwrap_or(f64::NAN);
        t.row(
            ts.name,
            vec![
                format!("{}", ts.submitted),
                format!("{}", ts.completed),
                format!("{}", ts.shed),
                format!("{}", ts.degraded),
                format!("{}", ts.quota_exhaustions),
                format!("{:.3}", ts.p50_ms),
                format!("{:.3}", ts.p99_ms),
                format!("{:.3}", ts.p999_ms),
                format!("{:.3}", fifo_p99),
            ],
        );
    }
    for b in fair.breakers.iter().filter(|b| b.opens > 0) {
        t.row(
            "breaker",
            vec![
                format!("device {}", b.device),
                format!("opens {}", b.opens),
                format!("probes {}", b.probes),
                format!("closes {}", b.closes),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ],
        );
    }
    t
}

/// Machine-readable service results (the `target/bench-service.json`
/// payload): the weighted-fair vs FIFO premium-tenant tails, the full
/// per-tenant/per-class taxonomy of the weighted-fair arm, and the
/// breaker counters.
pub fn service_json(count: usize) -> String {
    let w = service_workload(count);
    let (fair, _) = run_arm(&w, ServicePolicy::WeightedFair, false);
    let (fifo, _) = run_arm(&w, ServicePolicy::Fifo, false);
    let fifo_p99 = |id: TenantId| {
        fifo.tenants
            .iter()
            .find(|t| t.tenant == id)
            .map(|t| t.p99_ms)
            .unwrap_or(0.0)
    };
    let tenants: Vec<String> = fair
        .tenants
        .iter()
        .map(|t| {
            let classes: Vec<String> = t
                .classes
                .iter()
                .map(|c| {
                    format!(
                        "{{\"class\":\"{}\",\"submitted\":{},\"completed\":{},\
                         \"shed\":{},\"degraded\":{},\"p50_ms\":{:.6},\
                         \"p99_ms\":{:.6},\"p999_ms\":{:.6}}}",
                        c.class.tag(),
                        c.submitted,
                        c.completed,
                        c.shed,
                        c.degraded,
                        c.p50_ms,
                        c.p99_ms,
                        c.p999_ms,
                    )
                })
                .collect();
            format!(
                "{{\"tenant\":{},\"name\":\"{}\",\"submitted\":{},\
                 \"completed\":{},\"shed\":{},\"rejected\":{},\"degraded\":{},\
                 \"retried\":{},\"quota_exhaustions\":{},\"p50_ms\":{:.6},\
                 \"p99_ms\":{:.6},\"p999_ms\":{:.6},\"fifo_p99_ms\":{:.6},\
                 \"classes\":[{}]}}",
                t.tenant.0,
                t.name,
                t.submitted,
                t.completed,
                t.shed,
                t.rejected,
                t.degraded,
                t.retried,
                t.quota_exhaustions,
                t.p50_ms,
                t.p99_ms,
                t.p999_ms,
                fifo_p99(t.tenant),
                classes.join(","),
            )
        })
        .collect();
    let breakers: Vec<String> = fair
        .breakers
        .iter()
        .map(|b| {
            format!(
                "{{\"device\":{},\"opens\":{},\"probes\":{},\"closes\":{}}}",
                b.device, b.opens, b.probes, b.closes
            )
        })
        .collect();
    format!(
        "{{\"jobs\":{},\"devices\":{},\"wf_makespan_ms\":{:.6},\
         \"fifo_makespan_ms\":{:.6},\"tenants\":[{}],\"breakers\":[{}]}}",
        w.jobs.len(),
        DEVICES,
        fair.makespan_ms,
        fifo.makespan_ms,
        tenants.join(","),
        breakers.join(","),
    )
}

/// The CI smoke contract: on a small seeded workload, weighted-fair
/// must strictly beat FIFO on the premium tenant's p99 turnaround, the
/// burster must be shed at its bounded queue without starving anyone
/// else of completions, the metered tenant must run dry at least once,
/// the flaky device's breaker must complete at least one open → probe
/// → close cycle, the run must be deterministic, and the JSON payload
/// must round-trip through the reader.
pub fn service_smoke() -> Result<String, String> {
    let w = service_workload(4000);
    let (fair, m) = run_arm(&w, ServicePolicy::WeightedFair, true);
    let (fifo, _) = run_arm(&w, ServicePolicy::Fifo, false);
    let (again, _) = run_arm(&w, ServicePolicy::WeightedFair, false);

    if fair.outcomes.len() != w.jobs.len() {
        return Err("an outcome went missing".into());
    }
    if fair.makespan_ms.to_bits() != again.makespan_ms.to_bits() {
        return Err("weighted-fair arm is not deterministic across runs".into());
    }
    let tenant = |r: &ServiceReport, id: u32| {
        r.tenants
            .iter()
            .find(|t| t.tenant == TenantId(id))
            .cloned()
            .ok_or_else(|| format!("tenant {id} missing from the report"))
    };
    let premium = tenant(&fair, 1)?;
    let premium_fifo = tenant(&fifo, 1)?;
    if premium.p99_ms >= premium_fifo.p99_ms {
        return Err(format!(
            "weighted fair ({:.3} ms) did not strictly beat FIFO ({:.3} ms) \
             on the premium tenant's p99",
            premium.p99_ms, premium_fifo.p99_ms
        ));
    }
    let burster = tenant(&fair, 5)?;
    if burster.shed == 0 {
        return Err("the burster's bounded queue shed nothing; the waves never bit".into());
    }
    for id in [1u32, 2, 3, 4] {
        let t = tenant(&fair, id)?;
        if t.completed == 0 {
            return Err(format!("tenant {} completed nothing", t.name));
        }
    }
    if tenant(&fair, 6)?.quota_exhaustions == 0 {
        return Err("the metered tenant never ran dry".into());
    }
    let b1 = fair.breakers[1];
    if b1.opens == 0 || b1.probes == 0 || b1.closes == 0 {
        return Err(format!(
            "breaker on device 1 did not complete a cycle: {} opens, {} probes, {} closes",
            b1.opens, b1.probes, b1.closes
        ));
    }
    if m.circuit_opens as usize != fair.breakers.iter().map(|b| b.opens).sum::<usize>() {
        return Err("event-folded breaker opens disagree with the report".into());
    }
    if m.tenant_latency.len() < w.specs.len() {
        return Err("per-tenant turnaround histograms are missing tenants".into());
    }
    let doc = service_json(4000);
    mdls_obs::json::parse(&doc).map_err(|e| format!("bench-service.json does not parse: {e}"))?;
    Ok(format!(
        "service smoke ok: premium p99 {:.3} ms (wf) vs {:.3} ms (fifo), \
         burster shed {}, {} quota exhaustions, breaker {}o/{}p/{}c",
        premium.p99_ms,
        premium_fifo.p99_ms,
        burster.shed,
        tenant(&fair, 6)?.quota_exhaustions,
        b1.opens,
        b1.probes,
        b1.closes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_and_json_is_complete() {
        let msg = service_smoke().expect("service smoke");
        assert!(msg.contains("premium"));
        let doc = mdls_obs::json::parse(&service_json(1000)).expect("service json parses");
        let tenants = doc
            .get("tenants")
            .and_then(mdls_obs::json::Json::as_arr)
            .expect("tenants array");
        assert_eq!(tenants.len(), 6);
        for t in tenants {
            let submitted = t
                .get("submitted")
                .and_then(mdls_obs::json::Json::as_f64)
                .expect("submitted");
            assert!(submitted > 0.0);
        }
    }
}

//! The four benchmark workloads. Each is generated from the run's seed,
//! runs in *passes* of a fixed amount of work, and checks every output
//! it produces.
//!
//! A pass returns the host time of each operation, the simulated
//! results it observed, a digest of the solution bits and a fingerprint
//! of every simulated value. The first passes of a run supply the
//! simulated metrics; replaying pass 0 at the end of the run must
//! reproduce its fingerprint exactly.

use std::sync::Arc;

use gpusim::{ExecMode, FaultPlan, Gpu, Profile, Sim};
use mdls_core::{lstsq_factor, residual_kernel, LstsqOptions};
use mdls_matrix::{random_vector, vec_norm2, HostMat};
use mdls_obs::Recorder;
use mdls_pipeline::{
    bursty_tracker_jobs, serve, solve_batch, solve_stream_admitted, tracker_jobs, AdmissionConfig,
    Backpressure, BatchReport, BreakerConfig, DevicePool, DispatchPolicy, Disposition,
    ExecutionMode, Job, JobOutcome, MicrobatchConfig, OverloadConfig, Planner, ServiceConfig,
    ServicePolicy, ServiceReport, SloClass, StageSchedConfig, TenantId, TenantSpec,
};
use mdls_qr::QrOptions;
use multidouble::random::rand_real;
use multidouble::{Dd, MdReal, MdScalar, Od, Qd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::CpuTime;
use crate::stats::Digest;
use crate::trace::Tracer;

pub const NAMES: [&str; 4] = [
    "paper-solve",
    "tracker-batch",
    "tracker-stream",
    "service-burst",
];

/// An independent generator stream for `seed` and a path of indices
/// (what the stream is for, pass, position in the pass).
pub fn rng_for(seed: u64, path: &[u64]) -> StdRng {
    let mut d = Digest::default();
    d.u64(seed);
    for &i in path {
        d.u64(i);
    }
    StdRng::seed_from_u64(d.value())
}

/// Pass index of the set-up's warm-up inputs, apart from every timed
/// pass.
const WARM_PASS: u64 = u64::MAX;
/// Seed of the pipeline workloads' warm-up batches: a warm-up is a
/// fixed amount of work, so `setup_s` does not vary with the run's seed.
const WARM_SEED: u64 = 0;

/// Simulated results of one pass.
#[derive(Clone, Debug, Default)]
pub struct SimOut {
    /// Simulated time at which the pass's last job completes, ms.
    pub makespan_ms: f64,
    /// Table 1 flops and simulated kernel time of the completed work.
    pub flops: f64,
    pub kernel_ms: f64,
    /// Turnaround of every completed job, ms.
    pub turnaround_ms: Vec<f64>,
    /// Turnaround of the workload's highest class, ms.
    pub premium_ms: Vec<f64>,
    /// Jobs carrying a deadline, and those of them that missed it or
    /// were shed.
    pub deadlined: usize,
    pub deadline_missed: usize,
    /// Certified jobs that completed past their deadline.
    pub late: usize,
    /// Jobs submitted, and those that failed, were shed or rejected, or
    /// completed without certifying their digits.
    pub jobs: usize,
    pub jobs_failed: usize,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Host wall time of each operation, ms.
    pub op_ms: Vec<f64>,
    /// Correctness violations, one line each; an operation with any is
    /// counted as failed.
    pub violations: Vec<String>,
    pub failed_ops: usize,
    pub sim: SimOut,
    /// Hash of the solution bits.
    pub digest: Digest,
    /// Hash of every simulated value, count and solution bit.
    pub fingerprint: Digest,
}

impl SimOut {
    /// Append another pass, run after this one.
    pub fn absorb(&mut self, o: &SimOut) {
        self.makespan_ms += o.makespan_ms;
        self.flops += o.flops;
        self.kernel_ms += o.kernel_ms;
        self.turnaround_ms.extend_from_slice(&o.turnaround_ms);
        self.premium_ms.extend_from_slice(&o.premium_ms);
        self.deadlined += o.deadlined;
        self.deadline_missed += o.deadline_missed;
        self.late += o.late;
        self.jobs += o.jobs;
        self.jobs_failed += o.jobs_failed;
    }
}

impl PassOut {
    /// Jobs completed and certified.
    pub fn certified(&self) -> usize {
        self.sim.jobs - self.sim.jobs_failed
    }
}

pub trait Workload {
    /// Run pass `p`. With `rec` given, the pass's pools report their
    /// events to it.
    fn pass(&mut self, p: u64, tr: &mut Tracer, rec: Option<&Arc<Recorder>>) -> PassOut;

    /// Passes, from the first, whose simulated results make up the
    /// simulated metrics: enough jobs that the tails and rates move
    /// little from one seed to the next.
    fn sim_passes(&self) -> usize {
        16
    }
}

/// Generate the workload, build what it needs and warm it up. This is
/// the part of a run that `setup_s` times.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-solve" => Box::new(PaperSolve::new(seed)),
        "tracker-batch" => Box::new(TrackerBatch::new(seed)),
        "tracker-stream" => Box::new(TrackerStream::new(seed)),
        "service-burst" => Box::new(ServiceBurst::new(seed)),
        _ => return None,
    })
}

fn ms_since(t: CpuTime) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// paper-solve: functional lstsq at dd, qd and od on one V100
// ---------------------------------------------------------------------

/// One cycle of the paper-solve loop: (limbs, tiles, tile size). Each
/// system is tall by a seeded 1 to n/8 rows: at least one, so every
/// system pays the same partially filled row block and the simulated
/// times, tails included, move smoothly with the seed.
const PAPER_CYCLE: [(usize, usize, usize); 3] = [(2, 2, 32), (4, 2, 16), (8, 2, 8)];
/// Cycles per pass.
const PAPER_CYCLES: usize = 4;

enum System {
    Dd(HostMat<Dd>, Vec<Dd>),
    Qd(HostMat<Qd>, Vec<Qd>),
    Od(HostMat<Od>, Vec<Od>),
}

struct PaperSystem {
    sys: System,
    opts: LstsqOptions,
    /// Table 1 flops of the factorization, from the model-only
    /// launch sequence at the same shape.
    model_qr_flops: f64,
}

struct PaperSolve {
    gpu: Gpu,
    systems: Vec<PaperSystem>,
}

/// Relative residual tolerance of a well-posed solve at each rung.
fn tolerance(limbs: usize) -> f64 {
    match limbs {
        2 => 1e-26,
        4 => 1e-56,
        _ => 1e-115,
    }
}

pub fn make_system<S: MdScalar>(
    rows: usize,
    cols: usize,
    rng: &mut StdRng,
) -> (HostMat<S>, Vec<S>) {
    let a = HostMat::<S>::random(rows, cols, rng);
    let xt: Vec<S> = random_vector(cols, rng);
    let b = a.matvec(&xt);
    (a, b)
}

/// One solve and its check: the operation is `lstsq_factor` then
/// `solve` (exactly what `lstsq` does), each in a span of its own; the
/// residual is then recomputed on the device with `residual_kernel`.
fn paper_op<S: MdScalar>(
    gpu: &Gpu,
    a: &HostMat<S>,
    b: &[S],
    ps: &PaperSystem,
    op: u64,
    tr: &mut Tracer,
    out: &mut PassOut,
) {
    let span = tr.enter("op", "bench", op);
    let t = CpuTime::now();
    let s = tr.enter("lstsq_factor", "qr", op);
    let f = lstsq_factor(gpu, a, &ps.opts);
    tr.exit(s);
    let s = tr.enter("solve", "backsub", op);
    let (x, bs) = f.solve(b);
    tr.exit(s);
    let op_ms = ms_since(t);
    let qr = f.factor_profile().clone();
    out.op_ms.push(op_ms);

    let s = tr.enter("residual_kernel", "core", op);
    let sim = Sim::new(gpu.clone(), ExecMode::Sequential);
    let da = sim.alloc_mat::<S>(a.rows, a.cols);
    a.upload_to(&da);
    let dx = sim.alloc_vec::<S>(a.cols);
    dx.upload(&x);
    let db = sim.alloc_vec::<S>(a.rows);
    db.upload(b);
    let dr = sim.alloc_vec::<S>(a.rows);
    residual_kernel(&sim, &da, &dx, &db, &dr, ps.opts.tile_size);
    let residual = vec_norm2(&dr.download()).to_f64() / vec_norm2(b).to_f64();
    tr.exit(s);

    let limbs = <S::Real as MdReal>::LIMBS;
    let before = out.violations.len();
    if residual.is_nan() || residual > tolerance(limbs) {
        out.violations.push(format!(
            "paper-solve op {op}: {}d {}x{} residual {residual:e} above {:e}",
            limbs,
            a.rows,
            a.cols,
            tolerance(limbs)
        ));
    }
    let paper = S::paper_cost();
    if let Some(st) = qr
        .stages()
        .iter()
        .find(|st| st.flops_paper != st.ops.flops(&paper))
    {
        out.violations.push(format!(
            "paper-solve op {op}: stage '{}' books {} flops, Table 1 gives {}",
            st.name,
            st.flops_paper,
            st.ops.flops(&paper)
        ));
    }
    if qr.total_flops_paper() != ps.model_qr_flops {
        out.violations.push(format!(
            "paper-solve op {op}: QR books {} flops, the model-only launch sequence {}",
            qr.total_flops_paper(),
            ps.model_qr_flops
        ));
    }
    if out.violations.len() > before {
        out.failed_ops += 1;
        out.sim.jobs_failed += 1;
    }

    let mut total = qr.clone();
    total.absorb(&bs);
    let wall = total.wall_ms();
    out.sim.jobs += 1;
    out.sim.makespan_ms += wall;
    out.sim.flops += total.total_flops_paper();
    out.sim.kernel_ms += total.all_kernels_ms();
    // one caller, the pass's solves due together at its start and run
    // one after another: a solve's turnaround runs to its completion
    out.sim.turnaround_ms.push(out.sim.makespan_ms);
    out.sim.premium_ms.push(out.sim.makespan_ms);
    profile_fingerprint(&mut out.fingerprint, &total);
    let mut sol = Digest::default();
    sol.reals(&x.iter().map(|v| v.re()).collect::<Vec<_>>());
    out.digest.u64(sol.value());
    out.fingerprint.u64(sol.value());
    tr.exit(span);
}

fn profile_fingerprint(fp: &mut Digest, p: &Profile) {
    for st in p.stages() {
        fp.f64(st.kernel_ms);
        fp.u64(st.launches);
        fp.f64(st.flops_paper);
        fp.u64(st.bytes);
    }
    fp.f64(p.wall_ms());
}

/// The systems of one paper-solve pass, `(limbs, rows, tiles, tile
/// size)`, and the generator each one's entries come from.
pub fn paper_specs(seed: u64) -> Vec<((usize, usize, usize, usize), StdRng)> {
    let mut specs = Vec::new();
    for cycle in 0..PAPER_CYCLES {
        for (i, &(limbs, tiles, tile)) in PAPER_CYCLE.iter().enumerate() {
            let mut rng = rng_for(seed, &[1, cycle as u64, i as u64]);
            let cols = tiles * tile;
            let rows = cols + 1 + rng.random_range(0.0..(cols / 8) as f64) as usize;
            specs.push(((limbs, rows, tiles, tile), rng));
        }
    }
    specs
}

impl PaperSolve {
    fn new(seed: u64) -> PaperSolve {
        let gpu = Gpu::v100();
        let mut systems = Vec::new();
        for ((limbs, rows, tiles, tile), mut rng) in paper_specs(seed) {
            let cols = tiles * tile;
            let opts = LstsqOptions::tiled(tiles, tile, ExecMode::Sequential);
            let qr_opts = QrOptions {
                tiles,
                tile_size: tile,
            };
            let (sys, model_qr_flops) = match limbs {
                2 => {
                    let (a, b) = make_system::<Dd>(rows, cols, &mut rng);
                    let f = mdls_qr::qr_model_profile::<Dd>(&gpu, rows, &qr_opts);
                    (System::Dd(a, b), f.total_flops_paper())
                }
                4 => {
                    let (a, b) = make_system::<Qd>(rows, cols, &mut rng);
                    let f = mdls_qr::qr_model_profile::<Qd>(&gpu, rows, &qr_opts);
                    (System::Qd(a, b), f.total_flops_paper())
                }
                _ => {
                    let (a, b) = make_system::<Od>(rows, cols, &mut rng);
                    let f = mdls_qr::qr_model_profile::<Od>(&gpu, rows, &qr_opts);
                    (System::Od(a, b), f.total_flops_paper())
                }
            };
            systems.push(PaperSystem {
                sys,
                opts,
                model_qr_flops,
            });
        }
        let w = PaperSolve { gpu, systems };
        // warm-up: one solve per rung, outside any pass
        let mut tr = Tracer::new(false);
        let mut out = PassOut::default();
        for ps in &w.systems[..PAPER_CYCLE.len()] {
            w.run(ps, WARM_PASS, &mut tr, &mut out);
        }
        w
    }

    fn run(&self, ps: &PaperSystem, op: u64, tr: &mut Tracer, out: &mut PassOut) {
        match &ps.sys {
            System::Dd(a, b) => paper_op(&self.gpu, a, b, ps, op, tr, out),
            System::Qd(a, b) => paper_op(&self.gpu, a, b, ps, op, tr, out),
            System::Od(a, b) => paper_op(&self.gpu, a, b, ps, op, tr, out),
        }
    }
}

impl Workload for PaperSolve {
    /// Simulated times do not depend on the data, and one pass holds
    /// every shape of the seed.
    fn sim_passes(&self) -> usize {
        1
    }

    fn pass(&mut self, p: u64, tr: &mut Tracer, _rec: Option<&Arc<Recorder>>) -> PassOut {
        let mut out = PassOut::default();
        for (i, ps) in self.systems.iter().enumerate() {
            let op = p * self.systems.len() as u64 + i as u64;
            self.run(ps, op, tr, &mut out);
        }
        out
    }
}

// ---------------------------------------------------------------------
// shared pipeline bookkeeping
// ---------------------------------------------------------------------

/// True when a completed outcome's residual certifies the digits it
/// was asked for — or, when admission down-laddered it, the degraded
/// rung its plan carries.
fn certifies(o: &JobOutcome) -> bool {
    let need = if o.disposition == Disposition::Degraded {
        o.plan.target_digits
    } else {
        o.requested_digits
    };
    o.disposition.completed() && o.achieved_digits >= need as f64
}

/// Fold pipeline outcomes into a pass: simulated results, digest and
/// fingerprint. `functional` outcomes must certify their digits;
/// model-only ones carry no solution and count when they complete.
/// Returns the number of uncertified completed outcomes.
fn absorb_outcomes(
    out: &mut PassOut,
    outcomes: &[JobOutcome],
    functional: bool,
    premium: impl Fn(&JobOutcome) -> bool,
) -> usize {
    let mut uncertified = 0;
    for o in outcomes {
        let done = o.disposition.completed();
        let ok = done && (!functional || certifies(o));
        out.sim.jobs += 1;
        if !ok {
            out.sim.jobs_failed += 1;
        }
        if done && !ok {
            uncertified += 1;
        }
        if done {
            let t = o.turnaround_ms();
            out.sim.turnaround_ms.push(t);
            if premium(o) {
                out.sim.premium_ms.push(t);
            }
            out.sim.flops += o.plan.flops_paper;
            out.sim.kernel_ms += o.plan.predicted_kernel_ms;
        }
        if o.deadline_ms.is_some() {
            out.sim.deadlined += 1;
            if o.missed_deadline() || o.disposition == Disposition::Shed {
                out.sim.deadline_missed += 1;
            }
        }
        if ok && o.missed_deadline() {
            out.sim.late += 1;
        }
        let mut sol = Digest::default();
        sol.u64(o.job_id);
        sol.solution(&o.x);
        out.digest.u64(sol.value());
        let fp = &mut out.fingerprint;
        fp.u64(sol.value());
        fp.u64(o.device as u64);
        fp.f64(o.start_ms);
        fp.f64(o.end_ms);
        fp.u64(o.fused_group as u64);
        fp.u64(o.corrections_run as u64);
        fp.u64(o.disposition as u64);
        fp.f64(o.achieved_digits);
        fp.f64(o.refunded_ms);
        fp.f64(o.extended_ms);
    }
    uncertified
}

/// Fresh right hand sides for the same matrices: `b = A x` for a new
/// small-integer `x`, exact in `f64` like the generator's own.
fn with_fresh_rhs(jobs: &[Job], rng: &mut StdRng) -> Vec<Job> {
    jobs.iter()
        .map(|j| {
            let x: Vec<f64> = (0..j.cols())
                .map(|_| (rand_real::<f64, _>(rng) * 8.0).round())
                .collect();
            let mut k = j.clone();
            k.b = j.a.matvec(&x);
            k
        })
        .collect()
}

// ---------------------------------------------------------------------
// tracker-batch: repeated solve_batch calls on 4×V100
// ---------------------------------------------------------------------

/// Jobs per `solve_batch` call.
const BATCH_JOBS: usize = 64;
/// Calls per pass: pairs of (fresh batch, same matrices with fresh
/// right hand sides).
const BATCH_PAIRS: usize = 8;

struct TrackerBatch {
    seed: u64,
}

/// The `k`-th pair of batches of pass `p`.
pub fn batch_pair(seed: u64, p: u64, k: usize) -> (Vec<Job>, Vec<Job>) {
    let mut rng = rng_for(seed, &[2, p, k as u64]);
    let fresh = tracker_jobs(BATCH_JOBS, &mut rng);
    let shared = with_fresh_rhs(&fresh, &mut rng);
    (fresh, shared)
}

impl TrackerBatch {
    fn new(seed: u64) -> TrackerBatch {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
        let (warm, _) = batch_pair(WARM_SEED, WARM_PASS, 0);
        let _ = solve_batch(&mut pool, &warm);
        TrackerBatch { seed }
    }
}

/// Check one batch report and fold it into the pass; the batch's jobs
/// were released together when the previous call returned.
fn absorb_batch(out: &mut PassOut, report: &BatchReport) {
    let before = out.sim.makespan_ms;
    let uncertified = absorb_outcomes(out, &report.outcomes, true, |o| o.priority > 0);
    let fp = &mut out.fingerprint;
    // closed loop: calls run back to back on the simulated clock
    out.sim.makespan_ms = before + report.makespan_ms;
    fp.f64(report.makespan_ms);
    fp.u64(report.fused_groups as u64);
    fp.u64(report.plan_cache.hits);
    fp.u64(report.plan_cache.misses);
    if uncertified > 0 {
        out.failed_ops += 1;
        out.violations.push(format!(
            "tracker-batch: {uncertified} completed jobs did not certify their digits"
        ));
    }
}

impl Workload for TrackerBatch {
    fn pass(&mut self, p: u64, tr: &mut Tracer, rec: Option<&Arc<Recorder>>) -> PassOut {
        let mut out = PassOut::default();
        let s = tr.enter("new", "pipeline::pool", p);
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 4);
        if let Some(r) = rec {
            pool.attach_observer(r.clone());
        }
        tr.exit(s);
        for k in 0..BATCH_PAIRS {
            let s = tr.enter("tracker_jobs", "pipeline::workload", p);
            let (fresh, shared) = batch_pair(self.seed, p, k);
            tr.exit(s);
            for (half, jobs) in [fresh, shared].iter().enumerate() {
                let op = (p * BATCH_PAIRS as u64 + k as u64) * 2 + half as u64;
                let span = tr.enter("op", "bench", op);
                pool.reset();
                let s = tr.enter("solve_batch", "pipeline::batch", op);
                let t = CpuTime::now();
                let report = solve_batch(&mut pool, jobs);
                out.op_ms.push(ms_since(t));
                tr.exit(s);
                absorb_batch(&mut out, &report);
                tr.exit(span);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// tracker-stream: bursty arrivals through the admitted stream, SECT,
// 2×V100 + 2×P100
// ---------------------------------------------------------------------

/// Jobs per stream pass, arriving in bursts of `STREAM_BURST` every
/// `STREAM_GAP_MS` simulated ms: near the mixed pool's saturation, so a
/// minority of corrector deadlines is at risk.
pub const STREAM_JOBS: usize = 1024;
const STREAM_BURST: usize = 6;
const STREAM_GAP_MS: f64 = 22.0;
/// Reorder-buffer window of the stream.
const STREAM_WINDOW: usize = 8;

pub fn stream_pool() -> DevicePool {
    DevicePool::new(vec![Gpu::v100(), Gpu::v100(), Gpu::p100(), Gpu::p100()])
}

pub fn stream_jobs(seed: u64, p: u64, count: usize) -> Vec<Job> {
    let mut rng = rng_for(seed, &[3, p]);
    bursty_tracker_jobs(count, STREAM_BURST, STREAM_GAP_MS, &mut rng)
}

/// Run one admitted stream over `jobs`, timing every `next()`.
pub fn run_stream(
    pool: &mut DevicePool,
    jobs: Vec<Job>,
    tr: &mut Tracer,
    first_op: u64,
    op_ms: &mut Vec<f64>,
) -> Vec<JobOutcome> {
    let mut stream = solve_stream_admitted(
        pool,
        jobs,
        DispatchPolicy::ShortestExpectedCompletion,
        STREAM_WINDOW,
        MicrobatchConfig::default(),
        StageSchedConfig::staged(),
        AdmissionConfig::default(),
    );
    let mut outcomes = Vec::new();
    loop {
        let s = tr.enter("next", "pipeline::stream", first_op + outcomes.len() as u64);
        let t = CpuTime::now();
        let next = stream.next();
        let ms = ms_since(t);
        tr.exit(s);
        match next {
            Some(o) => {
                op_ms.push(ms);
                outcomes.push(o);
            }
            None => break,
        }
    }
    outcomes
}

struct TrackerStream {
    seed: u64,
}

impl TrackerStream {
    fn new(seed: u64) -> TrackerStream {
        let mut pool = stream_pool();
        let warm = stream_jobs(WARM_SEED, WARM_PASS, 64);
        let _ = run_stream(&mut pool, warm, &mut Tracer::new(false), 0, &mut Vec::new());
        TrackerStream { seed }
    }
}

impl Workload for TrackerStream {
    fn pass(&mut self, p: u64, tr: &mut Tracer, rec: Option<&Arc<Recorder>>) -> PassOut {
        let mut out = PassOut::default();
        let s = tr.enter("bursty_tracker_jobs", "pipeline::workload", p);
        let jobs = stream_jobs(self.seed, p, STREAM_JOBS);
        tr.exit(s);
        let s = tr.enter("new", "pipeline::pool", p);
        let mut pool = stream_pool();
        if let Some(r) = rec {
            pool.attach_observer(r.clone());
        }
        tr.exit(s);
        let first_op = p * STREAM_JOBS as u64;
        let outcomes = run_stream(&mut pool, jobs, tr, first_op, &mut out.op_ms);
        let s = tr.enter("check", "bench", first_op);
        if outcomes.len() != STREAM_JOBS {
            out.failed_ops += 1;
            out.violations.push(format!(
                "tracker-stream: {} outcomes for {STREAM_JOBS} jobs",
                outcomes.len()
            ));
        }
        for o in &outcomes {
            if o.disposition.completed() && !certifies(o) {
                out.failed_ops += 1;
                out.violations.push(format!(
                    "tracker-stream: job {} ({}) certified {:.1} of {} digits",
                    o.job_id,
                    o.disposition.tag(),
                    o.achieved_digits,
                    o.requested_digits
                ));
            }
        }
        absorb_outcomes(&mut out, &outcomes, true, |o| o.priority > 0);
        out.sim.makespan_ms = outcomes.iter().map(|o| o.end_ms).fold(0.0, f64::max);
        tr.exit(s);
        out
    }
}

// ---------------------------------------------------------------------
// service-burst: model-only serve over the six-tenant mix, 4×V100
// ---------------------------------------------------------------------

/// Jobs per `serve` call — part of the workload's definition, since
/// the loop's per-job host cost grows with run length.
pub const SERVICE_JOBS: usize = 6000;
/// Burster wave size: this many jobs land at one instant.
const WAVE: usize = 200;
const SERVICE_DEVICES: usize = 4;
/// The premium tenant and the metered one.
const PREMIUM: TenantId = TenantId(1);
const METERED: TenantId = TenantId(6);

/// The six-tenant mix of the repository's service bench (premium, two
/// standard, batch, metered and an adversarial burster), with the
/// matrix entries and device 1's transient-fault schedule drawn from
/// the seed.
pub struct ServiceMix {
    pub jobs: Vec<Job>,
    pub specs: Vec<TenantSpec>,
    pub cfg: ServiceConfig,
    pub fault_seed: u64,
    pub horizon_ms: f64,
}

pub fn service_mix(seed: u64, count: usize) -> ServiceMix {
    let planner = Planner::new();
    let gpu = Gpu::v100();
    let c25 = planner.plan_fused(&gpu, 8, 8, 25, 1).1.predicted_ms;
    let c40 = planner.plan_fused(&gpu, 8, 8, 40, 1).1.predicted_ms;
    // steady tenants offer ~75% of the pool; burster waves push past it
    let period = (3.0 * c40 + 5.0 * c25) / (SERVICE_DEVICES as f64 * 0.75);
    let wave_gap = period * (WAVE / 2) as f64;
    let mut rng = rng_for(seed, &[4]);
    let jobs: Vec<Job> = (0..count)
        .map(|i| {
            let block = (i / 10) as f64;
            let (tenant, slo, digits, release) = match i % 10 {
                0 | 1 => (1, SloClass::Premium, 40, block * period),
                2..=4 => (2, SloClass::Standard, 25, block * period),
                5 => (3, SloClass::Standard, 40, (block + 0.5) * period),
                6 => (4, SloClass::BestEffort, 25, block * period),
                7 => (6, SloClass::Standard, 25, block * period),
                _ => (
                    5,
                    SloClass::BestEffort,
                    25,
                    (i / (WAVE * 5)) as f64 * wave_gap,
                ),
            };
            let n = 8;
            let a = HostMat::<f64>::from_fn(n, n, |r, c| {
                rand_real::<f64, _>(&mut rng) + if r == c { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n).map(|_| rand_real(&mut rng)).collect();
            Job::new(i as u64, a, b, digits)
                .with_tenant(TenantId(tenant))
                .with_slo(slo)
                .with_release_ms(release)
        })
        .collect();
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
        TenantSpec::new(TenantId(5), "burster").with_queue(WAVE / 2, Backpressure::ShedOldest),
        TenantSpec::new(METERED, "metered")
            .with_weight(2)
            .with_queue(512, Backpressure::Block)
            .with_quota(15.0 * c25, 10.0 * c25),
    ];
    let cfg = ServiceConfig {
        policy: ServicePolicy::WeightedFair,
        mode: ExecutionMode::ModelOnly,
        overload: OverloadConfig::thresholds(60.0 * c25, 120.0 * c25),
        breaker: BreakerConfig {
            enabled: true,
            window_ms: 8.0 * c25,
            max_faults: 3,
            backoff_ms: 20.0 * c25,
        },
        ..ServiceConfig::default()
    };
    let horizon_ms = jobs.iter().map(|j| j.release()).fold(0.0f64, f64::max) * 1.5 + 100.0;
    ServiceMix {
        jobs,
        specs,
        cfg,
        fault_seed: rng.random_range(0.0..1e15) as u64,
        horizon_ms,
    }
}

impl ServiceMix {
    /// A fresh 4×V100 pool with pass `p`'s seeded transient schedule
    /// on device 1.
    pub fn pool(&self, p: u64) -> DevicePool {
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), SERVICE_DEVICES);
        let mut seed = Digest::default();
        seed.u64(self.fault_seed);
        seed.u64(p);
        pool.set_fault_plan(
            1,
            FaultPlan::seeded(
                seed.value(),
                self.horizon_ms,
                self.cfg.breaker.window_ms / 8.0,
            ),
        );
        pool
    }

    /// The service mix's first `count` jobs, with the same tenants.
    pub fn prefix(&self, count: usize) -> ServiceMix {
        ServiceMix {
            jobs: self.jobs[..count].to_vec(),
            specs: self.specs.clone(),
            cfg: self.cfg,
            fault_seed: self.fault_seed,
            horizon_ms: self.horizon_ms,
        }
    }
}

/// Every submitted job has exactly one outcome, in submission order,
/// and the tenant summaries add up to the outcomes.
fn check_service(mix: &ServiceMix, report: &ServiceReport) -> Vec<String> {
    let mut v = Vec::new();
    if report.outcomes.len() != mix.jobs.len() {
        v.push(format!(
            "service-burst: {} outcomes for {} jobs",
            report.outcomes.len(),
            mix.jobs.len()
        ));
        return v;
    }
    for (j, o) in mix.jobs.iter().zip(&report.outcomes) {
        if o.job_id != j.id || o.tenant != j.tenant {
            v.push(format!(
                "service-burst: outcome {} out of submission order",
                o.job_id
            ));
            return v;
        }
    }
    let mut submitted = 0;
    for t in &report.tenants {
        let mine: Vec<&JobOutcome> = report
            .outcomes
            .iter()
            .filter(|o| o.tenant == t.tenant)
            .collect();
        let count = |d: Disposition| mine.iter().filter(|o| o.disposition == d).count();
        let completed = mine.iter().filter(|o| o.disposition.completed()).count();
        let expect = (
            mine.len(),
            completed,
            count(Disposition::Shed),
            count(Disposition::Degraded),
            count(Disposition::Retried),
        );
        let got = (t.submitted, t.completed, t.shed, t.degraded, t.retried);
        if expect != got
            || t.rejected > t.shed
            || completed + count(Disposition::Shed) + count(Disposition::Failed) != mine.len()
        {
            v.push(format!(
                "service-burst: tenant {} summary {got:?} does not match its outcomes {expect:?}",
                t.name
            ));
        }
        submitted += t.submitted;
    }
    if submitted != mix.jobs.len() {
        v.push(format!(
            "service-burst: tenants submitted {submitted} of {} jobs",
            mix.jobs.len()
        ));
    }
    v
}

/// The metered tenant's settled spend over what its bucket allows:
/// predicted device-ms of its completed jobs (priced on the reference
/// V100 as the service does, net of refunds and extensions) over
/// `burst + refill × elapsed`, elapsed running to its last completion.
pub fn metered_spend_ratio(mix: &ServiceMix, report: &ServiceReport) -> f64 {
    let Some(q) = mix
        .specs
        .iter()
        .find(|s| s.id == METERED)
        .and_then(|s| s.quota)
    else {
        return 0.0;
    };
    let planner = Planner::new();
    let gpu = Gpu::v100();
    let (mut spend, mut last) = (0.0, 0.0f64);
    for o in &report.outcomes {
        if o.tenant == METERED && o.disposition.completed() {
            let cost = planner
                .plan_fused(&gpu, 8, 8, o.plan.target_digits, 1)
                .1
                .predicted_ms;
            spend += cost - o.refunded_ms + o.extended_ms;
            last = last.max(o.end_ms);
        }
    }
    spend / (q.burst_ms + q.refill_per_s * last / 1000.0)
}

struct ServiceBurst {
    mix: ServiceMix,
}

impl ServiceBurst {
    fn new(seed: u64) -> ServiceBurst {
        let mix = service_mix(seed, SERVICE_JOBS);
        let _ = serve(&mut mix.pool(WARM_PASS), &mix.jobs, &mix.specs, &mix.cfg);
        ServiceBurst { mix }
    }
}

impl Workload for ServiceBurst {
    fn pass(&mut self, p: u64, tr: &mut Tracer, rec: Option<&Arc<Recorder>>) -> PassOut {
        let mut out = PassOut::default();
        let span = tr.enter("op", "bench", p);
        let s = tr.enter("new", "pipeline::pool", p);
        let mut pool = self.mix.pool(p);
        if let Some(r) = rec {
            pool.attach_observer(r.clone());
        }
        tr.exit(s);
        let s = tr.enter("serve", "pipeline::service", p);
        let t = CpuTime::now();
        let m = &self.mix;
        let report = serve(&mut pool, &m.jobs, &m.specs, &m.cfg);
        out.op_ms.push(ms_since(t));
        tr.exit(s);
        let violations = check_service(m, &report);
        if !violations.is_empty() {
            out.failed_ops += 1;
            out.violations.extend(violations);
        }
        absorb_outcomes(&mut out, &report.outcomes, false, |o| o.tenant == PREMIUM);
        out.sim.makespan_ms = report.makespan_ms;
        let fp = &mut out.fingerprint;
        fp.f64(report.makespan_ms);
        for t in &report.tenants {
            fp.u64(t.quota_exhaustions as u64);
            fp.u64(t.rejected as u64);
        }
        for b in &report.breakers {
            fp.u64(b.opens as u64);
            fp.u64(b.probes as u64);
            fp.u64(b.closes as u64);
        }
        tr.exit(span);
        out
    }
}

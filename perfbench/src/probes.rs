//! Per-layer probes: each times one layer through its public functions
//! after one untimed warm-up call, and reports the sample count, median
//! and quartiles. Costs a caller pays on every call stay in: a
//! `solve_batch` sample still builds its cold planner, and a cold-plan
//! sample builds a fresh `Planner`.

use std::hint::black_box;
use std::sync::Arc;

use gpusim::{DeviceBuf, ExecMode, Gpu, KernelCost, Profile, Sim};
use mdls_backsub::{backsub_model_profile, BacksubOptions};
use mdls_core::{lstsq_factor, residual_kernel, LstsqOptions};
use mdls_obs::metrics::Metrics;
use mdls_obs::Recorder;
use mdls_pipeline::{
    promoted_cache_stats, serve, solve_batch, solve_planned, DevicePool, Disposition, Planner,
    RebookMode, StageReq,
};
use mdls_qr::{qr_model_profile, QrOptions};
use multidouble::random::rand_real;
use multidouble::{Dd, MdReal, MdScalar, Od, OpCounts, Qd};
use rand::Rng;

use crate::clock::CpuTime;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{
    batch_pair, make_system, metered_spend_ratio, paper_specs, rng_for, run_stream, service_mix,
    stream_jobs, stream_pool, SERVICE_JOBS, STREAM_JOBS,
};

/// One per-layer metric: a timed summary or an exact count.
pub enum Value {
    Timed(Summary),
    Count(f64),
}

pub struct Probe {
    pub name: String,
    pub unit: &'static str,
    pub value: Value,
}

impl Probe {
    pub fn timed(name: impl Into<String>, unit: &'static str, s: Summary) -> Probe {
        Probe {
            name: name.into(),
            unit,
            value: Value::Timed(s),
        }
    }

    pub fn count(name: impl Into<String>, unit: &'static str, v: f64) -> Probe {
        Probe {
            name: name.into(),
            unit,
            value: Value::Count(v),
        }
    }

    pub fn headline(&self) -> f64 {
        match self.value {
            Value::Timed(s) => s.median,
            Value::Count(v) => v,
        }
    }
}

/// Pass index of the probes' own generated inputs, apart from the
/// passes the workloads use.
const PROBE_PASS: u64 = 1 << 40;

/// Run `f` once untimed, then `n` times; each call returns its own
/// measurement.
fn sample(n: usize, mut f: impl FnMut() -> f64) -> Summary {
    f();
    let v: Vec<f64> = (0..n).map(|_| f()).collect();
    Summary::of(&v)
}

fn ms_since(t: CpuTime) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Repetitions of `body` that fill about 2 ms, from one timed call.
fn reps_for(mut body: impl FnMut()) -> usize {
    let t = CpuTime::now();
    body();
    let ns = t.elapsed().as_nanos().max(1) as f64;
    ((2e6 / ns) as usize).clamp(1, 100_000)
}

// ---------------------------------------------------------------------
// multidouble
// ---------------------------------------------------------------------

const VEC: usize = 256;

type BinOp<T> = fn(T, T) -> T;

fn arith<T: MdReal>(tag: &str, seed: u64, out: &mut Vec<Probe>) {
    let mut rng = rng_for(seed, &[10, T::LIMBS as u64]);
    // operands in [1, 2): no division by zero, no growth across ops
    let a: Vec<T> = (0..VEC)
        .map(|_| rand_real::<T, _>(&mut rng) + T::one())
        .collect();
    let b: Vec<T> = (0..VEC)
        .map(|_| rand_real::<T, _>(&mut rng) + T::one())
        .collect();
    let ops: [(&str, BinOp<T>); 3] = [
        ("add", |x, y| x + y),
        ("mul", |x, y| x * y),
        ("div", |x, y| x / y),
    ];
    for (name, op) in ops {
        let run = |reps: usize| {
            for _ in 0..reps {
                for i in 0..VEC {
                    black_box(op(black_box(a[i]), black_box(b[i])));
                }
            }
        };
        let reps = reps_for(|| run(1));
        let s = sample(11, || {
            let t = CpuTime::now();
            run(reps);
            t.elapsed().as_nanos() as f64 / (reps * VEC) as f64
        });
        out.push(Probe::timed(
            format!("multidouble.{tag}.{name}_ns"),
            "ns",
            s,
        ));
    }
}

// ---------------------------------------------------------------------
// gpusim
// ---------------------------------------------------------------------

fn gpusim_probes(out: &mut Vec<Probe>) {
    let buf = DeviceBuf::<Dd>::zeroed(4096);
    let get = |reps: usize| {
        for _ in 0..reps {
            for i in 0..buf.len() {
                black_box(buf.get(black_box(i)));
            }
        }
    };
    let reps = reps_for(|| get(1));
    out.push(Probe::timed(
        "gpusim.buf_get_ns",
        "ns",
        sample(11, || {
            let t = CpuTime::now();
            get(reps);
            t.elapsed().as_nanos() as f64 / (reps * buf.len()) as f64
        }),
    ));
    let v = Dd::from_f64(1.5);
    let set = |reps: usize| {
        for _ in 0..reps {
            for i in 0..buf.len() {
                buf.set(black_box(i), black_box(v));
            }
        }
    };
    let reps = reps_for(|| set(1));
    out.push(Probe::timed(
        "gpusim.buf_set_ns",
        "ns",
        sample(11, || {
            let t = CpuTime::now();
            set(reps);
            t.elapsed().as_nanos() as f64 / (reps * buf.len()) as f64
        }),
    ));

    let sim = Sim::new(Gpu::v100(), ExecMode::Sequential);
    let cost = KernelCost::of::<Dd>(OpCounts::ZERO, 32, 32);
    out.push(Probe::timed(
        "gpusim.launch_us",
        "us",
        sample(11, || {
            let t = CpuTime::now();
            for _ in 0..100 {
                sim.launch("probe", 1, 32, cost, |ctx| {
                    black_box(ctx.block);
                });
            }
            t.elapsed().as_nanos() as f64 / 100.0 / 1e3
        }),
    ));

    let gpu = Gpu::v100();
    out.push(Probe::timed(
        "gpusim.model_profile_us",
        "us",
        sample(11, || {
            let t = CpuTime::now();
            let q = qr_model_profile::<Dd>(
                &gpu,
                1024,
                &QrOptions {
                    tiles: 8,
                    tile_size: 128,
                },
            );
            let b = backsub_model_profile::<Dd>(
                &gpu,
                &BacksubOptions {
                    tiles: 8,
                    tile_size: 128,
                },
            );
            black_box((q, b));
            t.elapsed().as_nanos() as f64 / 1e3
        }),
    ));
}

// ---------------------------------------------------------------------
// qr, backsub, core
// ---------------------------------------------------------------------

fn kernels<S: MdScalar>(
    tag: &str,
    shape: (usize, usize, usize),
    rng: &mut rand::rngs::StdRng,
    out: &mut Vec<Probe>,
) {
    let (rows, tiles, tile) = shape;
    let gpu = Gpu::v100();
    let cols = tiles * tile;
    let (a, b) = make_system::<S>(rows, cols, rng);
    let opts = LstsqOptions::tiled(tiles, tile, ExecMode::Sequential);
    let mut factor: Option<Profile> = None;
    out.push(Probe::timed(
        format!("qr.factor_ms.{tag}"),
        "ms",
        sample(5, || {
            let t = CpuTime::now();
            let f = lstsq_factor(&gpu, &a, &opts);
            let ms = ms_since(t);
            factor = Some(f.factor_profile().clone());
            ms
        }),
    ));
    let f = lstsq_factor(&gpu, &a, &opts);
    let mut solve: Option<(Vec<S>, Profile)> = None;
    out.push(Probe::timed(
        format!("backsub.solve_ms.{tag}"),
        "ms",
        sample(5, || {
            let t = CpuTime::now();
            let r = f.solve(&b);
            let ms = ms_since(t);
            solve = Some(r);
            ms
        }),
    ));
    let (x, bs) = solve.expect("sampled at least once");
    let sim = Sim::new(gpu.clone(), ExecMode::Sequential);
    let da = sim.alloc_mat::<S>(rows, cols);
    a.upload_to(&da);
    let dx = sim.alloc_vec::<S>(cols);
    dx.upload(&x);
    let db = sim.alloc_vec::<S>(rows);
    db.upload(&b);
    let dr = sim.alloc_vec::<S>(rows);
    out.push(Probe::timed(
        format!("core.residual_ms.{tag}"),
        "ms",
        sample(5, || {
            let t = CpuTime::now();
            residual_kernel(&sim, &da, &dx, &db, &dr, tile);
            ms_since(t)
        }),
    ));
    let qr = factor.expect("sampled at least once");
    let flops = qr.total_flops_paper();
    let bytes = qr.total_bytes() as f64;
    out.push(Probe::count(format!("qr.flops.{tag}"), "flop", flops));
    out.push(Probe::count(format!("qr.bytes.{tag}"), "B", bytes));
    out.push(Probe::count(
        format!("qr.cgma.{tag}"),
        "flop/B",
        flops / bytes,
    ));
    out.push(Probe::count(
        format!("gpusim.launches.{tag}"),
        "count",
        (qr.total_launches() + bs.total_launches()) as f64,
    ));
}

// ---------------------------------------------------------------------
// pipeline::planner, pipeline::batch
// ---------------------------------------------------------------------

fn planner_and_batch(seed: u64, out: &mut Vec<Probe>) {
    let gpu = Gpu::v100();
    let (fresh, _) = batch_pair(seed, PROBE_PASS, 0);
    let shapes: Vec<(usize, usize, u32)> = fresh
        .iter()
        .map(|j| (j.rows(), j.cols(), j.target_digits))
        .collect();
    let mut i = 0;
    out.push(Probe::timed(
        "planner.cold_plan_us",
        "us",
        sample(32, || {
            let (r, c, d) = shapes[i % shapes.len()];
            i += 1;
            let planner = Planner::new();
            let t = CpuTime::now();
            black_box(planner.plan(&gpu, r, c, d));
            t.elapsed().as_nanos() as f64 / 1e3
        }),
    ));
    let planner = Planner::new();
    let (r, c, d) = shapes[0];
    planner.plan(&gpu, r, c, d);
    out.push(Probe::timed(
        "planner.warm_plan_ns",
        "ns",
        sample(11, || {
            let t = CpuTime::now();
            for _ in 0..1000 {
                black_box(planner.plan(&gpu, black_box(r), c, d));
            }
            t.elapsed().as_nanos() as f64 / 1000.0
        }),
    ));
    let mut i = 0;
    out.push(Probe::timed(
        "planner.plan_fused_us",
        "us",
        sample(32, || {
            let (r, c, d) = shapes[i % shapes.len()];
            i += 1;
            let planner = Planner::new();
            let t = CpuTime::now();
            black_box(planner.plan_fused(&gpu, r, c, d, 8));
            t.elapsed().as_nanos() as f64 / 1e3
        }),
    ));

    // solve_batch pairs: a fresh batch, then the same matrices with
    // fresh right hand sides, after one untimed call
    let mut pool = DevicePool::homogeneous(&gpu, 4);
    let (fresh, _) = batch_pair(seed, PROBE_PASS, 0);
    solve_batch(&mut pool, &fresh);
    let (mut hits, mut lookups, mut groups, mut fused, mut jobs) =
        (0u64, 0u64, 0.0, 0usize, 0usize);
    let (p0h, p0m) = promoted_cache_stats();
    let mut call = Vec::new();
    for k in 1..=4 {
        let (fresh, shared) = batch_pair(seed, PROBE_PASS, k);
        for batch in [&fresh, &shared] {
            pool.reset();
            let t = CpuTime::now();
            let report = solve_batch(&mut pool, batch);
            call.push(ms_since(t));
            hits += report.plan_cache.hits;
            lookups += report.plan_cache.hits + report.plan_cache.misses;
            fused += report.fused_groups;
            groups += report
                .outcomes
                .iter()
                .map(|o| 1.0 / o.fused_group as f64)
                .sum::<f64>();
            jobs += report.outcomes.len();
        }
    }
    let (p1h, p1m) = promoted_cache_stats();
    out.push(Probe::timed("batch.call_ms", "ms", Summary::of(&call)));
    let planner = Planner::new();
    let plans: Vec<_> = fresh
        .iter()
        .map(|j| planner.plan(&gpu, j.rows(), j.cols(), j.target_digits))
        .collect();
    out.push(Probe::timed(
        "batch.serial_solve_ms",
        "ms",
        sample(5, || {
            let t = CpuTime::now();
            for (j, p) in fresh.iter().zip(&plans) {
                black_box(solve_planned(&gpu, j, p));
            }
            ms_since(t)
        }),
    ));
    let calls = call.len() as f64;
    out.push(Probe::count(
        "batch.fused_groups",
        "count",
        fused as f64 / calls,
    ));
    out.push(Probe::count(
        "batch.mean_group_size",
        "jobs",
        jobs as f64 / groups,
    ));
    let (ph, pm) = (p1h - p0h, p1m - p0m);
    out.push(Probe::count(
        "batch.promoted_lookups",
        "count",
        (ph + pm) as f64,
    ));
    out.push(Probe::count(
        "batch.promoted_hit_ratio",
        "fraction",
        ph as f64 / (ph + pm).max(1) as f64,
    ));
    out.push(Probe::count("planner.lookups", "count", lookups as f64));
    out.push(Probe::count("planner.hits", "count", hits as f64));
    out.push(Probe::count(
        "planner.hit_ratio",
        "fraction",
        hits as f64 / lookups.max(1) as f64,
    ));
}

// ---------------------------------------------------------------------
// pipeline::pool
// ---------------------------------------------------------------------

/// One call of `commit_stages`, `preview_stages` and `rebook` on a
/// one-device pool whose timelines already hold `n` bookings, placed at
/// seeded release times so the lanes are fragmented. The timed calls
/// release in the last tenth of the booked horizon, near the frontier
/// where a live service books.
fn pool_probe(seed: u64, n: usize, out: &mut Vec<Probe>) {
    let mut rng = rng_for(seed, &[11, n as u64]);
    let reqs = [
        StageReq::split(1.0, 0.25),
        StageReq::split(0.5, 0.1),
        StageReq::split(0.5, 0.1),
    ];
    let horizon = 2.5 * n as f64;
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
    for _ in 0..n {
        let at = rng.random_range(0.0..horizon);
        pool.commit_stages(0, &reqs, 1.5, 1e6, 1, true, at);
    }
    let releases: Vec<f64> = (0..64)
        .map(|_| rng.random_range(0.9 * horizon..horizon))
        .collect();
    let mut i = 0;
    out.push(Probe::timed(
        format!("pool.preview_stages_us.n{n}"),
        "us",
        sample(63, || {
            i += 1;
            let t = CpuTime::now();
            black_box(pool.preview_stages(0, &reqs, true, releases[i % releases.len()]));
            t.elapsed().as_nanos() as f64 / 1e3
        }),
    ));
    let mut booked = Vec::new();
    let mut i = 0;
    out.push(Probe::timed(
        format!("pool.commit_stages_us.n{n}"),
        "us",
        sample(15, || {
            i += 1;
            let t = CpuTime::now();
            let b = pool.commit_stages(0, &reqs, 1.5, 1e6, 1, true, releases[i % releases.len()]);
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            booked.push(b);
            us
        }),
    ));
    // a compacting re-book at 10⁴ bookings takes a third of a second:
    // sample it less
    let mut i = 0;
    out.push(Probe::timed(
        format!("pool.rebook_us.n{n}"),
        "us",
        sample(if n >= 10_000 { 5 } else { 15 }, || {
            let b = &booked[i];
            i += 1;
            let t = CpuTime::now();
            black_box(pool.rebook(b, 1, RebookMode::Compact));
            t.elapsed().as_nanos() as f64 / 1e3
        }),
    ));
}

// ---------------------------------------------------------------------
// pipeline::stream, pipeline::service
// ---------------------------------------------------------------------

fn stream_probe(seed: u64, out: &mut Vec<Probe>) {
    let rec = Arc::new(Recorder::new());
    let mut pool = stream_pool();
    pool.attach_observer(rec.clone());
    let jobs = stream_jobs(seed, PROBE_PASS, STREAM_JOBS);
    let outcomes = run_stream(&mut pool, jobs, &mut Tracer::new(false), 0, &mut Vec::new());
    let m = Metrics::from_events(&rec.events());
    let count = |d: Disposition| outcomes.iter().filter(|o| o.disposition == d).count() as f64;
    out.push(Probe::count(
        "stream.admission_sheds",
        "count",
        count(Disposition::Shed),
    ));
    out.push(Probe::count(
        "stream.degraded",
        "count",
        count(Disposition::Degraded),
    ));
    out.push(Probe::count(
        "stream.deadline_caps",
        "count",
        m.deadline_caps as f64,
    ));
}

fn service_probe(seed: u64, out: &mut Vec<Probe>) {
    let full = service_mix(seed, SERVICE_JOBS);
    let eighth = full.prefix(SERVICE_JOBS / 8);
    for (tag, mix) in [("eighth", &eighth), ("full", &full)] {
        out.push(Probe::timed(
            format!("service.host_us_per_job.{tag}"),
            "us",
            sample(3, || {
                let mut pool = mix.pool(PROBE_PASS);
                let t = CpuTime::now();
                black_box(serve(&mut pool, &mix.jobs, &mix.specs, &mix.cfg));
                t.elapsed().as_nanos() as f64 / 1e3 / mix.jobs.len() as f64
            }),
        ));
    }
    let report = serve(
        &mut full.pool(PROBE_PASS),
        &full.jobs,
        &full.specs,
        &full.cfg,
    );
    let sum = |f: fn(&mdls_pipeline::TenantSummary) -> usize| {
        report.tenants.iter().map(f).sum::<usize>() as f64
    };
    out.push(Probe::count("service.shed", "count", sum(|t| t.shed)));
    out.push(Probe::count(
        "service.rejected",
        "count",
        sum(|t| t.rejected),
    ));
    out.push(Probe::count(
        "service.degraded",
        "count",
        sum(|t| t.degraded),
    ));
    out.push(Probe::count("service.retries", "count", sum(|t| t.retried)));
    out.push(Probe::count(
        "service.quota_exhaustions",
        "count",
        sum(|t| t.quota_exhaustions),
    ));
    out.push(Probe::count(
        "service.breaker_opens",
        "count",
        report.breakers.iter().map(|b| b.opens).sum::<usize>() as f64,
    ));
    out.push(Probe::count(
        "service.metered_spend_ratio",
        "ratio",
        metered_spend_ratio(&full, &report),
    ));
}

/// Every probe, in the order the per-layer metrics are listed.
pub fn run_all(seed: u64) -> Vec<Probe> {
    let mut out = Vec::new();
    arith::<f64>("d", seed, &mut out);
    arith::<Dd>("dd", seed, &mut out);
    arith::<Qd>("qd", seed, &mut out);
    arith::<Od>("od", seed, &mut out);
    gpusim_probes(&mut out);
    // the paper-solve shapes of this seed, one per rung
    for ((limbs, rows, tiles, tile), mut rng) in paper_specs(seed).into_iter().take(3) {
        match limbs {
            2 => kernels::<Dd>("dd", (rows, tiles, tile), &mut rng, &mut out),
            4 => kernels::<Qd>("qd", (rows, tiles, tile), &mut rng, &mut out),
            _ => kernels::<Od>("od", (rows, tiles, tile), &mut rng, &mut out),
        }
    }
    planner_and_batch(seed, &mut out);
    for n in [100, 1000, 10000] {
        pool_probe(seed, n, &mut out);
    }
    stream_probe(seed, &mut out);
    service_probe(seed, &mut out);
    out
}

/// Event-derived pool counts of one traced pass.
pub fn pool_counts(events: &[mdls_obs::Event]) -> Vec<Probe> {
    let m = Metrics::from_events(events);
    let bookings = events
        .iter()
        .filter(|e| matches!(e, mdls_obs::Event::StageBooked { .. }))
        .count();
    vec![
        Probe::count("pool.stage_bookings", "count", bookings as f64),
        Probe::count("pool.gap_fills", "count", m.gap_fills as f64),
        Probe::count("pool.compactions", "count", m.compactions as f64),
        Probe::count("pool.refunded_ms", "sim_ms", m.refunded_ms),
        Probe::count("obs.events", "count", events.len() as f64),
    ]
}

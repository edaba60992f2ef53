//! Two-clock benchmark of the multiple double least squares stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) runs passes of the workload for
//! `--seconds` wall seconds with every output checked, sets it up
//! several times along the way (`setup_s` is the median), replays its
//! first pass to confirm that every simulated value repeats exactly,
//! and prints the end-to-end metrics. Every host time it reports is CPU
//! time of the process (see `clock`). A traced run (`--trace 1`) alternates traced and
//! untraced passes of the same workload, then runs every per-layer
//! probe, and prints the per-layer metrics, each layer's self time and
//! the tracing overhead; its spans go to `.bench_out/`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A correctness or
//! determinism failure exits 1 after printing it; bad arguments exit 2
//! without a result.

mod clock;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mdls_obs::Recorder;

use clock::CpuTime;

use probes::{Probe, Value};
use stats::{nearest_rank, quantile, Digest, Summary};
use trace::Tracer;
use workloads::{PassOut, SimOut, Workload, NAMES};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Operations an untraced run times at least, so that ten samples lie
/// beyond `host_op_ms_p90`.
const MIN_OPS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Accumulated results of the timed passes of one run.
#[derive(Default)]
struct Totals {
    passes: usize,
    op_ms: Vec<f64>,
    certified: usize,
    failed_ops: usize,
    violations: Vec<String>,
}

impl Totals {
    fn add(&mut self, out: &PassOut) {
        self.passes += 1;
        self.op_ms.extend_from_slice(&out.op_ms);
        self.certified += out.certified();
        self.failed_ops += out.failed_ops;
        self.violations.extend(out.violations.iter().cloned());
    }

    /// Certified jobs per host second spent inside the program's calls.
    fn jobs_per_s(&self) -> f64 {
        self.certified as f64 / (self.op_ms.iter().sum::<f64>() * 1e-3)
    }
}

/// A metric line for the final JSON object.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; a non-finite value is a bug
        let v = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            v,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Replay pass 0 on the workload and compare every simulated value,
/// count and solution bit with the run's own pass 0.
fn determinism(w: &mut dyn Workload, first: &PassOut) -> Option<String> {
    let replay = w.pass(0, &mut Tracer::new(false), None);
    (replay.fingerprint != first.fingerprint || replay.digest != first.digest).then(|| {
        format!(
            "determinism: pass 0 replayed to fingerprint {:016x}/digest {:016x}, first run gave {:016x}/{:016x}",
            replay.fingerprint.value(),
            replay.digest.value(),
            first.fingerprint.value(),
            first.digest.value()
        )
    })
}

/// Set the workload up once; the CPU seconds it took.
fn timed_setup(args: &Args) -> (Box<dyn Workload>, f64) {
    let t = CpuTime::now();
    let w = workloads::setup(&args.workload, args.seed)
        .expect("workload names are checked at parse time");
    (w, t.elapsed().as_secs_f64())
}

fn untraced(args: &Args) -> ExitCode {
    let (mut w, first_setup) = timed_setup(args);
    let mut setups = vec![first_setup];

    let mut tr = Tracer::new(false);
    let mut totals = Totals::default();
    let mut first: Vec<PassOut> = Vec::new();
    // peak RSS once set-up and the simulated passes have run: a fixed
    // amount of work, so the figure does not grow with host speed
    let mut peak_rss = -1.0;
    let t0 = Instant::now();
    loop {
        let out = w.pass(totals.passes as u64, &mut tr, None);
        totals.add(&out);
        if first.len() < w.sim_passes() {
            first.push(out);
            if first.len() == w.sim_passes() {
                peak_rss = stats::peak_rss_mib().unwrap_or(-1.0);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        // the other set-ups are spread over the run, so that they meet
        // the same host conditions as the operations; each is dropped
        // at once, after the peak RSS was read
        let due = args.seconds * setups.len() as f64 / SETUP_REPS as f64;
        if first.len() == w.sim_passes() && setups.len() < SETUP_REPS && elapsed >= due {
            setups.push(timed_setup(args).1);
        }
        let enough = totals.op_ms.len() >= MIN_OPS || elapsed >= 3.0 * args.seconds;
        if elapsed >= args.seconds
            && enough
            && first.len() == w.sim_passes()
            && setups.len() == SETUP_REPS
        {
            break;
        }
    }
    let timed_s = t0.elapsed().as_secs_f64();
    if let Some(v) = determinism(w.as_mut(), &first[0]) {
        totals.violations.push(v);
        totals.failed_ops += 1;
    }

    // the simulated metrics cover the first passes, run back to back
    let mut sim = SimOut::default();
    let mut fingerprint = Digest::default();
    for out in &first {
        sim.absorb(&out.sim);
        fingerprint.u64(out.fingerprint.value());
    }
    let sim = &sim;
    let mut ops = totals.op_ms.clone();
    ops.sort_by(f64::total_cmp);
    let mut turn = sim.turnaround_ms.clone();
    turn.sort_by(f64::total_cmp);
    let mut prem = sim.premium_ms.clone();
    prem.sort_by(f64::total_cmp);
    let failed_share = sim.jobs_failed as f64 / sim.jobs as f64;
    let miss_share = if sim.deadlined == 0 {
        0.0
    } else {
        sim.deadline_missed as f64 / sim.deadlined as f64
    };
    let on_time = sim.jobs - sim.jobs_failed - sim.late;
    let setup = Summary::of(&setups);
    let metrics = vec![
        metric("host_jobs_per_s", totals.jobs_per_s(), "jobs/s"),
        metric("host_op_ms_p50", quantile(&ops, 0.5), "ms"),
        metric("host_op_ms_p90", quantile(&ops, 0.9), "ms"),
        metric("setup_s", setup.median, "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric("sim_makespan_ms", sim.makespan_ms, "sim_ms"),
        metric("sim_gflops", sim.flops / sim.kernel_ms / 1e6, "sim_GFLOP/s"),
        metric("sim_turnaround_ms_p50", nearest_rank(&turn, 0.5), "sim_ms"),
        metric("sim_turnaround_ms_p99", nearest_rank(&turn, 0.99), "sim_ms"),
        metric("sim_premium_p99_ms", nearest_rank(&prem, 0.99), "sim_ms"),
        metric("certified_share", 1.0 - failed_share, "fraction"),
        metric(
            "sim_on_time_share",
            on_time as f64 / sim.jobs as f64,
            "fraction",
        ),
    ];

    println!(
        "# perfbench workload={} seed={} seconds={} trace=0 nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("metric failed_share {failed_share} fraction");
    println!("metric sim_deadline_miss_share {miss_share} fraction");
    println!(
        "info operations {} in {} passes over {timed_s:.3} s; host_op_ms q1/median/q3 {:.4}/{:.4}/{:.4}",
        ops.len(),
        totals.passes,
        quantile(&ops, 0.25),
        quantile(&ops, 0.5),
        quantile(&ops, 0.75)
    );
    println!(
        "info setup_s samples {} q1/median/q3 {:.4}/{:.4}/{:.4}",
        setup.n, setup.q1, setup.median, setup.q3
    );
    println!(
        "info simulated jobs {} certified {} deadlined {} missed_or_shed {}",
        sim.jobs,
        sim.jobs - sim.jobs_failed,
        sim.deadlined,
        sim.deadline_missed
    );
    println!(
        "info sim passes {} solution_digest {:016x} sim_fingerprint {:016x}",
        first.len(),
        first[0].digest.value(),
        fingerprint.value()
    );
    for v in totals.violations.iter().take(20) {
        println!("violation {v}");
    }
    let correct = totals.violations.is_empty();
    print_result(correct, ops.len(), totals.failed_ops, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn traced(args: &Args) -> ExitCode {
    let mut w = workloads::setup(&args.workload, args.seed)
        .expect("workload names are checked at parse time");
    let mut tr = Tracer::new(true);
    let (mut traced, mut plain) = (Totals::default(), Totals::default());
    let mut first: Option<(PassOut, Vec<mdls_obs::Event>)> = None;
    let t0 = Instant::now();
    let mut p = 0u64;
    // alternate traced and untraced passes so drift hits both alike
    while t0.elapsed().as_secs_f64() < args.seconds || plain.passes == 0 {
        let on = p.is_multiple_of(2);
        tr.set_enabled(on);
        if on {
            let rec = Arc::new(Recorder::new());
            let out = w.pass(p, &mut tr, Some(&rec));
            traced.add(&out);
            if first.is_none() {
                first = Some((out, rec.events()));
            }
        } else {
            plain.add(&w.pass(p, &mut tr, None));
        }
        p += 1;
    }
    tr.set_enabled(false);
    let (first, events) = first.expect("the first pass is traced");
    let mut violations: Vec<String> = traced
        .violations
        .iter()
        .chain(&plain.violations)
        .cloned()
        .collect();
    let mut failed = traced.failed_ops + plain.failed_ops;
    if let Some(v) = determinism(w.as_mut(), &first) {
        violations.push(v);
        failed += 1;
    }

    let mut probes = probes::run_all(args.seed);
    probes.extend(probes::pool_counts(&events));
    let overhead = (plain.jobs_per_s() - traced.jobs_per_s()) / plain.jobs_per_s() * 100.0;
    probes.push(Probe::count("obs.trace_overhead_pct", "%", overhead));

    println!(
        "# perfbench workload={} seed={} seconds={} trace=1 nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for pr in &probes {
        match pr.value {
            Value::Timed(s) => println!(
                "layer {} n={} q1={:.6} median={:.6} q3={:.6} {}",
                pr.name, s.n, s.q1, s.median, s.q3, pr.unit
            ),
            Value::Count(v) => println!("count {} {} {}", pr.name, v, pr.unit),
        }
    }
    let self_times = tr.self_times();
    let total: f64 = self_times.values().map(|v| v.1).sum();
    for (layer, (n, ms)) in &self_times {
        println!(
            "self {layer} spans={n} self_ms={ms:.3} share={:.1}%",
            100.0 * ms / total
        );
    }
    println!(
        "info traced {} passes {:.1} jobs/s, untraced {} passes {:.1} jobs/s",
        traced.passes,
        traced.jobs_per_s(),
        plain.passes,
        plain.jobs_per_s()
    );
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_json())) {
        Ok(()) => println!(
            "info spans {} written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    for v in violations.iter().take(20) {
        println!("violation {v}");
    }
    let metrics: Vec<Metric> = probes
        .iter()
        .map(|p| metric(&p.name, p.headline(), p.unit))
        .collect();
    let correct = violations.is_empty();
    print_result(
        correct,
        traced.op_ms.len() + plain.op_ms.len(),
        failed,
        &metrics,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) if args.trace => traced(&args),
        Ok(args) => untraced(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            ExitCode::from(2)
        }
    }
}

//! Batched multi-GPU least squares solve pipeline.
//!
//! The paper's target workloads — polynomial homotopy path tracking and
//! power-flow embeddings — issue *millions of small solves*, not one
//! big one. This crate turns the workspace's single-solve stack
//! (`gpusim` + `mdls-qr` + `mdls-backsub` + `mdls-core`) into a solve
//! *service* with four layers:
//!
//! 1. **Planner** ([`planner`], [`plan`]) — per job `(m, n, target
//!    digits)`, *searches* over staged [`ExecPlan`]s: direct solves at
//!    every sufficient rung of the d → dd → qd → od ladder, and
//!    mixed-precision refinement plans (factor at a cheap rung, then
//!    iterate residual-at-the-target-rung / correct-through-the-reused-
//!    factorization until the digits are met). Stage profiles come from
//!    the analytic cost models and compose via `Profile::absorb`; the
//!    cheapest predicted wall clock wins. Plan *structure* is tuned on a
//!    reference device model so solutions stay placement-invariant;
//!    plans are memoized per shape, target and device.
//! 2. **Device pool + scheduler** ([`pool`], [`scheduler`]) — N
//!    simulated GPUs (`Gpu::v100()`, `Gpu::a100()`, …, cloned or
//!    mixed), each with a pair of interval-list timelines in simulated
//!    time (a prep lane for host overhead + PCIe, a compute lane for
//!    kernels + gaps; [`Timeline`]) and a pool-wide host staging
//!    resource ([`HostStagingPool`]). A pluggable [`DispatchPolicy`] —
//!    greedy least-loaded, or shortest-expected-completion for
//!    heterogeneous pools — places each dispatch group, and the pool
//!    aggregates solves/sec, gigaflops and utilization per device.
//! 3. **One engine** ([`batch`], [`stream`]) — every dispatch goes
//!    through the same three steps: book the group's stages on the
//!    chosen device's timelines ([`dispatch_group_staged`]), execute
//!    the group through the stage interpreter, and settle what ran
//!    against what was booked. [`solve_batch`] runs a whole queue at
//!    once (work-stealing host threads shorten real wall time;
//!    simulated timing is unaffected); [`solve_stream`] is the lazy,
//!    iterator-style variant for live queues, with a priority/deadline
//!    reorder buffer ([`solve_stream_with`]). One [`EngineConfig`]
//!    carries every knob of both: the placement [`DispatchPolicy`];
//!    device micro-batching ([`microbatch`], [`MicrobatchConfig`]) —
//!    same-shaped small jobs fuse into batched launch sequences at the
//!    occupancy sweet spot, bit-identical to the unfused path; stage
//!    booking ([`StageSchedConfig`]) — contiguous per plan by default,
//!    or overlapped prep under compute, expected-pass booking, online
//!    re-booking with slide-left compaction ([`DevicePool::rebook`])
//!    and pass extension for stalled jobs; deadline admission
//!    ([`AdmissionConfig`]) that sheds or down-ladders unmeetable
//!    requests at ingress; and fault recovery ([`RecoveryPolicy`])
//!    that re-plans work a seeded [`gpusim::FaultPlan`] device loss
//!    interrupted onto the survivors and replays transient faults.
//!    Every job ends in an explicit [`Disposition`]; booking modes and
//!    recovery move work through simulated time only, never bits.
//!    [`resilient`] holds the one ingress step all three front ends
//!    share: deadline admission, the tombstone of a job that never
//!    ran, and the scan for sticky losses that have come due.
//! 4. **Multi-tenant service shell** ([`service`]) — [`serve`] fronts
//!    the same book → execute → settle steps for many callers at once:
//!    per-tenant *bounded* ingress queues with a [`Backpressure`]
//!    policy, deficit-round-robin weighted-fair dispatch with
//!    token-bucket quotas in predicted device-ms (reserved at dispatch;
//!    settle-time refunds credit the bucket back), an overload ladder
//!    that sheds or down-ladders the cheapest [`SloClass`] first, and
//!    per-device circuit breakers keyed off each device's
//!    transient-fault rate (quarantine via [`DevicePool::fail_device`],
//!    probe-based re-admission after a seeded backoff). Its
//!    [`ServiceConfig`] sets only the fairness policy, the overload
//!    thresholds, the breakers and the execution mode. Entirely
//!    simulated time; bit- and schedule-deterministic across runs.
//!
//! Policies and priorities move jobs across devices and through time;
//! they never change numerics — every outcome stays bit-identical to
//! interpreting the same staged plan sequentially (and, for direct
//! plans, to a plain [`mdls_core::lstsq`] call). Outcomes report the
//! digits their measured residual certifies plus the per-stage
//! predicted breakdown of the plan they ran under.
//!
//! **Observability** ([`mdls_obs`], re-exported as `obs` from the
//! workspace root): attach any [`mdls_obs::Observer`] to a pool via
//! [`DevicePool::attach_observer`] and every layer — planner cache and
//! search, SECT previews, stage bookings, refunds, extensions,
//! settlements — emits typed events through it. With no observer
//! attached (the default) no event is even constructed; observation
//! never changes solutions or simulated timing.
//!
//! ```
//! use gpusim::Gpu;
//! use mdls_pipeline::{power_flow_jobs, solve_batch, DevicePool};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let jobs = power_flow_jobs(32, &mut rng);
//! let mut pool = DevicePool::homogeneous(&Gpu::v100(), 2);
//! let report = solve_batch(&mut pool, &jobs);
//! assert_eq!(report.outcomes.len(), 32);
//! assert!(report.outcomes.iter().all(|o| o.residual < 1e-10));
//! assert!(report.solves_per_sec > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod job;
pub mod microbatch;
pub mod plan;
pub mod planner;
pub mod pool;
pub mod resilient;
pub mod scheduler;
pub mod service;
pub mod stream;
pub mod workload;

pub use batch::{
    digits_from_residual, latency_summary, promoted_cache_stats, promoted_cache_warm_insert,
    solve_batch, solve_batch_with, solve_planned, BatchReport, Disposition, EngineConfig,
    JobOutcome, LatencySummary,
};
pub use job::{Job, Precision, SloClass, Solution, TenantId};
pub use microbatch::{
    dispatch_group_staged, plan_groups, schedule_staged, GroupDispatch, MicrobatchConfig,
};
pub use plan::{ExecPlan, FusedProfile, PlannedStage, Stage};
pub use planner::{plan_cache_stats, PlanCacheStats, Planner};
pub use pool::{
    DeviceLossReport, DevicePool, DeviceStats, HostStagingPool, PoolDevice, RebookMode,
    StageBooking, StageInterval, StageRefund, StageReq, Timeline,
};
pub use resilient::{AdmissionConfig, RecoveryPolicy};
pub use scheduler::{DispatchPolicy, JobShape, StageSchedConfig};
pub use service::{
    serve, Backpressure, BreakerConfig, BreakerSummary, ClassSummary, ExecutionMode,
    OverloadConfig, QuotaSpec, ServiceConfig, ServicePolicy, ServiceReport, TenantSpec,
    TenantSummary,
};
pub use stream::{solve_stream, solve_stream_admitted, solve_stream_with, BatchStream};
pub use workload::{
    bursty_tracker_jobs, jobs_for_shapes, power_flow_jobs, refinement_mix, tracker_jobs,
    workload_mix,
};

//! The open-loop service workload: a seeded `ArrivalTrace` replayed on a
//! fixed schedule against a `SortService`, whatever the service's backlog.

use crate::check::{device_is_empty, take_seen, CheckSink, Expected, Ops, Seen, SeenSlot};
use crate::jobs::{build_device, Gen};
use crate::stats::{due_latency, median, peak_rss_mb, tail};
use crate::trace::Recorder;
use crate::{layers, Args, Report};
use std::time::{Duration, Instant};
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{
    CompletedJob, GrantPolicy, JobHandle, LoadSortStore, ReplacementSelection, ServiceConfig,
    SortJob, SortService,
};
use twrs_storage::AnyDevice;
use twrs_workloads::distributions::DistributionIter;
use twrs_workloads::{ArrivalTrace, Distribution, JobArrival, Record};

/// Records per job: tens of milliseconds of sorting each.
pub const JOB_RECORDS: usize = 150_000;
/// Memory each job asks for, in records.
pub const JOB_MEMORY: usize = 4_000;
/// The service's global budget: below the sum of two concurrent requests,
/// so every grant is cut to half of it.
pub const GLOBAL_MEMORY: usize = 6_000;
pub const WORKERS: usize = 2;
pub const TENANTS: usize = 4;
/// Offered load. With jobs of about 45 ms on two workers this keeps the
/// two-CPU box about half busy.
pub const JOBS_PER_SECOND: f64 = 22.0;
pub const DEVICE: &str = "sim:hdd-7200";
/// Generators by tenant: each tenant sorts with one algorithm.
const TENANT_GENS: [Gen; TENANTS] = [Gen::Twrs, Gen::Rs, Gen::Lss, Gen::Twrs];
const SETUP_REPEATS: usize = 5;

pub fn service_config(global: usize) -> ServiceConfig {
    // Fixed shares make every grant independent of admission timing, so
    // per-job I/O counters (and simulated I/O) repeat exactly.
    ServiceConfig::new(global)
        .workers(WORKERS)
        .grant_policy(GrantPolicy::FixedShare { shares: WORKERS })
}

/// Submits one job whose sorted output drains into a [`CheckSink`].
pub fn submit(
    service: &SortService,
    tenant: &str,
    gen: Gen,
    memory: usize,
    device: &AnyDevice,
    input: impl Iterator<Item = Record> + Send + 'static,
) -> Result<(JobHandle, SeenSlot), String> {
    let (sink, slot) = CheckSink::new();
    let handle = match gen {
        Gen::Rs => service.submit_sink(
            tenant,
            SortJob::new(ReplacementSelection::new(memory)).on(device),
            input,
            sink,
        ),
        Gen::Twrs => service.submit_sink(
            tenant,
            SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
                memory,
            )))
            .on(device),
            input,
            sink,
        ),
        Gen::Lss => service.submit_sink(
            tenant,
            SortJob::new(LoadSortStore::new(memory)).on(device),
            input,
            sink,
        ),
    }
    .map_err(|e| e.to_string())?;
    Ok((handle, slot))
}

/// One planned submission: due `offset` after the replay starts.
pub struct Planned {
    pub index: usize,
    pub offset: Duration,
    pub tenant: String,
    pub gen: Gen,
    pub memory: usize,
    pub expected: Expected,
}

/// One served job, as the load generator saw it.
pub struct Served {
    pub start: Instant,
    pub offset: Duration,
    pub submitted: Instant,
    pub submit_s: f64,
    pub done: CompletedJob,
    pub seen: Seen,
    pub records: u64,
    pub requested: usize,
}

impl Served {
    pub fn due(&self) -> Instant {
        self.start + self.offset
    }

    pub fn latency(&self) -> f64 {
        due_latency(self.start, self.offset, self.seen.done).as_secs_f64()
    }

    pub fn lateness(&self) -> f64 {
        self.submitted
            .saturating_duration_since(self.due())
            .as_secs_f64()
    }
}

fn job_input(job: &JobArrival) -> Distribution {
    Distribution::new(job.distribution, job.records as u64, job.seed)
}

fn tenant_gen(index: usize) -> Gen {
    TENANT_GENS[index % TENANTS]
}

struct Prepared {
    trace: ArrivalTrace,
    plan: Vec<Planned>,
    device: AnyDevice,
    service: SortService,
    /// The warm-up jobs of the service that is kept.
    warm_served: Vec<Served>,
    setup_s: f64,
    gen_s: f64,
}

fn job_inputs(trace: &ArrivalTrace) -> impl Fn(usize) -> DistributionIter + Copy + '_ {
    |i: usize| job_input(&trace.jobs()[i]).records()
}

/// Builds the trace, the device and the service, and warms the service up
/// with the first jobs of the trace, each running alone. That is all the
/// work before the timed replay, so set-up is timed over all of it. A bare
/// build takes tens of microseconds, most of it spawning the workers, and
/// read either about 45 or about 80 µs depending on the process: too
/// little, and too bimodal, to bound.
fn prepare(args: &Args, ops: &mut Ops) -> Result<Prepared, String> {
    let jobs = (args.seconds * JOBS_PER_SECOND).ceil() as usize;
    let gap = Duration::from_secs_f64(1.0 / JOBS_PER_SECOND);
    let synthetic =
        || ArrivalTrace::synthetic(TENANTS, jobs, JOB_RECORDS, JOB_MEMORY, gap, args.seed);
    // Fingerprinting draws every job's input once; it is the benchmark's
    // own work, so it stays out of the timed set-up.
    let start = Instant::now();
    let plan: Vec<Planned> = synthetic()
        .jobs()
        .iter()
        .enumerate()
        .map(|(index, job)| Planned {
            index,
            offset: job.offset,
            tenant: job.tenant.clone(),
            gen: tenant_gen(index),
            memory: job.memory_records,
            expected: Expected::of(job_input(job).records()),
        })
        .collect();
    let gen_s = start.elapsed().as_secs_f64();
    let warm = &plan[..plan.len().min(2 * WORKERS)];

    let mut setups = Vec::new();
    let mut prepared: Option<(ArrivalTrace, AnyDevice, SortService, Vec<Served>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, device, service, _)) = prepared.take() {
            service.shutdown();
            ops.record("service warm-up device", device_is_empty(&device));
        }
        let start = Instant::now();
        let trace = synthetic();
        let device = build_device(DEVICE)?;
        let service = SortService::new(service_config(GLOBAL_MEMORY)).map_err(|e| e.to_string())?;
        let warm_served: Vec<Served> = warm
            .chunks(1)
            .flat_map(|job| {
                replay(
                    &service,
                    &device,
                    job,
                    Instant::now(),
                    job_inputs(&trace),
                    ops,
                )
            })
            .collect();
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((trace, device, service, warm_served));
    }
    let (trace, device, service, warm_served) = prepared.expect("SETUP_REPEATS > 0");
    Ok(Prepared {
        trace,
        plan,
        device,
        service,
        warm_served,
        setup_s: median(&setups),
        gen_s,
    })
}

/// Replays `plan` open-loop from `start`, drawing job `i`'s input from
/// `input(i)`; returns the jobs that completed and passed their checks.
pub fn replay<I>(
    service: &SortService,
    device: &AnyDevice,
    plan: &[Planned],
    start: Instant,
    input: impl Fn(usize) -> I,
    ops: &mut Ops,
) -> Vec<Served>
where
    I: Iterator<Item = Record> + Send + 'static,
{
    let mut pending = Vec::new();
    for job in plan {
        if let Some(wait) = (start + job.offset).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let submitted = Instant::now();
        let outcome = submit(
            service,
            &job.tenant,
            job.gen,
            job.memory,
            device,
            input(job.index),
        );
        let submit_s = submitted.elapsed().as_secs_f64();
        pending.push((job, submitted, submit_s, outcome));
    }
    let mut served = Vec::new();
    for (job, submitted, submit_s, outcome) in pending {
        let what = format!(
            "service job {} ({} {})",
            job.index,
            job.tenant,
            job.gen.key()
        );
        let result = outcome.and_then(|(handle, slot)| {
            let done = handle.wait().map_err(|e| e.to_string())?;
            let seen = take_seen(&slot)?;
            seen.verify(&job.expected)?;
            Ok(Served {
                start,
                offset: job.offset,
                submitted,
                submit_s,
                done,
                seen,
                records: job.expected.count,
                requested: job.memory,
            })
        });
        match result {
            Ok(s) => {
                ops.record(&what, Ok(()));
                served.push(s);
            }
            Err(e) => ops.record(&what, Err(e)),
        }
    }
    served
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let p = prepare(args, &mut report.ops)?;

    // The warm-up jobs' simulated I/O must repeat exactly in the replay.
    let start = Instant::now() + Duration::from_millis(20);
    let served = replay(
        &p.service,
        &p.device,
        &p.plan,
        start,
        job_inputs(&p.trace),
        &mut report.ops,
    );
    for (w, s) in p.warm_served.iter().zip(&served) {
        if w.offset == s.offset && w.done.io.sim_io != s.done.io.sim_io {
            report.ops.fail(
                "service replay",
                format!(
                    "job simulated I/O {:?} differs from its warm-up twin's {:?}",
                    s.done.io.sim_io, w.done.io.sim_io
                ),
            );
        }
    }
    let summary = p.service.shutdown();
    report.ops.record(
        "service shutdown",
        if summary.jobs_failed == 0 {
            Ok(())
        } else {
            Err(format!("{} jobs failed", summary.jobs_failed))
        },
    );
    report
        .ops
        .record("service device", device_is_empty(&p.device));
    if served.is_empty() {
        return Err("no service job completed".into());
    }
    let latencies: Vec<f64> = served.iter().map(Served::latency).collect();
    let t = tail(&latencies).expect("non-empty");
    let records: u64 = served.iter().map(|s| s.records).sum();
    let sort_wall: f64 = served.iter().map(|s| s.done.sort_wall.as_secs_f64()).sum();
    let sim_io: Duration = served.iter().map(|s| s.done.io.sim_io).sum();
    report.note(format!(
        "service-open-loop: {} jobs of {} records at {} jobs/s over {} tenants, {} workers, \
         global memory {} (requests {} each), {}",
        p.plan.len(),
        JOB_RECORDS,
        JOBS_PER_SECOND,
        TENANTS,
        WORKERS,
        GLOBAL_MEMORY,
        JOB_MEMORY,
        DEVICE
    ));
    report.note(format!(
        "latency from due time: tail is p{:.1} with {} of {} samples beyond it; busy share {:.2}",
        t.percentile,
        t.beyond,
        t.samples,
        sort_wall / (WORKERS as f64 * args.seconds)
    ));

    if args.trace {
        return layers::traced_service(args, p.gen_s, &served, report);
    }
    report.metric("records_per_s", records as f64 / sort_wall, "1/s");
    report.metric("sim_io_s", sim_io.as_secs_f64(), "s");
    report.metric("job_latency_p50_s", median(&latencies), "s");
    report.metric("job_latency_tail_s", t.value, "s");
    report.metric("setup_s", p.setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(report)
}

/// Per-layer service metrics and due-time spans for served jobs.
pub fn service_layer(rec: &mut Recorder, served: &[Served], report: &mut Report) -> f64 {
    let queue: Vec<f64> = served
        .iter()
        .map(|s| s.done.queue_wait.as_secs_f64())
        .collect();
    let sort: Vec<f64> = served
        .iter()
        .map(|s| s.done.sort_wall.as_secs_f64())
        .collect();
    let lateness: Vec<f64> = served.iter().map(Served::lateness).collect();
    let submit: Vec<f64> = served.iter().map(|s| s.submit_s).collect();
    let granted: usize = served.iter().map(|s| s.done.granted_memory).sum();
    let requested: usize = served.iter().map(|s| s.requested).sum();
    for (i, s) in served.iter().enumerate() {
        let track = 100 + i as u64;
        let job = rec.record("service.job", None, s.due(), s.seen.done, track);
        rec.record("loadgen.lateness", Some(job), s.due(), s.submitted, track);
        let admitted = s.submitted + s.done.queue_wait;
        rec.record("service.queue", Some(job), s.submitted, admitted, track);
        rec.record(
            "service.sort",
            Some(job),
            admitted,
            admitted + s.done.sort_wall,
            track,
        );
    }
    report.metric("service.submit_s", median(&submit), "s");
    report.metric("service.queue_wait_p50_s", median(&queue), "s");
    report.metric(
        "service.queue_wait_tail_s",
        tail(&queue).map_or(0.0, |t| t.value),
        "s",
    );
    report.metric("service.sort_wall_p50_s", median(&sort), "s");
    report.metric(
        "service.sort_wall_tail_s",
        tail(&sort).map_or(0.0, |t| t.value),
        "s",
    );
    report.metric(
        "service.grant_ratio",
        granted as f64 / requested.max(1) as f64,
        "ratio",
    );
    report.metric("loadgen.lateness_p50_s", median(&lateness), "s");
    report.metric(
        "loadgen.lateness_max_s",
        lateness.iter().copied().fold(0.0, f64::max),
        "s",
    );
    // Due-time fold: each job's latency is its generator lateness, its
    // queue wait and its sort; the residual is what none of them covers.
    let latency: f64 = served.iter().map(Served::latency).sum();
    let parts: f64 =
        lateness.iter().sum::<f64>() + queue.iter().sum::<f64>() + sort.iter().sum::<f64>();
    (latency - parts) / latency
}

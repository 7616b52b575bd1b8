//! The three closed-loop workloads: one client sorts the same seeded input
//! over and over, each request waiting for the previous one.

use crate::check::{Expected, Ops};
use crate::jobs::{build_device, run_job, Gen, JobOutcome, Output};
use crate::stats::{median, peak_rss_mb, tail};
use crate::{layers, Args, Report};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use twrs_storage::{AnyDevice, StorageDevice};
use twrs_workloads::{Distribution, DistributionKind, Record};

/// A closed-loop workload: one request sorts the input once with each of
/// `gens`, in an order that rotates from request to request.
#[derive(Debug)]
pub struct ClosedLoop {
    pub name: &'static str,
    pub kind: DistributionKind,
    pub records: u64,
    /// Records added per unit of `seed mod 64`. An input shape whose keys
    /// do not depend on the seed needs it, or every seed would give the
    /// same simulated I/O; random keys already vary it.
    pub seed_records: u64,
    /// Memory budget of every generator, in records.
    pub memory: usize,
    pub device: &'static str,
    pub threads: usize,
    pub output: Output,
    pub gens: &'static [Gen],
}

/// Selection-bound: random input with memory at 1% of it, so RS writes
/// about 50 runs, merged in two passes at fan-in 10.
pub const RUNGEN_RANDOM: ClosedLoop = ClosedLoop {
    name: "rungen-random",
    kind: DistributionKind::RandomUniform,
    records: 2_000_000,
    seed_records: 0,
    memory: 20_000,
    device: "sim:hdd-7200",
    threads: 1,
    output: Output::Sink,
    gens: &[Gen::Rs, Gen::Twrs],
};

/// Merge-bound: Load-Sort-Store with a tiny budget writes 1 000 runs, so
/// the merge takes three passes at fan-in 10 and no selection heap is
/// involved.
pub const MERGE_HEAVY: ClosedLoop = ClosedLoop {
    name: "merge-heavy",
    kind: DistributionKind::RandomUniform,
    records: 2_000_000,
    seed_records: 0,
    memory: 2_000,
    device: "sim:hdd-7200",
    threads: 1,
    output: Output::File,
    gens: &[Gen::Lss],
};

/// The parallel engine on a two-disk stripe, on the mixed input where
/// 2WRS's longer runs cut simulated I/O.
pub const PARALLEL_MIXED: ClosedLoop = ClosedLoop {
    name: "parallel-mixed",
    kind: DistributionKind::MixedBalanced,
    records: 2_000_000,
    // One page of records per seed step: at most 0.8% more work.
    seed_records: 256,
    memory: 20_000,
    device: "striped:2:sim:nvme",
    threads: 2,
    output: Output::Sink,
    gens: &[Gen::Rs, Gen::Twrs],
};

/// Set-up is repeated this many times before the warm-up; the timed loop
/// repeats it once more after every request, so that the reported median
/// spans the whole run and the host's drift over it.
const SETUP_REPEATS: usize = 5;
/// Timed requests always run at least this many times.
const MIN_REQUESTS: usize = 5;

/// The inputs and device of a run.
pub struct Prepared {
    pub input: Vec<Record>,
    pub expected: Expected,
    pub device: AnyDevice,
    /// Set-up times (draw the input, build the device) so far, in seconds.
    pub setups: Vec<f64>,
    /// Median time to draw the input, in seconds.
    pub gen_s: f64,
}

/// One set-up: draws the input and builds the device. Returns them with
/// the set-up time and the draw time, in seconds.
pub fn set_up(w: &ClosedLoop, seed: u64) -> Result<(Vec<Record>, AnyDevice, f64, f64), String> {
    let records = w.records + (seed % 64) * w.seed_records;
    let start = Instant::now();
    let input: Vec<Record> = Distribution::new(w.kind, records, seed).collect();
    let draw = start.elapsed().as_secs_f64();
    let device = build_device(w.device)?;
    Ok((input, device, start.elapsed().as_secs_f64(), draw))
}

pub fn prepare(w: &ClosedLoop, seed: u64) -> Result<Prepared, String> {
    let (mut setups, mut draws) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous draw before the next one.
        drop(prepared.take());
        let (input, device, setup, draw) = set_up(w, seed)?;
        setups.push(setup);
        draws.push(draw);
        prepared = Some((input, device));
    }
    let (input, device) = prepared.expect("SETUP_REPEATS > 0");
    // The fingerprint is the benchmark's own work, so it stays out of the
    // timed set-up.
    let expected = Expected::of(input.iter().copied());
    Ok(Prepared {
        input,
        expected,
        device,
        setups,
        gen_s: median(&draws),
    })
}

/// One closed-loop request: every generator of the workload once.
pub struct Request {
    /// Sum of the jobs' wall times, in seconds.
    pub latency: f64,
    pub records: u64,
    pub jobs: Vec<(Gen, JobOutcome)>,
}

impl Request {
    pub fn sim_io(&self) -> Duration {
        self.jobs.iter().map(|(_, job)| job.sim_io()).sum()
    }
}

/// Runs request `index` at `threads`; `None` when any job failed.
/// `reference` holds the first simulated I/O time seen per generator and
/// thread count. Simulated I/O is deterministic when each disk head has a
/// single reader (one thread, or a stripe with a disk per thread), and then
/// every later job must repeat it exactly.
pub fn request(
    w: &ClosedLoop,
    p: &Prepared,
    index: usize,
    threads: usize,
    ops: &mut Ops,
    reference: &mut BTreeMap<(Gen, usize), Duration>,
) -> Option<Request> {
    let mut jobs = Vec::new();
    let mut ok = true;
    let deterministic = threads == 1 || p.device.stripe_members() >= threads;
    for k in 0..w.gens.len() {
        let gen = w.gens[(index + k) % w.gens.len()];
        let what = format!("{} t{threads} request {index}", gen.key());
        match run_job(
            gen,
            w.memory,
            threads,
            w.output,
            &p.device,
            &p.input,
            &p.expected,
        ) {
            Ok(job) => {
                let sim = job.sim_io();
                let expected = *reference.entry((gen, threads)).or_insert(sim);
                if sim == expected || !deterministic {
                    ops.record(&what, Ok(()));
                    jobs.push((gen, job));
                } else {
                    ok = false;
                    ops.record(
                        &what,
                        Err(format!(
                            "simulated I/O {sim:?} differs from the first job's {expected:?}"
                        )),
                    );
                }
            }
            Err(e) => {
                ok = false;
                ops.record(&what, Err(e));
            }
        }
    }
    ok.then(|| Request {
        latency: jobs.iter().map(|(_, job)| job.wall).sum(),
        records: p.input.len() as u64 * jobs.len() as u64,
        jobs,
    })
}

pub fn run(w: &ClosedLoop, args: &Args) -> Result<Report, String> {
    let p = prepare(w, args.seed)?;
    let mut report = Report::default();
    let mut reference = BTreeMap::new();
    // Warm-up: one checked request, not timed.
    request(w, &p, 0, w.threads, &mut report.ops, &mut reference);
    if args.trace {
        layers::traced_closed(w, &p, args, report, reference)
    } else {
        timed(w, p, args, report, reference)
    }
}

fn timed(
    w: &ClosedLoop,
    mut p: Prepared,
    args: &Args,
    mut report: Report,
    mut reference: BTreeMap<(Gen, usize), Duration>,
) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut requests = Vec::new();
    let mut index = 1;
    while index <= MIN_REQUESTS || Instant::now() < deadline {
        if let Some(r) = request(w, &p, index, w.threads, &mut report.ops, &mut reference) {
            requests.push(r);
        }
        let (_, _, setup, _) = set_up(w, args.seed)?;
        p.setups.push(setup);
        index += 1;
    }
    if requests.is_empty() {
        return Err("every request failed".into());
    }
    let latencies: Vec<f64> = requests.iter().map(|r| r.latency).collect();
    // Throughput over the whole run: the host's speed drifts over tens of
    // seconds, and the mean over a run smooths that drift better than the
    // median of per-request rates.
    let throughput =
        requests.iter().map(|r| r.records).sum::<u64>() as f64 / latencies.iter().sum::<f64>();
    let sim_io: Vec<f64> = requests.iter().map(|r| r.sim_io().as_secs_f64()).collect();
    let t = tail(&latencies).expect("at least one request");
    report.note(format!(
        "{}: {} records, memory {}, {} on {}, threads {}, {} timed requests",
        w.name,
        p.input.len(),
        w.memory,
        w.gens.iter().map(|g| g.key()).collect::<Vec<_>>().join("+"),
        w.device,
        w.threads,
        requests.len()
    ));
    report.note(format!(
        "latency tail is p{:.1} with {} of {} samples beyond it",
        t.percentile, t.beyond, t.samples
    ));
    for gen in w.gens {
        let jobs: Vec<&JobOutcome> = requests
            .iter()
            .flat_map(|r| r.jobs.iter().filter(|(g, _)| g == gen).map(|(_, j)| j))
            .collect();
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall).collect();
        report.note(format!(
            "{}: median wall {:.4} s, {} runs, relative run length {:.3}, sim I/O {:.4} s",
            gen.key(),
            median(&walls),
            jobs[0].report.num_runs(),
            jobs[0].report.report.relative_run_length,
            jobs[0].sim_io().as_secs_f64()
        ));
    }
    report.metric("records_per_s", throughput, "1/s");
    report.metric("sim_io_s", median(&sim_io), "s");
    report.metric("job_latency_p50_s", median(&latencies), "s");
    report.metric("job_latency_tail_s", t.value, "s");
    report.metric("setup_s", median(&p.setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(report)
}

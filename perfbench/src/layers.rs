//! The traced run: per-layer metrics from spans the benchmark records
//! around each public layer call it makes.
//!
//! The benchmark's contract asks every traced run to print every per-layer
//! metric, so every workload's traced run measures every layer, on the
//! workload's own input, budget and device where the layer has them:
//!
//! * codec and device probes time `RunWriter`/`RunReader`, the reverse-run
//!   files and raw `PageFile` page I/O;
//! * a *decomposition* re-runs each generator as the two public calls a
//!   sort job is made of, `RunGenerator::generate` then
//!   `KWayMerger::merge_into`, each inside a span; it runs once traced and
//!   once untraced per round, which gives the tracing overhead;
//! * the workload's own request runs at one and at two threads, which gives
//!   the parallel engine's speed-up and phase windows;
//! * the service layer comes from the open-loop replay on
//!   `service-open-loop`, and from a burst of the workload's own jobs
//!   through a `SortService` elsewhere.
//!
//! The fold checks compare each measured time with the layer times or
//! probe estimates that account for it (see `README.md`).

use crate::check::{device_is_empty, Ops};
use crate::closed::{self, ClosedLoop, Prepared, Request};
use crate::jobs::{build_device, read_back, Gen, Output, OUTPUT_FILE};
use crate::service::{self, Planned, Served};
use crate::stats::median;
use crate::trace::Recorder;
use crate::{Args, Report};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twrs_extsort::{KWayMerger, MergeConfig, RunHandle};
use twrs_storage::{
    AnyDevice, ReverseRunReader, ReverseRunWriter, RunReader, RunWriter, ScopedDevice, SpillNamer,
    StorageDevice,
};
use twrs_workloads::{DistributionKind, Record};

/// A fold holds when its measured side and the account of it differ by at
/// most this share of the measured side. Both sides vary by about 7% per
/// sample on a shared two-CPU host; paired by round, the folds read at most
/// 0.09 in magnitude, so the slack is about 1.7 times that.
pub const FOLD_SLACK: f64 = 0.15;
/// Rounds always run at least this many times.
const MIN_ROUNDS: usize = 5;
/// Pages the device probe writes and reads per repetition.
const PROBE_PAGES: u64 = 8_192;
const PROBE_REPEATS: usize = 5;

/// The service-open-loop workload's layer probes run on one job of its
/// trace shape, at the memory each job is granted.
pub const SERVICE_PROBE: ClosedLoop = ClosedLoop {
    name: "service-open-loop",
    kind: DistributionKind::RandomUniform,
    records: service::JOB_RECORDS as u64,
    seed_records: 0,
    memory: service::GLOBAL_MEMORY / service::WORKERS,
    device: service::DEVICE,
    threads: 1,
    output: Output::Sink,
    gens: &[Gen::Twrs, Gen::Rs, Gen::Lss],
};

fn write_trace(rec: &Recorder, args: &Args, report: &mut Report) -> Result<(), String> {
    let path = format!(
        "perfbench/out/trace-{}-seed{}.json",
        args.workload, args.seed
    );
    std::fs::create_dir_all("perfbench/out").map_err(|e| format!("perfbench/out: {e}"))?;
    std::fs::write(&path, rec.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    report.note(format!(
        "trace: {} spans written to {path}",
        rec.spans().len()
    ));
    Ok(())
}

/// Codec cost in nanoseconds per record.
#[derive(Debug, Clone, Copy)]
struct Codec {
    write: f64,
    read: f64,
    reverse_write: f64,
    reverse_read: f64,
}

/// The codec probe: the workload's input, sorted and cut into runs of
/// `memory` records each, so the per-run cost of opening and finishing a
/// file is spread over the records as in the workload's own runs.
struct CodecProbe {
    device: AnyDevice,
    sorted: Vec<Record>,
    memory: usize,
}

impl CodecProbe {
    fn new(spec: &str, input: &[Record], memory: usize) -> Result<Self, String> {
        let mut sorted = input.to_vec();
        sorted.sort_unstable();
        Ok(CodecProbe {
            device: build_device(spec)?,
            sorted,
            memory,
        })
    }

    /// Writes and reads every run once each way, inside `codec.*` spans,
    /// and returns what each way cost per record. The files stay until the
    /// next call: freeing them just before a decomposition slowed its
    /// `generate` by about 10%.
    fn once(&self, rec: &mut Recorder) -> Result<Codec, String> {
        let device = &self.device;
        let runs = || self.sorted.chunks(self.memory).enumerate();
        let err = |e: twrs_storage::StorageError| e.to_string();
        for name in device.list() {
            device.remove(&name).map_err(err)?;
        }
        let n = self.sorted.len() as f64;
        let ns = |rec: &mut Recorder,
                  name: &str,
                  work: &dyn Fn() -> Result<(), String>|
         -> Result<f64, String> {
            let start = Instant::now();
            rec.span(name, |_| work())?;
            Ok(start.elapsed().as_secs_f64() * 1e9 / n)
        };
        let write = ns(rec, "codec.write", &|| {
            for (i, run) in runs() {
                let mut writer =
                    RunWriter::<Record>::create(device, &format!("codec.fwd.{i}")).map_err(err)?;
                for record in run {
                    writer.push(record).map_err(err)?;
                }
                writer.finish().map_err(err)?;
            }
            Ok(())
        })?;
        let read = ns(rec, "codec.read", &|| {
            for (i, _) in runs() {
                let mut reader =
                    RunReader::<Record>::open(device, &format!("codec.fwd.{i}")).map_err(err)?;
                while let Some(record) = reader.next_record().map_err(err)? {
                    black_box(record);
                }
            }
            Ok(())
        })?;
        let reverse_write = ns(rec, "codec.reverse_write", &|| {
            for (i, run) in runs() {
                let mut writer =
                    ReverseRunWriter::<Record>::create(device, &format!("codec.rev.{i}"))
                        .map_err(err)?;
                for record in run.iter().rev() {
                    writer.push(record).map_err(err)?;
                }
                writer.finish().map_err(err)?;
            }
            Ok(())
        })?;
        let reverse_read = ns(rec, "codec.reverse_read", &|| {
            for (i, _) in runs() {
                let mut reader =
                    ReverseRunReader::<Record>::open(device, &format!("codec.rev.{i}"))
                        .map_err(err)?;
                while let Some(record) = reader.next_record().map_err(err)? {
                    black_box(record);
                }
            }
            Ok(())
        })?;
        Ok(Codec {
            write,
            read,
            reverse_write,
            reverse_read,
        })
    }
}

/// Page write and read cost on `device`, in nanoseconds per page.
fn page_probe(
    rec: &mut Recorder,
    label: &str,
    device: &dyn StorageDevice,
) -> Result<(f64, f64), String> {
    let err = |e: twrs_storage::StorageError| e.to_string();
    let mut page = vec![0xA5u8; device.page_size()];
    let (write, read) = (
        format!("device.{label}_page_write"),
        format!("device.{label}_page_read"),
    );
    for _ in 0..PROBE_REPEATS {
        rec.span(&write, |_| -> Result<(), String> {
            let mut file = device.create("page.probe").map_err(err)?;
            for index in 0..PROBE_PAGES {
                file.write_page(index, &page).map_err(err)?;
            }
            file.flush().map_err(err)
        })?;
        rec.span(&read, |_| -> Result<(), String> {
            let mut file = device.open("page.probe").map_err(err)?;
            for index in 0..PROBE_PAGES {
                file.read_page(index, &mut page).map_err(err)?;
            }
            Ok(())
        })?;
        device.remove("page.probe").map_err(err)?;
    }
    let ns = |name: &str| median(&rec.durations(name)) * 1e9 / PROBE_PAGES as f64;
    Ok((ns(&write), ns(&read)))
}

fn device_probes(rec: &mut Recorder, report: &mut Report) -> Result<(), String> {
    let sim = build_device("sim:hdd-7200")?;
    let striped = build_device("striped:2:sim:nvme")?;
    let scoped = ScopedDevice::new(build_device("sim:hdd-7200")?);
    let probes: [(&str, &dyn StorageDevice); 3] =
        [("sim", &sim), ("striped", &striped), ("scoped", &scoped)];
    for (label, device) in probes {
        let (write, read) = page_probe(rec, label, device)?;
        report.metric(format!("device.{label}_page_write_ns"), write, "ns");
        report.metric(format!("device.{label}_page_read_ns"), read, "ns");
    }
    Ok(())
}

/// One generator's job taken apart into its public layer calls.
struct Decomposition {
    gen: Gen,
    /// Seconds inside `generate` and inside `merge_into`.
    selection_s: f64,
    merge_s: f64,
    forward_records: u64,
    reverse_records: u64,
    /// Seconds to read the generated runs back.
    read_runs_s: f64,
    runs: usize,
    rel_run_len: f64,
    passes: f64,
}

/// Reads every generated run back, as the merge's first pass does;
/// returns the forward and reverse record counts and the seconds it took.
fn read_runs(device: &dyn StorageDevice, runs: &[RunHandle]) -> Result<(u64, u64, f64), String> {
    let err = |e: twrs_storage::StorageError| e.to_string();
    let (mut forward, mut reverse) = (0, 0);
    let start = Instant::now();
    for run in runs {
        for handle in run.physical() {
            match handle {
                RunHandle::Forward(name) => {
                    let mut reader = RunReader::<Record>::open(device, name).map_err(err)?;
                    while let Some(record) = reader.next_record().map_err(err)? {
                        black_box(record);
                        forward += 1;
                    }
                }
                RunHandle::Reverse(name) => {
                    let mut reader = ReverseRunReader::<Record>::open(device, name).map_err(err)?;
                    while let Some(record) = reader.next_record().map_err(err)? {
                        black_box(record);
                        reverse += 1;
                    }
                }
                RunHandle::Chain(_) => unreachable!("physical() flattens chains"),
            }
        }
    }
    Ok((forward, reverse, start.elapsed().as_secs_f64()))
}

impl Decomposition {
    /// Codec estimate for reading the generated runs back, in seconds.
    fn read_runs_codec_s(&self, codec: &Codec) -> f64 {
        (self.forward_records as f64 * codec.read
            + self.reverse_records as f64 * codec.reverse_read)
            / 1e9
    }

    /// Codec estimate for the runs `generate` wrote, in seconds.
    fn selection_codec_s(&self, codec: &Codec) -> f64 {
        (self.forward_records as f64 * codec.write
            + self.reverse_records as f64 * codec.reverse_write)
            / 1e9
    }
}

fn decompose(
    rec: &mut Recorder,
    gen: Gen,
    w: &ClosedLoop,
    p: &Prepared,
) -> Result<Decomposition, String> {
    let device = &p.device;
    let namer = SpillNamer::new(format!("probe-{}", gen.key()));
    let key = gen.key();
    let result = rec.span(
        &format!("job.{key}"),
        |rec| -> Result<Decomposition, String> {
            let start = Instant::now();
            let runs = rec.span(&format!("selection.{key}"), |_| {
                gen.generate(w.memory, device, &namer, &p.input)
            })?;
            let selection_s = start.elapsed().as_secs_f64();
            let (forward_records, reverse_records, read_runs_s) = read_runs(device, &runs.runs)?;
            let merger = KWayMerger::new(MergeConfig::default());
            let start = Instant::now();
            let merge = rec
                .span(&format!("merge.{key}"), |_| {
                    merger.merge_into::<_, Record>(device, &namer, runs.runs.clone(), OUTPUT_FILE)
                })
                .map_err(|e| e.to_string())?;
            let merge_s = start.elapsed().as_secs_f64();
            Ok(Decomposition {
                gen,
                selection_s,
                merge_s,
                forward_records,
                reverse_records,
                read_runs_s,
                runs: runs.num_runs(),
                rel_run_len: runs.relative_run_length(w.memory),
                passes: merge.write_passes(),
            })
        },
    );
    let checked = result.and_then(|d| read_back(device, OUTPUT_FILE, &p.expected).map(|()| d));
    if device.exists(OUTPUT_FILE) {
        device.remove(OUTPUT_FILE).map_err(|e| e.to_string())?;
    }
    namer.cleanup(device).map_err(|e| e.to_string())?;
    let d = checked?;
    device_is_empty(device)?;
    Ok(d)
}

/// Runs every generator's decomposition; `None` when one failed.
fn decompose_all(
    rec: &mut Recorder,
    w: &ClosedLoop,
    p: &Prepared,
    ops: &mut Ops,
) -> Option<Vec<Decomposition>> {
    let mut all = Vec::new();
    for gen in Gen::ALL {
        match decompose(rec, gen, w, p) {
            Ok(d) => {
                ops.record(&format!("decomposition {}", gen.key()), Ok(()));
                all.push(d);
            }
            Err(e) => ops.record(&format!("decomposition {}", gen.key()), Err(e)),
        }
    }
    (all.len() == Gen::ALL.len()).then_some(all)
}

/// What one round of the traced run measured.
struct Round {
    one: Request,
    /// The one-thread request again, after the decompositions.
    one_again: Request,
    two: Request,
    /// The codec probes before and after the decompositions.
    probes: [Codec; 2],
    traced_s: f64,
    untraced_s: f64,
    /// The traced pass, which the per-layer metrics come from.
    decompositions: Vec<Decomposition>,
    untraced: Vec<Decomposition>,
}

/// What the rounds of a traced run measured.
struct Rounds {
    rounds: Vec<Round>,
}

impl Rounds {
    /// Every decomposition of `gen`, traced and untraced.
    fn all(&self, gen: Gen) -> impl Iterator<Item = &Decomposition> {
        self.rounds
            .iter()
            .flat_map(|r| r.decompositions.iter().chain(&r.untraced))
            .filter(move |d| d.gen == gen)
    }

    fn first(&self, gen: Gen) -> &Decomposition {
        self.rounds[0]
            .decompositions
            .iter()
            .find(|d| d.gen == gen)
            .expect("every generator decomposed")
    }
}

/// Runs rounds until `seconds` have passed (at least [`MIN_ROUNDS`]), and
/// reports every per-layer metric except the input draw, the device
/// counters, the service layer and the fold.
fn rounds(
    w: &ClosedLoop,
    p: &Prepared,
    seconds: f64,
    rec: &mut Recorder,
    report: &mut Report,
    reference: &mut BTreeMap<(Gen, usize), Duration>,
) -> Result<Rounds, String> {
    let probe = CodecProbe::new(w.device, &p.input, w.memory)?;
    device_probes(rec, report)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = Vec::new();
    let mut index = 0;
    while index < MIN_ROUNDS || Instant::now() < deadline {
        rec.set_iteration(index as u32);
        let one = rec.span("sortjob.t1", |_| {
            closed::request(w, p, index, 1, &mut report.ops, reference)
        });
        let two = rec.span("sortjob.t2", |_| {
            closed::request(w, p, index, 2, &mut report.ops, reference)
        });
        // The codec probe runs twice per round, around the decompositions
        // it is compared with, so both are timed over the same stretch.
        let before = probe.once(rec)?;
        // Alternate which of the untraced [0] and traced [1] passes goes
        // first.
        let mut timed = [0.0; 2];
        let mut passes = [None, None];
        for pass in 0..2 {
            let enabled = (pass + index) % 2 == 0;
            rec.set_enabled(enabled);
            let start = Instant::now();
            passes[enabled as usize] = decompose_all(rec, w, p, &mut report.ops);
            timed[enabled as usize] = start.elapsed().as_secs_f64();
        }
        rec.set_enabled(true);
        let [untraced, traced] = passes;
        let after = probe.once(rec)?;
        // The job fold compares one-thread requests with the
        // decompositions, so they too are timed on both sides of them.
        let one_again = rec.span("sortjob.t1", |_| {
            closed::request(w, p, index, 1, &mut report.ops, reference)
        });
        if let (Some(one), Some(one_again), Some(two), Some(untraced), Some(decompositions)) =
            (one, one_again, two, untraced, traced)
        {
            rounds.push(Round {
                one,
                one_again,
                two,
                probes: [before, after],
                traced_s: timed[1],
                untraced_s: timed[0],
                decompositions,
                untraced,
            });
        }
        index += 1;
    }
    if rounds.is_empty() {
        return Err("every traced round failed".into());
    }

    let probes: Vec<&Codec> = rounds.iter().flat_map(|r| &r.probes).collect();
    let ns = |f: fn(&Codec) -> f64| median(&probes.iter().map(|c| f(c)).collect::<Vec<_>>());
    let codec = Codec {
        write: ns(|c| c.write),
        read: ns(|c| c.read),
        reverse_write: ns(|c| c.reverse_write),
        reverse_read: ns(|c| c.reverse_read),
    };
    let rounds = Rounds { rounds };
    for gen in Gen::ALL {
        let key = gen.key();
        let first = rounds.first(gen);
        // Both passes of every round: the recorder's state does not
        // change what happens inside the two calls.
        let selection = median(&rounds.all(gen).map(|d| d.selection_s).collect::<Vec<_>>());
        let merge = median(&rounds.all(gen).map(|d| d.merge_s).collect::<Vec<_>>());
        let self_s = selection - first.selection_codec_s(&codec);
        report.metric(format!("selection.{key}_s"), selection, "s");
        report.metric(format!("selection.{key}_self_s"), self_s, "s");
        report.metric(format!("selection.{key}_runs"), first.runs as f64, "count");
        report.metric(
            format!("selection.{key}_rel_run_len"),
            first.rel_run_len,
            "ratio",
        );
        report.metric(format!("merge.{key}_s"), merge, "s");
        report.metric(format!("merge.{key}_passes"), first.passes, "count");
    }
    report.metric("codec.write_ns_per_record", codec.write, "ns");
    report.metric("codec.read_ns_per_record", codec.read, "ns");
    report.metric(
        "codec.reverse_write_ns_per_record",
        codec.reverse_write,
        "ns",
    );
    report.metric("codec.reverse_read_ns_per_record", codec.reverse_read, "ns");

    let speedup: Vec<f64> = rounds
        .rounds
        .iter()
        .map(|r| r.one.latency / r.two.latency)
        .collect();
    let imbalance: Vec<f64> = rounds
        .rounds
        .iter()
        .map(|r| {
            r.two
                .jobs
                .iter()
                .filter_map(|(_, job)| job.report.shards.as_ref())
                .map(|shards| {
                    let records: Vec<f64> = shards.iter().map(|s| s.records as f64).collect();
                    let mean = records.iter().sum::<f64>() / records.len() as f64;
                    records.iter().copied().fold(0.0, f64::max) / mean
                })
                .fold(1.0, f64::max)
        })
        .collect();
    report.metric("parallel.speedup", median(&speedup), "ratio");
    report.metric("parallel.shard_imbalance", median(&imbalance), "ratio");
    report.metric(
        "parallel.rungen_wall_s",
        median(
            &rounds
                .rounds
                .iter()
                .map(|r| phase_wall(&r.two, false))
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    report.metric(
        "parallel.merge_wall_s",
        median(
            &rounds
                .rounds
                .iter()
                .map(|r| phase_wall(&r.two, true))
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    let overhead: Vec<f64> = rounds
        .rounds
        .iter()
        .map(|r| r.traced_s / r.untraced_s)
        .collect();
    report.metric("trace.overhead_ratio", median(&overhead), "ratio");
    report.note(format!(
        "traced run: {} rounds; fold slack {FOLD_SLACK}",
        rounds.rounds.len()
    ));
    Ok(rounds)
}

/// Summed wall time of one phase over a request's jobs, in seconds.
fn phase_wall(request: &Request, merge: bool) -> f64 {
    request
        .jobs
        .iter()
        .map(|(_, job)| {
            let phase = if merge {
                &job.report.report.merge
            } else {
                &job.report.report.run_generation
            };
            phase.wall.as_secs_f64()
        })
        .sum()
}

fn counters(report: &mut Report, pages_read: u64, pages_written: u64, seeks: u64) {
    report.metric("device.pages_read", pages_read as f64, "count");
    report.metric("device.pages_written", pages_written as f64, "count");
    report.metric("device.seeks", seeks as f64, "count");
}

/// Checks each fold, whose residual must be within [`FOLD_SLACK`], and
/// reports the residual of largest magnitude.
fn folds(report: &mut Report, folds: &[(f64, &str)]) {
    let mut worst = 0.0_f64;
    for &(residual, what) in folds {
        let outcome = if residual.abs() <= FOLD_SLACK {
            Ok(())
        } else {
            Err(format!(
                "{what}: residual {residual:.3} exceeds the slack {FOLD_SLACK}"
            ))
        };
        report.note(format!(
            "fold ({what}): residual {residual:.4}, slack {FOLD_SLACK}"
        ));
        report.ops.record(&format!("fold check ({what})"), outcome);
        if residual.abs() >= worst.abs() {
            worst = residual;
        }
    }
    report.metric("fold.residual_ratio", worst, "ratio");
}

/// The codec fold: the time each round's decompositions took to read
/// their generated runs back, against the codec account of the same reads
/// from the probes that bracket them. Pairing by round keeps the host's
/// drift over a run out of the comparison; the median is over rounds.
fn codec_fold(rounds: &Rounds) -> f64 {
    let residuals: Vec<f64> = rounds
        .rounds
        .iter()
        .map(|r| {
            let [a, b] = &r.probes;
            let probe = Codec {
                read: (a.read + b.read) / 2.0,
                reverse_read: (a.reverse_read + b.reverse_read) / 2.0,
                ..*a
            };
            let passes = || r.decompositions.iter().chain(&r.untraced);
            let measured: f64 = passes().map(|d| d.read_runs_s).sum();
            let estimate: f64 = passes().map(|d| d.read_runs_codec_s(&probe)).sum();
            (measured - estimate) / measured
        })
        .collect();
    median(&residuals)
}

/// The traced run of a closed-loop workload.
pub fn traced_closed(
    w: &ClosedLoop,
    p: &Prepared,
    args: &Args,
    mut report: Report,
    mut reference: BTreeMap<(Gen, usize), Duration>,
) -> Result<Report, String> {
    let mut rec = Recorder::new(w.name, true);
    let rounds = rounds(w, p, args.seconds, &mut rec, &mut report, &mut reference)?;
    report.metric("workloads.gen_s", p.gen_s, "s");

    let e2e = if w.threads == 1 {
        &rounds.rounds[0].one
    } else {
        &rounds.rounds[0].two
    };
    let jobs = &e2e.jobs;
    counters(
        &mut report,
        jobs.iter().map(|(_, j)| j.report.total_pages_read()).sum(),
        jobs.iter()
            .map(|(_, j)| j.report.total_pages_written())
            .sum(),
        jobs.iter().map(|(_, j)| j.report.total_seeks()).sum(),
    );

    service_burst(&mut rec, w, p, &mut report)?;

    // Job fold: the one-thread requests on either side of each round's
    // decompositions against the generate and merge_into calls they are
    // made of. Each call's span is its reported selection self time plus
    // the codec estimate, or its merge time; the codec fold checks that
    // split. Pairing by round keeps the host's drift over a run out of the
    // comparison; the median is over rounds.
    let jobs: Vec<f64> = rounds
        .rounds
        .iter()
        .map(|r| {
            let measured = (r.one.latency + r.one_again.latency) / 2.0;
            let account = r
                .decompositions
                .iter()
                .chain(&r.untraced)
                .filter(|d| w.gens.contains(&d.gen))
                .map(|d| d.selection_s + d.merge_s)
                .sum::<f64>()
                / 2.0;
            (measured - account) / measured
        })
        .collect();
    let mut checks = vec![
        (
            median(&jobs),
            "single-thread jobs vs selection self + codec + merge",
        ),
        (
            codec_fold(&rounds),
            "generated runs read back vs codec estimate",
        ),
    ];
    if w.threads > 1 {
        // The path the end-to-end metrics measure: each multi-thread
        // request against its jobs' run-generation and merge phase
        // windows, paired by round.
        let phased: Vec<f64> = rounds
            .rounds
            .iter()
            .map(|r| {
                let phases = phase_wall(&r.two, false) + phase_wall(&r.two, true);
                (r.two.latency - phases) / r.two.latency
            })
            .collect();
        checks.push((
            median(&phased),
            "two-thread jobs vs run-generation + merge phases",
        ));
    }
    folds(&mut report, &checks);
    write_trace(&rec, args, &mut report)?;
    Ok(report)
}
/// Submits the workload's jobs, twice each, as one burst to a service whose
/// global budget is one job's request, and reports the service layer.
fn service_burst(
    rec: &mut Recorder,
    w: &ClosedLoop,
    p: &Prepared,
    report: &mut Report,
) -> Result<(), String> {
    let service = twrs_extsort::SortService::new(service::service_config(w.memory))
        .map_err(|e| e.to_string())?;
    let device = build_device(w.device)?;
    let plan: Vec<Planned> = (0..2 * w.gens.len())
        .map(|index| Planned {
            index,
            offset: Duration::ZERO,
            tenant: format!("tenant-{}", index % 2),
            gen: w.gens[index % w.gens.len()],
            memory: w.memory,
            expected: p.expected,
        })
        .collect();
    let data = Arc::new(p.input.clone());
    let input = |_: usize| {
        let data = data.clone();
        (0..data.len()).map(move |i| data[i])
    };
    let served = service::replay(
        &service,
        &device,
        &plan,
        Instant::now(),
        input,
        &mut report.ops,
    );
    service.shutdown();
    report
        .ops
        .record("service burst device", device_is_empty(&device));
    if served.is_empty() {
        return Err("no job of the service burst completed".into());
    }
    service::service_layer(rec, &served, report);
    Ok(())
}

/// The traced run of the open-loop service workload: service metrics and
/// the due-time fold from the replay, the other layers from probes on one
/// job of the trace's shape.
pub fn traced_service(
    args: &Args,
    gen_s: f64,
    served: &[Served],
    mut report: Report,
) -> Result<Report, String> {
    let origin = served
        .iter()
        .map(|s| s.start)
        .min()
        .unwrap_or_else(Instant::now);
    let mut rec = Recorder::with_origin(&args.workload, origin);
    let residual = service::service_layer(&mut rec, served, &mut report);
    let p = closed::prepare(&SERVICE_PROBE, args.seed)?;
    let mut reference = BTreeMap::new();
    closed::request(&SERVICE_PROBE, &p, 0, 1, &mut report.ops, &mut reference);
    let probe_seconds = (args.seconds / 4.0).max(1.0);
    let rounds = rounds(
        &SERVICE_PROBE,
        &p,
        probe_seconds,
        &mut rec,
        &mut report,
        &mut reference,
    )?;
    // The replay's own input draw and counters, not the probe's.
    report.metric("workloads.gen_s", gen_s, "s");
    counters(
        &mut report,
        served.iter().map(|s| s.done.io.counters.pages_read).sum(),
        served
            .iter()
            .map(|s| s.done.io.counters.pages_written)
            .sum(),
        served.iter().map(|s| s.done.io.counters.seeks).sum(),
    );
    folds(
        &mut report,
        &[
            (
                residual,
                "latency from due time vs lateness + queue wait + sort",
            ),
            (
                codec_fold(&rounds),
                "generated runs read back vs codec estimate",
            ),
        ],
    );
    write_trace(&rec, args, &mut report)?;
    Ok(report)
}

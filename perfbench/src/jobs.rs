//! One sort job through the public `SortJob` API, with its output checks.

use crate::check::{device_is_empty, stripe_folds, take_seen, CheckSink, Expected};
use std::time::{Duration, Instant};
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{
    LoadSortStore, ReplacementSelection, RunGenerator, RunSet, ShardableGenerator, SortJob,
    SortJobReport,
};
use twrs_storage::{AnyDevice, DeviceSpec, RunReader, SpillNamer, StorageDevice};
use twrs_workloads::Record;

/// The run-generation algorithms the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Gen {
    Rs,
    Twrs,
    Lss,
}

impl Gen {
    pub const ALL: [Gen; 3] = [Gen::Rs, Gen::Twrs, Gen::Lss];

    /// Short name used in metric and span names.
    pub fn key(self) -> &'static str {
        match self {
            Gen::Rs => "rs",
            Gen::Twrs => "twrs",
            Gen::Lss => "lss",
        }
    }

    /// Runs this algorithm's `RunGenerator::generate` over `input`.
    pub fn generate(
        self,
        memory: usize,
        device: &AnyDevice,
        namer: &SpillNamer,
        input: &[Record],
    ) -> Result<RunSet, String> {
        let mut input = input.iter().copied();
        match self {
            Gen::Rs => ReplacementSelection::new(memory).generate(device, namer, &mut input),
            Gen::Twrs => TwoWayReplacementSelection::new(TwrsConfig::recommended(memory))
                .generate(device, namer, &mut input),
            Gen::Lss => LoadSortStore::new(memory).generate(device, namer, &mut input),
        }
        .map_err(|e| e.to_string())
    }
}

/// Where a job's sorted output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Drained into a [`CheckSink`]: no output file.
    Sink,
    /// Written to a run file, read back and checked after the timed call.
    File,
}

/// The output file name used by file-output jobs and decompositions.
pub const OUTPUT_FILE: &str = "perfbench.out";

/// What one checked job measured.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Whole-job wall time as the caller sees it, in seconds.
    pub wall: f64,
    pub report: SortJobReport,
}

impl JobOutcome {
    pub fn sim_io(&self) -> Duration {
        self.report.total_simulated_io()
    }
}

/// Builds the device a spec names.
pub fn build_device(spec: &str) -> Result<AnyDevice, String> {
    spec.parse::<DeviceSpec>()
        .and_then(|spec| spec.build())
        .map_err(|e| format!("device {spec:?}: {e}"))
}

/// Sorts `input` with `gen` and checks the output, that no file is left on
/// the device and that a stripe's member counters fold into its totals.
pub fn run_job(
    gen: Gen,
    memory: usize,
    threads: usize,
    output: Output,
    device: &AnyDevice,
    input: &[Record],
    expected: &Expected,
) -> Result<JobOutcome, String> {
    let outcome = match gen {
        Gen::Rs => sort(
            ReplacementSelection::new(memory),
            threads,
            output,
            device,
            input,
            expected,
        ),
        Gen::Twrs => sort(
            TwoWayReplacementSelection::new(TwrsConfig::recommended(memory)),
            threads,
            output,
            device,
            input,
            expected,
        ),
        Gen::Lss => sort(
            LoadSortStore::new(memory),
            threads,
            output,
            device,
            input,
            expected,
        ),
    }?;
    device_is_empty(device)?;
    stripe_folds(device)?;
    Ok(outcome)
}

fn sort<G: ShardableGenerator>(
    gen: G,
    threads: usize,
    output: Output,
    device: &AnyDevice,
    input: &[Record],
    expected: &Expected,
) -> Result<JobOutcome, String> {
    let job = SortJob::new(gen).on(device).threads(threads);
    match output {
        Output::Sink => {
            let (mut sink, slot) = CheckSink::new();
            let start = Instant::now();
            let report = job
                .sink_iter(input.iter().copied(), &mut sink)
                .map_err(|e| e.to_string())?;
            let wall = start.elapsed().as_secs_f64();
            take_seen(&slot)?.verify(expected)?;
            Ok(JobOutcome { wall, report })
        }
        Output::File => {
            let start = Instant::now();
            let report = job
                .run_iter(input.iter().copied(), OUTPUT_FILE)
                .map_err(|e| e.to_string())?;
            let wall = start.elapsed().as_secs_f64();
            let check = read_back(device, OUTPUT_FILE, expected);
            device.remove(OUTPUT_FILE).map_err(|e| e.to_string())?;
            check?;
            Ok(JobOutcome { wall, report })
        }
    }
}

/// Reads a forward run file back and checks order, count and fingerprint.
pub fn read_back(
    device: &dyn StorageDevice,
    name: &str,
    expected: &Expected,
) -> Result<(), String> {
    let (mut sink, slot) = CheckSink::new();
    let mut reader = RunReader::<Record>::open(device, name).map_err(|e| e.to_string())?;
    while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
        twrs_extsort::RecordSink::push(&mut sink, record).map_err(|e| e.to_string())?;
    }
    twrs_extsort::RecordSink::finish(&mut sink).map_err(|e| e.to_string())?;
    take_seen(&slot)?.verify(expected)
}

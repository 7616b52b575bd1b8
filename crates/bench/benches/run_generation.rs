//! Criterion bench of the run-generation algorithms alone (Figure 5.4
//! context): RS, LSS and 2WRS with different buffer sizes on random input —
//! plus a redesign guard pinning the generic (`SortableRecord`) code path
//! against a pre-redesign concrete reimplementation for the default
//! `Record`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twrs_core::{BufferSetup, TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{
    ForwardRunBuilder, LoadSortStore, ReplacementSelection, RunGenerator, RunHandle, RunSet,
};
use twrs_heaps::{BinaryHeap, MinOrder, RunRecord};
use twrs_storage::ModelId;
use twrs_storage::{SimDevice, SpillNamer};
use twrs_workloads::{Distribution, DistributionKind, Record};

const RECORDS: u64 = 20_000;
const MEMORY: usize = 500;

fn generate<G: RunGenerator>(mut generator: G) -> usize {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("bench");
    let mut input = Distribution::new(DistributionKind::RandomUniform, RECORDS, 1).records();
    generator
        .generate(&device, &namer, &mut input)
        .expect("run generation succeeds")
        .num_runs()
}

fn bench_run_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_generation_random");
    group.throughput(Throughput::Elements(RECORDS));
    group.sample_size(10);

    group.bench_function("load_sort_store", |b| {
        b.iter(|| generate(LoadSortStore::new(MEMORY)))
    });
    group.bench_function("replacement_selection", |b| {
        b.iter(|| generate(ReplacementSelection::new(MEMORY)))
    });
    for fraction in [0.002, 0.02, 0.2] {
        group.bench_with_input(
            BenchmarkId::new("twrs_buffer_fraction", fraction),
            &fraction,
            |b, fraction| {
                b.iter(|| {
                    generate(TwoWayReplacementSelection::new(
                        TwrsConfig::recommended(MEMORY).with_buffers(BufferSetup::Both, *fraction),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Replacement selection hard-coded to the concrete `Record` type, with no
/// `SortableRecord` indirection anywhere: the same peek → write →
/// `replace_top` loop as the generic `ReplacementSelection`, so the pin
/// compares one algorithm under two instantiations. If monomorphization
/// ever stopped compiling the generic path down to this, the
/// `run_generation_generic_pin` group would show the gap.
fn concrete_rs_generate(
    memory_records: usize,
    device: &SimDevice,
    namer: &SpillNamer,
    input: &mut dyn Iterator<Item = Record>,
) -> RunSet {
    let mut initial: Vec<RunRecord<Record>> = Vec::with_capacity(memory_records);
    initial.extend(
        (&mut *input)
            .take(memory_records)
            .map(|record| RunRecord::new(record, 0)),
    );
    let mut heap = BinaryHeap::from_vec(MinOrder, initial);
    let mut runs: Vec<RunHandle> = Vec::new();
    let mut total = 0u64;
    let mut current_run = 0u64;
    let mut builder = ForwardRunBuilder::new(device, namer);
    while let Some(top) = heap.peek() {
        if top.run > current_run {
            total += builder.finish_run(&mut runs).expect("finish run");
            builder = ForwardRunBuilder::new(device, namer);
            current_run = top.run;
        }
        builder.push(&top.value).expect("push record");
        match input.next() {
            Some(next) => {
                let run = if next < top.value {
                    current_run + 1
                } else {
                    current_run
                };
                heap.replace_top(RunRecord::new(next, run));
            }
            None => {
                heap.pop();
            }
        }
    }
    total += builder.finish_run(&mut runs).expect("finish run");
    RunSet {
        runs,
        records: total,
    }
}

/// The redesign guard: the generic `ReplacementSelection` (monomorphized
/// for the default `Record`) must match the pre-redesign concrete code on
/// the same input. Criterion reports both; compare their throughputs.
fn bench_generic_pin(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_generation_generic_pin");
    group.throughput(Throughput::Elements(RECORDS));
    group.sample_size(20);

    group.bench_function("rs_generic_record", |b| {
        b.iter(|| generate(ReplacementSelection::new(MEMORY)))
    });
    group.bench_function("rs_concrete_record", |b| {
        b.iter(|| {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let namer = SpillNamer::new("bench");
            let mut input =
                Distribution::new(DistributionKind::RandomUniform, RECORDS, 1).records();
            concrete_rs_generate(MEMORY, &device, &namer, &mut input).num_runs()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_run_generation, bench_generic_pin);
criterion_main!(benches);

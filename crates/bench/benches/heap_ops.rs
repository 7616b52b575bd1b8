//! Microbenchmarks of the heap substrate: classic binary heap vs the
//! shared-capacity dual heap used by 2WRS (Chapter 3.1 / §4.1 structures),
//! plus the two selection loops' steady states on full-size records.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use twrs_heaps::{BinaryHeap, DualHeap, HeapSide, MinOrder, RunMaxOrder, RunRecord};
use twrs_workloads::{Distribution, DistributionKind, Record};

const OPS: u64 = 10_000;
/// The memory budget of the selection-bound benchmark workload (1% of 2M).
const SELECTION_MEMORY: usize = 20_000;

fn bench_heaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("heap_operations");
    group.throughput(Throughput::Elements(OPS));

    group.bench_function("binary_heap_push_pop", |b| {
        b.iter(|| {
            let mut heap = BinaryHeap::with_capacity(MinOrder, OPS as usize);
            for i in 0..OPS {
                heap.push(i.wrapping_mul(2_654_435_761) % 1_000_000)
                    .unwrap();
            }
            let mut out = 0u64;
            while let Some(v) = heap.pop() {
                out = out.wrapping_add(v);
            }
            out
        })
    });

    group.bench_function("binary_heap_replace_top", |b| {
        b.iter(|| {
            let mut heap =
                BinaryHeap::from_vec(MinOrder, (0..1_000u64).map(|i| i * 7 % 1_000).collect());
            let mut out = 0u64;
            for i in 0..OPS {
                out = out.wrapping_add(
                    heap.replace_top(i.wrapping_mul(2_654_435_761) % 1_000_000)
                        .unwrap_or(0),
                );
            }
            out
        })
    });

    group.bench_function("dual_heap_push_pop_both_sides", |b| {
        b.iter(|| {
            let mut dual: DualHeap<u64> = DualHeap::new(OPS as usize);
            for i in 0..OPS {
                let side = if i % 2 == 0 {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                };
                dual.push(side, i.wrapping_mul(2_654_435_761) % 1_000_000)
                    .unwrap();
            }
            let mut out = 0u64;
            while let Some(v) = dual.pop(HeapSide::Top) {
                out = out.wrapping_add(v);
            }
            while let Some(v) = dual.pop(HeapSide::Bottom) {
                out = out.wrapping_add(v);
            }
            out
        })
    });

    group.finish();
}

/// The selection loops' steady states over `RunRecord<Record>`s: RS's
/// peek → `replace_top`, and 2WRS's pop from one side followed by a push
/// to either side.
fn bench_selection_loops(c: &mut Criterion) {
    let input = Distribution::new(
        DistributionKind::RandomUniform,
        (SELECTION_MEMORY as u64) + OPS,
        1,
    )
    .collect();
    let (fill, stream) = input.split_at(SELECTION_MEMORY);
    let mut group = c.benchmark_group("selection_loops");
    group.throughput(Throughput::Elements(OPS));

    group.bench_function("rs_replace_top_20k_run_records", |b| {
        b.iter(|| {
            let mut heap = BinaryHeap::from_vec(
                MinOrder,
                fill.iter().map(|r| RunRecord::new(*r, 0)).collect(),
            );
            let mut out = 0u64;
            for next in stream {
                let Some(top) = heap.peek() else { break };
                out = out.wrapping_add(top.value.key);
                let run = top.run + u64::from(*next < top.value);
                heap.replace_top(RunRecord::new(*next, run));
            }
            out
        })
    });

    group.bench_function("twrs_dual_heap_churn_20k_run_records", |b| {
        b.iter(|| {
            let mut dual: DualHeap<RunRecord<Record>, MinOrder, RunMaxOrder> =
                DualHeap::with_orders(SELECTION_MEMORY, MinOrder, RunMaxOrder);
            for (i, r) in fill.iter().enumerate() {
                let side = if i % 2 == 0 {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                };
                dual.push(side, RunRecord::new(*r, 0)).unwrap();
            }
            let mut out = 0u64;
            for (i, next) in stream.iter().enumerate() {
                let from = if i % 2 == 0 {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                };
                let popped = dual.pop(from).expect("both sides stay non-empty");
                out = out.wrapping_add(popped.value.key);
                let to = if next.key & 1 == 0 {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                };
                dual.push(to, RunRecord::new(*next, 0)).unwrap();
            }
            out
        })
    });

    group.finish();
}

criterion_group!(benches, bench_heaps, bench_selection_loops);
criterion_main!(benches);

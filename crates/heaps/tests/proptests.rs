//! Property-based tests for the heap structures.

use proptest::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap as StdHeap;
use twrs_heaps::dual_heap::DualHeapFull;
use twrs_heaps::{
    heapsort, heapsort_by, BinaryHeap, DualHeap, HeapOrder, HeapSide, MaxOrder, MinOrder,
    RunMaxOrder, RunRecord,
};

/// Checks `replace_top` and `pop` on a heap under `order` against a sorted
/// vector kept in the same order (`cmp`). `ops` are `(replace?, run,
/// value)`; the small run and value ranges make duplicates common.
fn check_against_sorted<O: HeapOrder<RunRecord<u8>>>(
    order: O,
    cmp: fn(&RunRecord<u8>, &RunRecord<u8>) -> Ordering,
    initial: &[(u64, u8)],
    ops: &[(bool, u64, u8)],
) {
    let initial: Vec<RunRecord<u8>> = initial
        .iter()
        .map(|&(run, v)| RunRecord::new(v, run))
        .collect();
    let mut heap = BinaryHeap::from_vec(order, initial.clone());
    let mut model = initial;
    model.sort_by(cmp);
    for &(replace, run, value) in ops {
        let record = RunRecord::new(value, run);
        if replace {
            let expected = if model.is_empty() {
                None
            } else {
                Some(model.remove(0))
            };
            assert_eq!(heap.replace_top(record), expected);
            let at = model.partition_point(|m| cmp(m, &record) != Ordering::Greater);
            model.insert(at, record);
        } else {
            let expected = if model.is_empty() {
                None
            } else {
                Some(model.remove(0))
            };
            assert_eq!(heap.pop(), expected);
        }
        assert_eq!(heap.debug_validate(), None);
        assert_eq!(heap.peek(), model.first());
    }
    assert_eq!(heap.drain_sorted(), model);
}

proptest! {
    /// Popping a min-heap yields the input in ascending order.
    #[test]
    fn min_heap_sorts(values in prop::collection::vec(any::<i64>(), 0..256)) {
        let mut heap = BinaryHeap::unbounded(MinOrder);
        for &v in &values {
            heap.push(v).unwrap();
            prop_assert_eq!(heap.debug_validate(), None);
        }
        let drained = heap.drain_sorted();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(drained, expected);
    }

    /// Popping a max-heap yields the input in descending order.
    #[test]
    fn max_heap_sorts_descending(values in prop::collection::vec(any::<i64>(), 0..256)) {
        let heap = BinaryHeap::from_vec(MaxOrder, values.clone());
        prop_assert_eq!(heap.debug_validate(), None);
        let mut heap = heap;
        let drained = heap.drain_sorted();
        let mut expected = values;
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(drained, expected);
    }

    /// `replace_top` behaves like pop-then-push.
    #[test]
    fn replace_top_equivalent_to_pop_push(
        initial in prop::collection::vec(any::<i32>(), 1..128),
        replacement in any::<i32>(),
    ) {
        let mut a = BinaryHeap::from_vec(MinOrder, initial.clone());
        let mut b = BinaryHeap::from_vec(MinOrder, initial);
        let via_replace = a.replace_top(replacement);
        let via_pop = b.pop();
        b.push(replacement).unwrap();
        prop_assert_eq!(via_replace, via_pop);
        prop_assert_eq!(a.drain_sorted(), b.drain_sorted());
    }

    /// An arbitrary interleaving of pushes and pops never violates the heap
    /// property and the popped prefix is always consistent with a heap.
    #[test]
    fn heap_invariant_under_mixed_ops(ops in prop::collection::vec((any::<bool>(), any::<u16>()), 0..512)) {
        let mut heap = BinaryHeap::unbounded(MinOrder);
        for (is_pop, value) in ops {
            if is_pop {
                heap.pop();
            } else {
                heap.push(value).unwrap();
            }
            prop_assert_eq!(heap.debug_validate(), None);
        }
    }

    /// The dual heap splits any input into an ascending stream and a
    /// descending stream that together contain every record.
    #[test]
    fn dual_heap_partitions_input(
        values in prop::collection::vec(any::<i32>(), 0..256),
        sides in prop::collection::vec(any::<bool>(), 0..256),
    ) {
        let n = values.len();
        let mut dual: DualHeap<i32> = DualHeap::new(n.max(1));
        for (i, &v) in values.iter().enumerate() {
            let side = if *sides.get(i).unwrap_or(&true) { HeapSide::Top } else { HeapSide::Bottom };
            dual.push(side, v).unwrap();
            prop_assert_eq!(dual.debug_validate(), None);
        }
        let mut ascending = Vec::new();
        while let Some(v) = dual.pop(HeapSide::Top) { ascending.push(v); }
        let mut descending = Vec::new();
        while let Some(v) = dual.pop(HeapSide::Bottom) { descending.push(v); }
        prop_assert!(ascending.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(descending.windows(2).all(|w| w[0] >= w[1]));
        let mut all: Vec<i32> = ascending.into_iter().chain(descending).collect();
        all.sort_unstable();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(all, expected);
    }

    /// Heapsort agrees with the standard library sort.
    #[test]
    fn heapsort_matches_std(values in prop::collection::vec(any::<i64>(), 0..512)) {
        let mut ours = values.clone();
        heapsort(&mut ours);
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(ours, expected);
    }

    /// Heapsort with a reversed comparator agrees with a reversed std sort.
    #[test]
    fn heapsort_by_matches_std(values in prop::collection::vec(any::<i64>(), 0..512)) {
        let mut ours = values.clone();
        heapsort_by(&mut ours, |a, b| b.cmp(a));
        let mut expected = values;
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(ours, expected);
    }

    /// Run-tagged records always surface lower runs before higher runs in a
    /// min-heap, regardless of their values.
    #[test]
    fn run_records_respect_run_major_order(
        entries in prop::collection::vec((0u64..4, any::<i32>()), 1..256),
    ) {
        let mut heap = BinaryHeap::unbounded(MinOrder);
        for &(run, value) in &entries {
            heap.push(RunRecord::new(value, run)).unwrap();
        }
        let drained = heap.drain_sorted();
        prop_assert!(drained.windows(2).all(|w| w[0].run <= w[1].run));
        prop_assert!(drained
            .windows(2)
            .all(|w| w[0].run < w[1].run || w[0].value <= w[1].value));
    }

    /// `replace_top` and `pop` agree with a sorted model under every order
    /// the pipeline uses, on duplicate-heavy run-tagged records.
    #[test]
    fn replace_top_and_pop_match_sort(
        initial in prop::collection::vec((0u64..3, 0u8..6), 0..64),
        ops in prop::collection::vec((any::<bool>(), 0u64..3, 0u8..6), 0..128),
    ) {
        check_against_sorted(MinOrder, |a, b| a.cmp(b), &initial, &ops);
        check_against_sorted(MaxOrder, |a, b| b.cmp(a), &initial, &ops);
        check_against_sorted(
            RunMaxOrder,
            |a, b| a.run.cmp(&b.run).then_with(|| b.value.cmp(&a.value)),
            &initial,
            &ops,
        );
    }

    /// The dual heap behaves like two `std` heaps that share one capacity:
    /// same roots, pops, lengths, pop counters, rejections when full and
    /// drained contents.
    #[test]
    fn dual_heap_matches_two_std_heaps(
        capacity in 0usize..12,
        ops in prop::collection::vec((0u8..16, any::<bool>(), 0u8..8), 0..256),
    ) {
        let mut dual: DualHeap<u8> = DualHeap::new(capacity);
        let mut top: StdHeap<Reverse<u8>> = StdHeap::new();
        let mut bottom: StdHeap<u8> = StdHeap::new();
        let mut pops = [0u64; 2];
        for (op, on_top, value) in ops {
            let side = if on_top { HeapSide::Top } else { HeapSide::Bottom };
            match op {
                0..=7 => {
                    let full = top.len() + bottom.len() >= capacity;
                    let result = dual.push(side, value);
                    if full {
                        prop_assert_eq!(result, Err(DualHeapFull(value)));
                    } else {
                        prop_assert_eq!(result, Ok(()));
                        if on_top { top.push(Reverse(value)) } else { bottom.push(value) }
                    }
                }
                8..=13 => {
                    let expected = if on_top { top.pop().map(|r| r.0) } else { bottom.pop() };
                    if expected.is_some() {
                        pops[usize::from(!on_top)] += 1;
                    }
                    prop_assert_eq!(dual.pop(side), expected);
                }
                14 => {
                    dual.reset_pop_counters();
                    pops = [0, 0];
                }
                _ => {
                    let mut drained: Vec<u8> = dual.drain().collect();
                    let mut expected: Vec<u8> =
                        top.drain().map(|r| r.0).chain(bottom.drain()).collect();
                    drained.sort_unstable();
                    expected.sort_unstable();
                    prop_assert_eq!(drained, expected);
                }
            }
            prop_assert_eq!(dual.debug_validate(), None);
            prop_assert_eq!(dual.peek(HeapSide::Top), top.peek().map(|r| &r.0));
            prop_assert_eq!(dual.peek(HeapSide::Bottom), bottom.peek());
            prop_assert_eq!(dual.len_of(HeapSide::Top), top.len());
            prop_assert_eq!(dual.len_of(HeapSide::Bottom), bottom.len());
            prop_assert_eq!(dual.free(), capacity - top.len() - bottom.len());
            prop_assert_eq!(dual.pops_from(HeapSide::Top), pops[0]);
            prop_assert_eq!(dual.pops_from(HeapSide::Bottom), pops[1]);
        }
    }
}

//! Array-backed binary heap with its ordering fixed at compile time.
//!
//! The implementation follows §3.1 of the paper: the heap is a complete
//! binary tree stored in a contiguous array where the node with index `i`
//! has its parent at `(i - 1) / 2` and its children at `2i + 1` and
//! `2i + 2`. Adding a record appends it at the end and bubbles it up
//! (*upheap*); removing or replacing the top sinks the new root down
//! (*downheap*). Both operations are `O(log n)` and share one hole-moving
//! sift (see the `sift` module): `pop` and `replace_top` sink bottom-up,
//! which is about one comparison per level instead of two.
//!
//! Unlike `std::collections::BinaryHeap`, this heap:
//!
//! * can be bounded to a fixed capacity (replacement selection works with a
//!   fixed memory budget),
//! * takes its ordering as a type parameter ([`HeapOrder`]): [`MinOrder`]
//!   for the TopHeap, [`MaxOrder`] for the BottomHeap, or any other
//!   zero-sized order such as [`RunMaxOrder`](crate::RunMaxOrder). Every
//!   order is monomorphized, so no comparison branches on the heap kind,
//! * exposes [`BinaryHeap::debug_validate`] so tests can check the heap
//!   property after arbitrary operation sequences.

use crate::sift::{sift_down_range, sift_down_to_bottom, sift_up};
use std::fmt;

/// The order of a heap: which of two records sits closer to the root.
///
/// Implementations are usually zero-sized, so a heap pays nothing to carry
/// one and every comparison is inlined.
pub trait HeapOrder<T> {
    /// Returns `true` when `a` must sit closer to the root than `b`.
    fn before(&self, a: &T, b: &T) -> bool;
}

/// Root holds the minimum element; popping yields a non-decreasing
/// sequence. The paper's TopHeap (§4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MinOrder;

impl<T: Ord> HeapOrder<T> for MinOrder {
    #[inline]
    fn before(&self, a: &T, b: &T) -> bool {
        a < b
    }
}

/// Root holds the maximum element; popping yields a non-increasing
/// sequence. The paper's BottomHeap over plain values (§4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MaxOrder;

impl<T: Ord> HeapOrder<T> for MaxOrder {
    #[inline]
    fn before(&self, a: &T, b: &T) -> bool {
        a > b
    }
}

/// A bounded, array-backed binary heap under the order `O`.
///
/// # Examples
///
/// ```
/// use twrs_heaps::{BinaryHeap, MinOrder};
///
/// let mut heap = BinaryHeap::with_capacity(MinOrder, 8);
/// for x in [5, 1, 4, 2, 3] {
///     heap.push(x).unwrap();
/// }
/// assert_eq!(heap.peek(), Some(&1));
/// assert_eq!(heap.pop(), Some(1));
/// assert_eq!(heap.replace_top(6), Some(2));
/// assert_eq!(heap.len(), 4);
/// assert_eq!(heap.drain_sorted(), vec![3, 4, 5, 6]);
/// ```
#[derive(Clone)]
pub struct BinaryHeap<T, O = MinOrder> {
    order: O,
    data: Vec<T>,
    capacity: usize,
}

/// Error returned by [`BinaryHeap::push`] when the heap is already at its
/// fixed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapFull;

impl fmt::Display for HeapFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heap is at capacity")
    }
}

impl std::error::Error for HeapFull {}

impl<T, O: HeapOrder<T>> BinaryHeap<T, O> {
    /// Creates an empty heap with the given order and a fixed capacity.
    ///
    /// The backing array is allocated once; the heap never reallocates.
    pub fn with_capacity(order: O, capacity: usize) -> Self {
        BinaryHeap {
            order,
            data: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Creates an unbounded heap with the given order.
    pub fn unbounded(order: O) -> Self {
        BinaryHeap {
            order,
            data: Vec::new(),
            capacity: usize::MAX,
        }
    }

    /// Builds an unbounded heap from an existing vector in `O(n)` using
    /// Floyd's bottom-up heapify.
    pub fn from_vec(order: O, data: Vec<T>) -> Self {
        let mut heap = BinaryHeap {
            order,
            data,
            capacity: usize::MAX,
        };
        let len = heap.data.len();
        for i in (0..len / 2).rev() {
            sift_down_range(&mut heap.data, i, len, &mut by(&heap.order));
        }
        heap
    }

    /// Number of records currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the heap stores no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Maximum number of records the heap may hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` when the heap is at its fixed capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.data.len() >= self.capacity
    }

    /// Returns a reference to the top record (the record that orders
    /// before every other) without removing it.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    /// Adds a record, restoring the heap property with the *upheap*
    /// procedure of §3.1.1.
    ///
    /// Returns [`HeapFull`] if the heap is at capacity; the record is handed
    /// back inside the error so the caller does not lose it.
    pub fn push(&mut self, value: T) -> Result<(), (HeapFull, T)> {
        if self.is_full() {
            return Err((HeapFull, value));
        }
        self.data.push(value);
        let last = self.data.len() - 1;
        sift_up(&mut self.data, 0, last, &mut by(&self.order));
        Ok(())
    }

    /// Removes and returns the top record. The last record takes the root's
    /// place and sinks bottom-up (§3.1.1's *downheap*).
    pub fn pop(&mut self) -> Option<T> {
        let mut item = self.data.pop()?;
        if !self.data.is_empty() {
            std::mem::swap(&mut item, &mut self.data[0]);
            let len = self.data.len();
            sift_down_to_bottom(&mut self.data, 0, len, &mut by(&self.order));
        }
        Some(item)
    }

    /// Replaces the top record with `value` in a single sift and returns the
    /// record that left the heap.
    ///
    /// This is the inner-loop operation of replacement selection: the output
    /// record leaves the heap and the freshly read input record takes its
    /// place, so the heap size never changes. It costs one bottom-up sift
    /// instead of a `pop` followed by a `push`.
    ///
    /// On an empty heap there is no top to replace: `value` is pushed and
    /// `None` returned, unless the heap has no room (capacity zero), in which
    /// case `value` itself is handed back as the record that left.
    pub fn replace_top(&mut self, value: T) -> Option<T> {
        if self.data.is_empty() {
            return self.push(value).err().map(|(_, value)| value);
        }
        let old = std::mem::replace(&mut self.data[0], value);
        let len = self.data.len();
        sift_down_to_bottom(&mut self.data, 0, len, &mut by(&self.order));
        Some(old)
    }

    /// Replaces the heap's contents with `sorted`, which must already be in
    /// pop order (ascending under the heap's order). A sequence in pop order
    /// is a valid heap, so no sift runs and the backing array is reused.
    ///
    /// Fails without changing the heap when `sorted` holds more records than
    /// the capacity.
    pub fn refill_sorted(
        &mut self,
        sorted: impl ExactSizeIterator<Item = T>,
    ) -> Result<(), HeapFull> {
        if sorted.len() > self.capacity {
            return Err(HeapFull);
        }
        self.data.clear();
        self.data.extend(sorted);
        debug_assert_eq!(
            self.debug_validate(),
            None,
            "refill_sorted input is not in pop order"
        );
        Ok(())
    }

    /// Removes every record, yielding them in heap-array order (not
    /// sorted). The backing array keeps its allocation.
    pub fn drain(&mut self) -> std::vec::Drain<'_, T> {
        self.data.drain(..)
    }

    /// Removes every record and returns them in pop order (ascending for a
    /// min-heap, descending for a max-heap).
    pub fn drain_sorted(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.data.len());
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }

    /// Iterates over the stored records in unspecified (heap-array) order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Checks the heap property over the whole array.
    ///
    /// Intended for tests: returns the index of the first violating node, or
    /// `None` when the heap is valid.
    pub fn debug_validate(&self) -> Option<usize> {
        (1..self.data.len()).find(|&i| self.order.before(&self.data[i], &self.data[(i - 1) / 2]))
    }
}

/// `order` as the predicate the sift procedures take.
#[inline]
fn by<T, O: HeapOrder<T>>(order: &O) -> impl FnMut(&T, &T) -> bool + '_ {
    move |a, b| order.before(a, b)
}

impl<T: fmt::Debug, O> fmt::Debug for BinaryHeap<T, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinaryHeap")
            .field("order", &std::any::type_name::<O>())
            .field("len", &self.data.len())
            .field("capacity", &self.capacity)
            .field("data", &self.data)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_heap_pops_ascending() {
        let mut heap = BinaryHeap::with_capacity(MinOrder, 16);
        for x in [9, 3, 7, 1, 8, 2, 6, 4, 5, 0] {
            heap.push(x).unwrap();
            assert_eq!(heap.debug_validate(), None);
        }
        let drained = heap.drain_sorted();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn max_heap_pops_descending() {
        let mut heap = BinaryHeap::with_capacity(MaxOrder, 16);
        for x in [9, 3, 7, 1, 8, 2, 6, 4, 5, 0] {
            heap.push(x).unwrap();
            assert_eq!(heap.debug_validate(), None);
        }
        let drained = heap.drain_sorted();
        assert_eq!(drained, vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn paper_figure_3_3_insertion_example() {
        // Figure 3.3: inserting 91 into the max heap {93, 88, 82, 66, 20, 42, 7}
        // bubbles it up past 66 and 88 but not past 93.
        let mut heap = BinaryHeap::from_vec(MaxOrder, vec![93, 88, 82, 66, 20, 42, 7]);
        assert_eq!(heap.debug_validate(), None);
        heap.push(91).unwrap();
        assert_eq!(heap.peek(), Some(&93));
        assert_eq!(heap.debug_validate(), None);
        // After the upheap the second level must contain 91 and 82.
        let level_two: Vec<i32> = heap.iter().skip(1).take(2).copied().collect();
        assert!(level_two.contains(&91));
        assert!(level_two.contains(&82));
    }

    #[test]
    fn paper_figure_3_4_deletion_example() {
        // Figure 3.4: removing the top of {93, 91, 82, 88, 20, 42, 7, 66}
        // leaves 91 at the root.
        let mut heap = BinaryHeap::from_vec(MaxOrder, vec![93, 91, 82, 88, 20, 42, 7, 66]);
        assert_eq!(heap.pop(), Some(93));
        assert_eq!(heap.peek(), Some(&91));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut heap = BinaryHeap::with_capacity(MinOrder, 2);
        heap.push(1).unwrap();
        heap.push(2).unwrap();
        let err = heap.push(3);
        assert!(matches!(err, Err((HeapFull, 3))));
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn replace_top_keeps_size_and_order() {
        let mut heap = BinaryHeap::from_vec(MinOrder, vec![2, 5, 9, 7, 6]);
        let old = heap.replace_top(4);
        assert_eq!(old, Some(2));
        assert_eq!(heap.len(), 5);
        assert_eq!(heap.peek(), Some(&4));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn replace_top_on_empty_heap_inserts() {
        let mut heap: BinaryHeap<i32> = BinaryHeap::with_capacity(MinOrder, 4);
        assert_eq!(heap.replace_top(3), None);
        assert_eq!(heap.peek(), Some(&3));
    }

    #[test]
    fn replace_top_respects_a_zero_capacity() {
        let mut heap: BinaryHeap<i32> = BinaryHeap::with_capacity(MinOrder, 0);
        assert_eq!(heap.replace_top(3), Some(3));
        assert_eq!(heap.len(), 0);
        assert!(heap.len() <= heap.capacity());
    }

    #[test]
    fn refill_sorted_installs_a_sorted_sequence_as_is() {
        let mut heap = BinaryHeap::with_capacity(MaxOrder, 4);
        heap.push(1).unwrap();
        heap.refill_sorted([9, 7, 7, 2].into_iter()).unwrap();
        assert_eq!(heap.iter().copied().collect::<Vec<_>>(), vec![9, 7, 7, 2]);
        assert_eq!(
            heap.refill_sorted([5, 4, 3, 2, 1].into_iter()),
            Err(HeapFull)
        );
        assert_eq!(heap.drain_sorted(), vec![9, 7, 7, 2]);
    }

    #[test]
    fn drain_keeps_the_reserved_array() {
        let mut heap = BinaryHeap::with_capacity(MinOrder, 64);
        heap.push(2).unwrap();
        heap.push(1).unwrap();
        let mut drained: Vec<i32> = heap.drain().collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2]);
        assert!(heap.is_empty());
        assert!(heap.data.capacity() >= 64);
    }

    #[test]
    fn owned_values_move_through_the_hole_intact() {
        // Heap-owning values catch a hole that copies an element twice or
        // drops one (run under a sanitizer to see it).
        let words = ["kiwi", "fig", "apple", "date", "cherry", "banana", "egg"];
        let mut heap = BinaryHeap::from_vec(MaxOrder, words.map(String::from).to_vec());
        assert_eq!(heap.replace_top("grape".into()), Some("kiwi".into()));
        assert_eq!(heap.pop(), Some("grape".into()));
        heap.push("zucchini".into()).unwrap();
        let mut expected = vec![
            "zucchini", "fig", "egg", "date", "cherry", "banana", "apple",
        ];
        assert_eq!(
            heap.drain_sorted(),
            expected.drain(..).map(String::from).collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_vec_heapifies() {
        let heap = BinaryHeap::from_vec(MinOrder, vec![9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(heap.peek(), Some(&1));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn duplicates_are_preserved() {
        let mut heap = BinaryHeap::with_capacity(MinOrder, 8);
        for x in [3, 3, 1, 1, 2, 2] {
            heap.push(x).unwrap();
        }
        assert_eq!(heap.drain_sorted(), vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn unbounded_heap_grows() {
        let mut heap = BinaryHeap::unbounded(MaxOrder);
        for x in 0..1000 {
            heap.push(x).unwrap();
        }
        assert_eq!(heap.len(), 1000);
        assert_eq!(heap.peek(), Some(&999));
    }

    #[test]
    fn empty_heap_behaviour() {
        let mut heap: BinaryHeap<u64> = BinaryHeap::with_capacity(MinOrder, 4);
        assert!(heap.is_empty());
        assert_eq!(heap.pop(), None);
        assert_eq!(heap.peek(), None);
        assert_eq!(heap.debug_validate(), None);
    }
}

//! The dual heap of two-way replacement selection (§4.1).
//!
//! 2WRS keeps two heaps in memory: the **TopHeap**, a min-heap whose pops
//! form an increasing stream, and the **BottomHeap**, a max-heap whose pops
//! form a decreasing stream. The share of memory each heap needs changes
//! with the input, so the paper stores both in a *single fixed array* that
//! they fill from opposite ends (Figure 4.3): either heap can grow exactly
//! when the other shrinks, and nothing is allocated during run generation.
//!
//! [`DualHeap`] keeps that contract with a *shared capacity count* instead
//! of a shared array. Each side is a plain [`BinaryHeap`] that reserves the
//! full capacity up front, and a push on either side is refused once the
//! two sizes together reach the capacity. So a side still grows only at the
//! other's expense (Figures 4.4 and 4.5), no allocation happens after
//! construction, and both sides run the crate's one monomorphized sift with
//! no per-comparison side dispatch. The price is a second reserved array:
//! `2 × capacity` slots of memory for `capacity` records.
//!
//! The side orders are type parameters: [`MinOrder`] and [`MaxOrder`] by
//! default; 2WRS pairs [`MinOrder`] with [`RunMaxOrder`](crate::RunMaxOrder)
//! so next-run records sink in both heaps.

use crate::binary_heap::{BinaryHeap, HeapOrder, MaxOrder, MinOrder};
use std::fmt;

/// Identifies one of the two heaps stored in a [`DualHeap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapSide {
    /// The min-heap producing the increasing output stream (stream 1).
    Top,
    /// The max-heap producing the decreasing output stream (stream 4).
    Bottom,
}

impl HeapSide {
    /// The other side.
    #[inline]
    pub fn opposite(self) -> HeapSide {
        match self {
            HeapSide::Top => HeapSide::Bottom,
            HeapSide::Bottom => HeapSide::Top,
        }
    }
}

/// Two heaps sharing one capacity: the TopHeap under order `TO`, the
/// BottomHeap under order `BO`.
///
/// # Examples
///
/// ```
/// use twrs_heaps::{DualHeap, HeapSide};
///
/// let mut dual: DualHeap<u32> = DualHeap::new(8);
/// dual.push(HeapSide::Top, 50).unwrap();
/// dual.push(HeapSide::Top, 52).unwrap();
/// dual.push(HeapSide::Bottom, 40).unwrap();
/// dual.push(HeapSide::Bottom, 38).unwrap();
///
/// // The top side pops ascending, the bottom side pops descending.
/// assert_eq!(dual.peek(HeapSide::Top), Some(&50));
/// assert_eq!(dual.peek(HeapSide::Bottom), Some(&40));
/// assert_eq!(dual.pop(HeapSide::Bottom), Some(40));
/// assert_eq!(dual.pop(HeapSide::Top), Some(50));
/// ```
pub struct DualHeap<T, TO = MinOrder, BO = MaxOrder> {
    top: BinaryHeap<T, TO>,
    bottom: BinaryHeap<T, BO>,
    /// Records the two sides may hold together.
    capacity: usize,
    /// Cumulative pops per side (top, bottom), used by the Useful heuristics.
    pops: [u64; 2],
}

/// Error returned when pushing into a full [`DualHeap`]; carries the value
/// back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualHeapFull<T>(pub T);

impl<T: fmt::Debug> fmt::Display for DualHeapFull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dual heap is at capacity; rejected {:?}", self.0)
    }
}

impl<T: fmt::Debug> std::error::Error for DualHeapFull<T> {}

impl<T: Ord> DualHeap<T> {
    /// Creates a dual heap with the natural orders (a min-heap on top, a
    /// max-heap at the bottom) and the given total capacity shared by both
    /// sides.
    pub fn new(capacity: usize) -> Self {
        Self::with_orders(capacity, MinOrder, MaxOrder)
    }
}

impl<T, TO: HeapOrder<T>, BO: HeapOrder<T>> DualHeap<T, TO, BO> {
    /// Creates a dual heap with custom side orders. Both sides reserve the
    /// whole `capacity` now, so no push ever allocates.
    pub fn with_orders(capacity: usize, top: TO, bottom: BO) -> Self {
        DualHeap {
            top: BinaryHeap::with_capacity(top, capacity),
            bottom: BinaryHeap::with_capacity(bottom, capacity),
            capacity,
            pops: [0, 0],
        }
    }

    /// Total capacity shared by the two heaps.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently stored on `side`.
    #[inline]
    pub fn len_of(&self, side: HeapSide) -> usize {
        match side {
            HeapSide::Top => self.top.len(),
            HeapSide::Bottom => self.bottom.len(),
        }
    }

    /// Total number of records stored across both heaps.
    #[inline]
    pub fn len(&self) -> usize {
        self.top.len() + self.bottom.len()
    }

    /// `true` when both heaps are empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the shared capacity is used up.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Free capacity remaining for either side.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.len()
    }

    /// Number of records popped from `side` since construction (or the last
    /// [`DualHeap::reset_pop_counters`] call). Used by the *Useful*
    /// heuristics, which measure the usefulness of a heap as records output
    /// divided by size (§4.2).
    #[inline]
    pub fn pops_from(&self, side: HeapSide) -> u64 {
        self.pops[side as usize]
    }

    /// Resets the per-side pop counters (used at run boundaries).
    pub fn reset_pop_counters(&mut self) {
        self.pops = [0, 0];
    }

    /// Returns a reference to the root record of `side` without removing it.
    #[inline]
    pub fn peek(&self, side: HeapSide) -> Option<&T> {
        match side {
            HeapSide::Top => self.top.peek(),
            HeapSide::Bottom => self.bottom.peek(),
        }
    }

    /// Pushes a record onto `side`.
    ///
    /// Fails with [`DualHeapFull`] when the *shared* capacity is used up,
    /// i.e. the combined size of both heaps has reached the capacity,
    /// regardless of which side the record was destined for.
    pub fn push(&mut self, side: HeapSide, value: T) -> Result<(), DualHeapFull<T>> {
        if self.is_full() {
            return Err(DualHeapFull(value));
        }
        match side {
            HeapSide::Top => self.top.push(value),
            HeapSide::Bottom => self.bottom.push(value),
        }
        .map_err(|(_, value)| DualHeapFull(value))
    }

    /// Pops the root record of `side`, shrinking that heap by one and
    /// freeing capacity either heap may subsequently use (Figure 4.4).
    pub fn pop(&mut self, side: HeapSide) -> Option<T> {
        let value = match side {
            HeapSide::Top => self.top.pop(),
            HeapSide::Bottom => self.bottom.pop(),
        }?;
        self.pops[side as usize] += 1;
        Some(value)
    }

    /// Replaces the contents of `side` with `sorted`, which must already be
    /// in that side's pop order (see [`BinaryHeap::refill_sorted`]); no sift
    /// runs. Fails without changing anything when the records would not fit
    /// next to the other side's.
    pub fn refill_sorted(
        &mut self,
        side: HeapSide,
        sorted: impl ExactSizeIterator<Item = T>,
    ) -> Result<(), DualHeapFull<()>> {
        if sorted.len() > self.capacity - self.len_of(side.opposite()) {
            return Err(DualHeapFull(()));
        }
        match side {
            HeapSide::Top => self.top.refill_sorted(sorted),
            HeapSide::Bottom => self.bottom.refill_sorted(sorted),
        }
        .map_err(|_| DualHeapFull(()))
    }

    /// Drains every record from both heaps in unspecified order. Both sides
    /// keep their reserved arrays.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.top.drain().chain(self.bottom.drain())
    }

    /// Iterates over the records of `side` in unspecified (heap-array)
    /// order.
    pub fn iter_side(&self, side: HeapSide) -> std::slice::Iter<'_, T> {
        match side {
            HeapSide::Top => self.top.iter(),
            HeapSide::Bottom => self.bottom.iter(),
        }
    }

    /// Validates the shared capacity and both heap properties. Returns a
    /// description of the first violation found, or `None` when the
    /// structure is consistent. Intended for tests.
    pub fn debug_validate(&self) -> Option<String> {
        if self.len() > self.capacity {
            return Some(format!(
                "overflow: top_len={} bottom_len={} capacity={}",
                self.top.len(),
                self.bottom.len(),
                self.capacity
            ));
        }
        if let Some(i) = self.top.debug_validate() {
            return Some(format!("heap property violated on Top at index {i}"));
        }
        self.bottom
            .debug_validate()
            .map(|i| format!("heap property violated on Bottom at index {i}"))
    }
}

impl<T, TO: HeapOrder<T>, BO: HeapOrder<T>> fmt::Debug for DualHeap<T, TO, BO> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DualHeap")
            .field("capacity", &self.capacity)
            .field("top_len", &self.top.len())
            .field("bottom_len", &self.bottom.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the two heaps of Figure 4.2 in a 14-slot shared array.
    fn paper_figure_4_3() -> DualHeap<u32> {
        let mut dual = DualHeap::new(14);
        // BottomHeap (max heap) of Figure 4.2: {33, 28, 32, 16, 20, 22, 4}.
        for v in [33, 28, 32, 16, 20, 22, 4] {
            dual.push(HeapSide::Bottom, v).unwrap();
        }
        // TopHeap (min heap) of Figure 4.2: {52, 54, 72, 75, 64, 81, 77}.
        for v in [52, 54, 72, 75, 64, 81, 77] {
            dual.push(HeapSide::Top, v).unwrap();
        }
        dual
    }

    #[test]
    fn figure_4_3_roots() {
        let dual = paper_figure_4_3();
        assert!(dual.is_full());
        assert_eq!(dual.peek(HeapSide::Bottom), Some(&33));
        assert_eq!(dual.peek(HeapSide::Top), Some(&52));
        assert_eq!(dual.debug_validate(), None);
    }

    #[test]
    fn figure_4_4_and_4_5_grow_at_the_expense_of_the_other() {
        // Removing the BottomHeap root (33) frees one slot...
        let mut dual = paper_figure_4_3();
        assert_eq!(dual.pop(HeapSide::Bottom), Some(33));
        assert_eq!(dual.len_of(HeapSide::Bottom), 6);
        assert_eq!(dual.free(), 1);
        assert_eq!(dual.debug_validate(), None);
        // ...which the TopHeap can then use (Figure 4.5: insert 53).
        dual.push(HeapSide::Top, 53).unwrap();
        assert_eq!(dual.len_of(HeapSide::Top), 8);
        assert!(dual.is_full());
        assert_eq!(dual.peek(HeapSide::Top), Some(&52));
        assert_eq!(dual.debug_validate(), None);
    }

    #[test]
    fn push_fails_only_when_shared_array_is_full() {
        let mut dual: DualHeap<u32> = DualHeap::new(4);
        dual.push(HeapSide::Top, 1).unwrap();
        dual.push(HeapSide::Top, 2).unwrap();
        dual.push(HeapSide::Bottom, 3).unwrap();
        dual.push(HeapSide::Bottom, 4).unwrap();
        let err = dual.push(HeapSide::Top, 5);
        assert_eq!(err, Err(DualHeapFull(5)));
        assert_eq!(dual.len(), 4);
    }

    #[test]
    fn top_side_pops_ascending_bottom_side_descending() {
        let mut dual: DualHeap<i64> = DualHeap::new(32);
        let values = [14, 3, 99, -7, 42, 0, 23, 8];
        for &v in &values {
            dual.push(HeapSide::Top, v).unwrap();
            dual.push(HeapSide::Bottom, v).unwrap();
        }
        let mut ascending = Vec::new();
        while let Some(v) = dual.pop(HeapSide::Top) {
            ascending.push(v);
        }
        let mut descending = Vec::new();
        while let Some(v) = dual.pop(HeapSide::Bottom) {
            descending.push(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        assert_eq!(ascending, sorted);
        sorted.reverse();
        assert_eq!(descending, sorted);
    }

    #[test]
    fn one_sided_use_is_equivalent_to_a_single_heap() {
        // When the TopHeap occupies the whole array and the BottomHeap stays
        // empty, the structure degenerates to plain replacement selection
        // (§4.1 "If the TopHeap grows to occupy the whole memory ... the
        // algorithm is equivalent to RS").
        let mut dual: DualHeap<u32> = DualHeap::new(16);
        for v in [9, 1, 8, 2, 7, 3, 6, 4, 5] {
            dual.push(HeapSide::Top, v).unwrap();
        }
        assert_eq!(dual.len_of(HeapSide::Bottom), 0);
        let mut out = Vec::new();
        while let Some(v) = dual.pop(HeapSide::Top) {
            out.push(v);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn pop_counters_track_usefulness_inputs() {
        let mut dual: DualHeap<u32> = DualHeap::new(8);
        dual.push(HeapSide::Top, 1).unwrap();
        dual.push(HeapSide::Top, 2).unwrap();
        dual.push(HeapSide::Bottom, 3).unwrap();
        dual.pop(HeapSide::Top);
        dual.pop(HeapSide::Top);
        dual.pop(HeapSide::Bottom);
        assert_eq!(dual.pops_from(HeapSide::Top), 2);
        assert_eq!(dual.pops_from(HeapSide::Bottom), 1);
        dual.reset_pop_counters();
        assert_eq!(dual.pops_from(HeapSide::Top), 0);
    }

    #[test]
    fn drain_empties_both_sides() {
        let mut dual = paper_figure_4_3();
        let all: Vec<u32> = dual.drain().collect();
        assert_eq!(all.len(), 14);
        assert!(dual.is_empty());
        assert_eq!(dual.debug_validate(), None);
    }

    #[test]
    fn empty_heap_edge_cases() {
        let mut dual: DualHeap<u32> = DualHeap::new(0);
        assert!(dual.is_full());
        assert!(dual.is_empty());
        assert_eq!(dual.pop(HeapSide::Top), None);
        assert_eq!(dual.pop(HeapSide::Bottom), None);
        assert_eq!(dual.push(HeapSide::Top, 1), Err(DualHeapFull(1)));
    }

    #[test]
    fn custom_order_is_respected() {
        /// Orders by the value modulo 10, smallest residue first.
        struct Mod10;
        impl HeapOrder<u32> for Mod10 {
            fn before(&self, a: &u32, b: &u32) -> bool {
                a % 10 < b % 10
            }
        }
        let mut dual = DualHeap::with_orders(8, Mod10, MaxOrder);
        for v in [21, 13, 47, 95] {
            dual.push(HeapSide::Top, v).unwrap();
            dual.push(HeapSide::Bottom, v).unwrap();
        }
        assert!(dual.is_full());
        let top: Vec<u32> = std::iter::from_fn(|| dual.pop(HeapSide::Top)).collect();
        assert_eq!(top, vec![21, 13, 95, 47]);
        assert_eq!(dual.pop(HeapSide::Bottom), Some(95));
    }

    #[test]
    fn refill_sorted_installs_both_sides_without_sifting() {
        let mut dual: DualHeap<u32> = DualHeap::new(6);
        dual.push(HeapSide::Top, 99).unwrap();
        dual.refill_sorted(HeapSide::Bottom, [30, 20, 10].into_iter())
            .unwrap();
        // Only two slots remain next to the three bottom records and the
        // top side's old record is replaced, not kept.
        assert_eq!(
            dual.refill_sorted(HeapSide::Top, [40, 50, 60, 70].into_iter()),
            Err(DualHeapFull(()))
        );
        dual.refill_sorted(HeapSide::Top, [40, 50, 60].into_iter())
            .unwrap();
        assert!(dual.is_full());
        assert_eq!(dual.debug_validate(), None);
        assert_eq!(dual.pop(HeapSide::Top), Some(40));
        assert_eq!(dual.pop(HeapSide::Bottom), Some(30));
    }

    #[test]
    fn iter_side_visits_only_that_side() {
        let dual = paper_figure_4_3();
        let top: Vec<u32> = dual.iter_side(HeapSide::Top).copied().collect();
        let bottom: Vec<u32> = dual.iter_side(HeapSide::Bottom).copied().collect();
        assert_eq!(top.len(), 7);
        assert_eq!(bottom.len(), 7);
        assert!(top.iter().all(|v| *v >= 52));
        assert!(bottom.iter().all(|v| *v <= 33));
    }
}

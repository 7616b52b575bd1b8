//! Records tagged with the run they belong to.
//!
//! Replacement selection (§3.3) marks records that cannot join the current
//! run as belonging to the *next* run and keeps them at the bottom of the
//! heap by treating them as larger than every current-run record. Tagging
//! the record with its run number and ordering by `(run, value)` achieves
//! exactly that: the run number is the major sort key, so the heap only
//! surfaces next-run records once every current-run record has left.

use crate::HeapOrder;
use std::cmp::Ordering;

/// A value tagged with the run number it has been assigned to.
///
/// Ordering is lexicographic on `(run, value)`, which makes a min-heap of
/// `RunRecord`s behave like the paper's replacement-selection heap: records
/// marked for a later run sink below all records of the current run.
///
/// # Examples
///
/// ```
/// use twrs_heaps::RunRecord;
///
/// let current = RunRecord::new(10_u64, 0);
/// let next = RunRecord::new(1_u64, 1);
/// // The next-run record orders after the current-run record even though
/// // its value is smaller.
/// assert!(current < next);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunRecord<T> {
    /// The payload value (usually a sort key or a full record).
    pub value: T,
    /// The run this record has been assigned to.
    pub run: u64,
}

impl<T> RunRecord<T> {
    /// Tags `value` as belonging to run `run`.
    pub fn new(value: T, run: u64) -> Self {
        RunRecord { value, run }
    }

    /// Consumes the tag and returns the inner value.
    pub fn into_value(self) -> T {
        self.value
    }

    /// Maps the inner value, keeping the run tag.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunRecord<U> {
        RunRecord {
            value: f(self.value),
            run: self.run,
        }
    }
}

impl<T: Ord> PartialOrd for RunRecord<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }

    // The heaps compare with `<` and `>` only. Spelled with non-short-circuit
    // `|` and `&`, neither branches on the run comparison, which is a coin
    // flip wherever current-run and next-run records meet in a heap.
    #[inline]
    fn lt(&self, other: &Self) -> bool {
        (self.run < other.run) | ((self.run == other.run) & (self.value < other.value))
    }

    #[inline]
    fn gt(&self, other: &Self) -> bool {
        other.lt(self)
    }
}

impl<T: Ord> Ord for RunRecord<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.run
            .cmp(&other.run)
            .then_with(|| self.value.cmp(&other.value))
    }
}

/// The BottomHeap order for run-tagged records: earlier runs first, and
/// within a run the *largest* value first.
///
/// A plain [`MaxOrder`](crate::MaxOrder) over `RunRecord` would surface the
/// *latest* run first; 2WRS needs next-run records to sink in the
/// BottomHeap exactly as they do in the TopHeap (a
/// [`MinOrder`](crate::MinOrder) heap of `RunRecord`s), so the run stays the
/// major key in both directions.
///
/// # Examples
///
/// ```
/// use twrs_heaps::{BinaryHeap, RunMaxOrder, RunRecord};
///
/// let mut bottom = BinaryHeap::with_capacity(RunMaxOrder, 4);
/// bottom.push(RunRecord::new(10_u64, 0)).unwrap();
/// bottom.push(RunRecord::new(90_u64, 1)).unwrap();
/// bottom.push(RunRecord::new(40_u64, 0)).unwrap();
/// assert_eq!(bottom.pop(), Some(RunRecord::new(40, 0)));
/// assert_eq!(bottom.pop(), Some(RunRecord::new(10, 0)));
/// assert_eq!(bottom.pop(), Some(RunRecord::new(90, 1)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RunMaxOrder;

impl<T: Ord> HeapOrder<RunRecord<T>> for RunMaxOrder {
    #[inline]
    fn before(&self, a: &RunRecord<T>, b: &RunRecord<T>) -> bool {
        // Branch-free on the run, as `RunRecord::lt` is.
        (a.run < b.run) | ((a.run == b.run) & (a.value > b.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryHeap, MinOrder};

    #[test]
    fn run_is_the_major_key() {
        let a = RunRecord::new(100, 0);
        let b = RunRecord::new(1, 1);
        let c = RunRecord::new(50, 0);
        assert!(a < b);
        assert!(c < a);
        assert!(c < b);
    }

    #[test]
    fn equal_runs_compare_by_value() {
        let a = RunRecord::new(3, 2);
        let b = RunRecord::new(7, 2);
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn min_heap_surfaces_current_run_first() {
        let mut heap = BinaryHeap::with_capacity(MinOrder, 8);
        heap.push(RunRecord::new(40, 0)).unwrap();
        heap.push(RunRecord::new(5, 1)).unwrap();
        heap.push(RunRecord::new(60, 0)).unwrap();
        heap.push(RunRecord::new(1, 1)).unwrap();

        assert_eq!(heap.pop(), Some(RunRecord::new(40, 0)));
        assert_eq!(heap.pop(), Some(RunRecord::new(60, 0)));
        // Only once the current run is exhausted do next-run records appear.
        assert_eq!(heap.pop(), Some(RunRecord::new(1, 1)));
        assert_eq!(heap.pop(), Some(RunRecord::new(5, 1)));
    }

    #[test]
    fn map_preserves_run() {
        let r = RunRecord::new(4_u32, 7).map(|v| v * 2);
        assert_eq!(r.value, 8);
        assert_eq!(r.run, 7);
    }
}

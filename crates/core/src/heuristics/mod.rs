//! The input and output heuristics of 2WRS (§4.2).
//!
//! When a record could legally join either heap, the **input heuristic**
//! decides which one receives it; when both heaps can emit a current-run
//! record, the **output heuristic** decides which one does. The paper
//! defines six input and five output heuristics and studies all thirty
//! combinations with ANOVA (Chapter 5), concluding that *Mean* ×
//! *Random* is a robust general-purpose choice.

pub mod input;
pub mod output;

pub use input::{InputHeuristic, InputHeuristicState};
pub use output::{OutputHeuristic, OutputHeuristicState};

/// A snapshot of the algorithm state the heuristics are allowed to look at.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicContext {
    /// Number of records currently stored in the TopHeap.
    pub top_len: usize,
    /// Number of records currently stored in the BottomHeap.
    pub bottom_len: usize,
    /// Records emitted by the TopHeap since the start of the current run.
    pub top_pops: u64,
    /// Records emitted by the BottomHeap since the start of the current run.
    pub bottom_pops: u64,
    /// Mean key of the input buffer contents, when available.
    pub input_mean: Option<u64>,
    /// Median key of the input buffer contents, when available.
    pub input_median: Option<u64>,
    /// Key of the first record output in the current run, when any.
    pub first_output: Option<u64>,
    /// Key at the root of the TopHeap, when the heap is not empty.
    pub top_root: Option<u64>,
    /// Key at the root of the BottomHeap, when the heap is not empty.
    pub bottom_root: Option<u64>,
}

/// The parts of a [`HeuristicContext`] a heuristic reads. The algorithm
/// fills only these, so a heuristic that reads nothing (Random, Alternate)
/// costs no context at all on the per-record path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextNeeds {
    /// Heap sizes and pop counts (the Useful and Balancing heuristics).
    pub sizes: bool,
    /// The input buffer's mean key (the Mean input heuristic).
    pub input_mean: bool,
    /// The input buffer's median key (the Median input heuristic).
    pub input_median: bool,
    /// The run's first output key and both heap roots (the MinDistance
    /// output heuristic).
    pub keys: bool,
}

impl HeuristicContext {
    /// Usefulness of the TopHeap: records it emitted divided by its size
    /// (the measure defined in §4.2 for the *Useful* heuristics).
    pub fn top_usefulness(&self) -> f64 {
        usefulness(self.top_pops, self.top_len)
    }

    /// Usefulness of the BottomHeap.
    pub fn bottom_usefulness(&self) -> f64 {
        usefulness(self.bottom_pops, self.bottom_len)
    }
}

fn usefulness(pops: u64, len: usize) -> f64 {
    if len == 0 {
        // An empty heap is maximally useful to insert into only if it has
        // been producing output; rate it by its pops alone.
        pops as f64
    } else {
        pops as f64 / len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usefulness_is_pops_over_size() {
        let ctx = HeuristicContext {
            top_len: 10,
            bottom_len: 5,
            top_pops: 30,
            bottom_pops: 5,
            ..HeuristicContext::default()
        };
        assert!((ctx.top_usefulness() - 3.0).abs() < 1e-12);
        assert!((ctx.bottom_usefulness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_heap_usefulness_does_not_divide_by_zero() {
        let ctx = HeuristicContext {
            top_len: 0,
            top_pops: 7,
            ..HeuristicContext::default()
        };
        assert_eq!(ctx.top_usefulness(), 7.0);
    }
}

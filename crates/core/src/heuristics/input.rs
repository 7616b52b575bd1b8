//! Input heuristics: which heap receives a record that fits both (§4.2).

use super::{ContextNeeds, HeuristicContext};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use twrs_heaps::HeapSide;
use twrs_storage::SortableRecord;

/// The six input heuristics of the paper (factor γ of the ANOVA, levels
/// k = 0..5 in Table 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputHeuristic {
    /// Choose a heap uniformly at random.
    Random,
    /// Alternate strictly between the two heaps.
    Alternate,
    /// Compare the record with the mean of the input buffer: records above
    /// the mean go to the TopHeap, records below to the BottomHeap.
    Mean,
    /// Like `Mean` but comparing against the median of the input buffer.
    Median,
    /// Insert into the heap that has been most useful so far (records output
    /// divided by heap size).
    Useful,
    /// Insert into the smaller heap, keeping the two heaps balanced.
    Balancing,
}

impl InputHeuristic {
    /// All heuristics in the paper's factor-level order.
    pub fn all() -> [InputHeuristic; 6] {
        [
            InputHeuristic::Random,
            InputHeuristic::Alternate,
            InputHeuristic::Mean,
            InputHeuristic::Median,
            InputHeuristic::Useful,
            InputHeuristic::Balancing,
        ]
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            InputHeuristic::Random => "random",
            InputHeuristic::Alternate => "alternate",
            InputHeuristic::Mean => "mean",
            InputHeuristic::Median => "median",
            InputHeuristic::Useful => "useful",
            InputHeuristic::Balancing => "balancing",
        }
    }

    /// The context fields this heuristic reads.
    pub fn needs(self) -> ContextNeeds {
        ContextNeeds {
            sizes: matches!(self, InputHeuristic::Useful | InputHeuristic::Balancing),
            input_mean: self == InputHeuristic::Mean,
            input_median: self == InputHeuristic::Median,
            keys: false,
        }
    }
}

/// Runtime state of an input heuristic.
#[derive(Debug, Clone)]
pub struct InputHeuristicState {
    heuristic: InputHeuristic,
    rng: SmallRng,
    /// Next side for the Alternate heuristic.
    next_side: HeapSide,
}

impl InputHeuristicState {
    /// Creates the state for `heuristic`, seeding its random source with
    /// `seed`.
    pub fn new(heuristic: InputHeuristic, seed: u64) -> Self {
        InputHeuristicState {
            heuristic,
            rng: SmallRng::seed_from_u64(seed ^ 0x1157),
            next_side: HeapSide::Bottom,
        }
    }

    /// The heuristic this state implements.
    pub fn heuristic(&self) -> InputHeuristic {
        self.heuristic
    }

    /// Chooses the heap that should store `record` when both heaps could
    /// accept it. Key comparisons use the record's
    /// [`sort_key`](SortableRecord::sort_key) projection.
    pub fn choose<R: SortableRecord>(&mut self, record: &R, ctx: &HeuristicContext) -> HeapSide {
        match self.heuristic {
            InputHeuristic::Random => {
                if self.rng.gen::<bool>() {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                }
            }
            InputHeuristic::Alternate => {
                let side = self.next_side;
                self.next_side = side.opposite();
                side
            }
            InputHeuristic::Mean => threshold_choice(record.sort_key(), ctx.input_mean),
            InputHeuristic::Median => threshold_choice(record.sort_key(), ctx.input_median),
            InputHeuristic::Useful => {
                if ctx.top_usefulness() >= ctx.bottom_usefulness() {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                }
            }
            InputHeuristic::Balancing => {
                if ctx.top_len <= ctx.bottom_len {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                }
            }
        }
    }
}

/// Records above the threshold go to the TopHeap, the rest to the
/// BottomHeap; without a threshold (empty buffer at the very start) default
/// to the TopHeap, which makes the algorithm degenerate gracefully to
/// classic RS.
fn threshold_choice(key: u64, threshold: Option<u64>) -> HeapSide {
    match threshold {
        Some(t) if key <= t => HeapSide::Bottom,
        _ => HeapSide::Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with_mean(mean: u64) -> HeuristicContext {
        HeuristicContext {
            input_mean: Some(mean),
            input_median: Some(mean),
            ..HeuristicContext::default()
        }
    }

    #[test]
    fn mean_routes_by_threshold() {
        let mut state = InputHeuristicState::new(InputHeuristic::Mean, 1);
        let ctx = ctx_with_mean(100);
        assert_eq!(state.choose(&150u64, &ctx), HeapSide::Top);
        assert_eq!(state.choose(&50u64, &ctx), HeapSide::Bottom);
        assert_eq!(state.choose(&100u64, &ctx), HeapSide::Bottom);
    }

    #[test]
    fn median_routes_by_threshold() {
        let mut state = InputHeuristicState::new(InputHeuristic::Median, 1);
        let ctx = ctx_with_mean(42);
        assert_eq!(state.choose(&43u64, &ctx), HeapSide::Top);
        assert_eq!(state.choose(&41u64, &ctx), HeapSide::Bottom);
    }

    #[test]
    fn missing_threshold_defaults_to_top() {
        let mut state = InputHeuristicState::new(InputHeuristic::Mean, 1);
        let ctx = HeuristicContext::default();
        assert_eq!(state.choose(&1u64, &ctx), HeapSide::Top);
    }

    #[test]
    fn alternate_alternates() {
        let mut state = InputHeuristicState::new(InputHeuristic::Alternate, 1);
        let ctx = HeuristicContext::default();
        let first = state.choose(&1u64, &ctx);
        let second = state.choose(&2u64, &ctx);
        let third = state.choose(&3u64, &ctx);
        assert_ne!(first, second);
        assert_eq!(first, third);
    }

    #[test]
    fn random_uses_both_sides() {
        let mut state = InputHeuristicState::new(InputHeuristic::Random, 7);
        let ctx = HeuristicContext::default();
        let mut tops = 0;
        for i in 0..200 {
            if state.choose(&i, &ctx) == HeapSide::Top {
                tops += 1;
            }
        }
        assert!((50..150).contains(&tops), "tops = {tops}");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let ctx = HeuristicContext::default();
        let run = |seed: u64| {
            let mut state = InputHeuristicState::new(InputHeuristic::Random, seed);
            (0..32).map(|i| state.choose(&i, &ctx)).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn useful_prefers_the_productive_heap() {
        let mut state = InputHeuristicState::new(InputHeuristic::Useful, 1);
        let ctx = HeuristicContext {
            top_len: 10,
            bottom_len: 10,
            top_pops: 5,
            bottom_pops: 50,
            ..HeuristicContext::default()
        };
        assert_eq!(state.choose(&1u64, &ctx), HeapSide::Bottom);
    }

    #[test]
    fn balancing_prefers_the_smaller_heap() {
        let mut state = InputHeuristicState::new(InputHeuristic::Balancing, 1);
        let ctx = HeuristicContext {
            top_len: 100,
            bottom_len: 20,
            ..HeuristicContext::default()
        };
        assert_eq!(state.choose(&1u64, &ctx), HeapSide::Bottom);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            InputHeuristic::all().iter().map(|h| h.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}

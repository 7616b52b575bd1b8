//! Output heuristics: which heap emits the next record when both can (§4.2).

use super::{ContextNeeds, HeuristicContext};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use twrs_heaps::HeapSide;

/// The five output heuristics of the paper (factor δ of the ANOVA, levels
/// l = 0..4 in Table 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputHeuristic {
    /// Pop from a heap chosen uniformly at random.
    Random,
    /// Alternate strictly between the two heaps.
    Alternate,
    /// Pop from the heap that has been most useful so far.
    Useful,
    /// Pop from the larger heap, keeping the two heaps the same size.
    Balancing,
    /// Pop the record closest (in absolute key distance) to the first record
    /// output in the current run.
    MinDistance,
}

impl OutputHeuristic {
    /// All heuristics in the paper's factor-level order.
    pub fn all() -> [OutputHeuristic; 5] {
        [
            OutputHeuristic::Random,
            OutputHeuristic::Alternate,
            OutputHeuristic::Useful,
            OutputHeuristic::Balancing,
            OutputHeuristic::MinDistance,
        ]
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            OutputHeuristic::Random => "random",
            OutputHeuristic::Alternate => "alternate",
            OutputHeuristic::Useful => "useful",
            OutputHeuristic::Balancing => "balancing",
            OutputHeuristic::MinDistance => "min-distance",
        }
    }

    /// The context fields this heuristic reads.
    pub fn needs(self) -> ContextNeeds {
        ContextNeeds {
            sizes: matches!(self, OutputHeuristic::Useful | OutputHeuristic::Balancing),
            input_mean: false,
            input_median: false,
            keys: self == OutputHeuristic::MinDistance,
        }
    }
}

/// Runtime state of an output heuristic.
#[derive(Debug, Clone)]
pub struct OutputHeuristicState {
    heuristic: OutputHeuristic,
    rng: SmallRng,
    next_side: HeapSide,
}

impl OutputHeuristicState {
    /// Creates the state for `heuristic`, seeding its random source with
    /// `seed`.
    pub fn new(heuristic: OutputHeuristic, seed: u64) -> Self {
        OutputHeuristicState {
            heuristic,
            rng: SmallRng::seed_from_u64(seed ^ 0x0075),
            next_side: HeapSide::Bottom,
        }
    }

    /// The heuristic this state implements.
    pub fn heuristic(&self) -> OutputHeuristic {
        self.heuristic
    }

    /// Chooses the heap to pop from when both heaps hold a current-run
    /// record at their root.
    pub fn choose(&mut self, ctx: &HeuristicContext) -> HeapSide {
        match self.heuristic {
            OutputHeuristic::Random => {
                if self.rng.gen::<bool>() {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                }
            }
            OutputHeuristic::Alternate => {
                let side = self.next_side;
                self.next_side = side.opposite();
                side
            }
            OutputHeuristic::Useful => {
                if ctx.top_usefulness() >= ctx.bottom_usefulness() {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                }
            }
            OutputHeuristic::Balancing => {
                if ctx.top_len >= ctx.bottom_len {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                }
            }
            OutputHeuristic::MinDistance => {
                let reference = match ctx.first_output {
                    Some(first) => first,
                    // The very first output of the run: pick at random, as
                    // the paper specifies.
                    None => {
                        return if self.rng.gen::<bool>() {
                            HeapSide::Top
                        } else {
                            HeapSide::Bottom
                        };
                    }
                };
                match (ctx.top_root, ctx.bottom_root) {
                    (Some(top), Some(bottom)) => {
                        if top.abs_diff(reference) <= bottom.abs_diff(reference) {
                            HeapSide::Top
                        } else {
                            HeapSide::Bottom
                        }
                    }
                    (Some(_), None) => HeapSide::Top,
                    _ => HeapSide::Bottom,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternate_alternates() {
        let mut state = OutputHeuristicState::new(OutputHeuristic::Alternate, 1);
        let ctx = HeuristicContext::default();
        let a = state.choose(&ctx);
        let b = state.choose(&ctx);
        assert_ne!(a, b);
        assert_eq!(a, state.choose(&ctx));
    }

    #[test]
    fn balancing_pops_from_the_larger_heap() {
        let mut state = OutputHeuristicState::new(OutputHeuristic::Balancing, 1);
        let ctx = HeuristicContext {
            top_len: 3,
            bottom_len: 9,
            ..HeuristicContext::default()
        };
        assert_eq!(state.choose(&ctx), HeapSide::Bottom);
    }

    #[test]
    fn useful_pops_from_the_productive_heap() {
        let mut state = OutputHeuristicState::new(OutputHeuristic::Useful, 1);
        let ctx = HeuristicContext {
            top_len: 10,
            bottom_len: 10,
            top_pops: 90,
            bottom_pops: 10,
            ..HeuristicContext::default()
        };
        assert_eq!(state.choose(&ctx), HeapSide::Top);
    }

    #[test]
    fn min_distance_prefers_the_closer_root() {
        let mut state = OutputHeuristicState::new(OutputHeuristic::MinDistance, 1);
        let ctx = HeuristicContext {
            first_output: Some(100),
            top_root: Some(140),
            bottom_root: Some(90),
            ..HeuristicContext::default()
        };
        assert_eq!(state.choose(&ctx), HeapSide::Bottom);
        let ctx = HeuristicContext {
            first_output: Some(100),
            top_root: Some(101),
            bottom_root: Some(40),
            ..HeuristicContext::default()
        };
        assert_eq!(state.choose(&ctx), HeapSide::Top);
    }

    #[test]
    fn min_distance_first_output_is_random_but_deterministic() {
        let choose_first = |seed: u64| {
            let mut state = OutputHeuristicState::new(OutputHeuristic::MinDistance, seed);
            state.choose(&HeuristicContext::default())
        };
        assert_eq!(choose_first(5), choose_first(5));
    }

    #[test]
    fn random_uses_both_sides() {
        let mut state = OutputHeuristicState::new(OutputHeuristic::Random, 3);
        let ctx = HeuristicContext::default();
        let tops = (0..200)
            .filter(|_| state.choose(&ctx) == HeapSide::Top)
            .count();
        assert!((50..150).contains(&tops));
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            OutputHeuristic::all().iter().map(|h| h.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}

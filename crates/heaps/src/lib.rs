//! Heap data structures for replacement-selection style run generation.
//!
//! This crate provides the in-memory substrate of the paper *"Two-way
//! Replacement Selection"* (VLDB 2010):
//!
//! * [`BinaryHeap`] — a classic array-backed binary heap with explicit
//!   `upheap`/`downheap` procedures (paper §3.1), parameterised at compile
//!   time over its [`HeapOrder`] so the same code serves as a min-heap
//!   ([`MinOrder`], the TopHeap) and a max-heap ([`MaxOrder`], the
//!   BottomHeap).
//! * [`DualHeap`] — the paper's §4.1 structure: a TopHeap and a BottomHeap
//!   that share **one fixed capacity**, so one heap can grow at the expense
//!   of the other without allocating during run generation.
//! * [`RunRecord`] — a record tagged with the run it belongs to; records
//!   marked for the *next* run order after every record of the current
//!   run in a min-heap, and [`RunMaxOrder`] does the same for the max heap,
//!   which is how both RS and 2WRS keep next-run records at the bottom of
//!   the heap (§3.3).
//! * [`heapsort`](mod@heapsort) — the §3.2 internal sorting algorithm, used both as a
//!   pedagogical baseline and as the victim-buffer sorter fallback.
//!
//! Every heap here shares one sift (the private `sift` module): it moves a
//! hole instead of swapping, and sinks replaced roots bottom-up. Its three
//! raw copies are the crate's only `unsafe` code. The
//! structures are allocation-free after construction, every operation is
//! `O(log n)`, and each exposes a `debug_validate` hook used by the
//! property tests.
//!
//! Everything here is generic over any `Ord` payload: the sort pipeline
//! instantiates these structures with `RunRecord<R>` for every
//! `twrs_storage::SortableRecord` it sorts, so no heap code ever names a
//! concrete record type.

#![warn(missing_docs)]

pub mod binary_heap;
pub mod dual_heap;
pub mod heapsort;
pub mod run_record;
mod sift;

pub use binary_heap::{BinaryHeap, HeapOrder, MaxOrder, MinOrder};
pub use dual_heap::{DualHeap, HeapSide};
pub use heapsort::{heapsort, heapsort_by};
pub use run_record::{RunMaxOrder, RunRecord};

//! The two-way replacement selection algorithm (Chapter 4, Algorithm 2).
//!
//! # Structure
//!
//! Records read from the input flow through the [`InputBuffer`] into one of
//! the two heaps of a [`DualHeap`] (the choice is made by the input
//! heuristic when both heaps could accept the record). At every step one
//! record leaves a heap — the output heuristic picks the heap when both
//! could emit — and one record is read from the input; records that fall in
//! the gap between the two emitted streams are parked in the
//! [`VictimBuffer`] instead of being pushed to the next run. Each run is
//! written as up to four non-overlapping streams (see [`crate::streams`])
//! and exposed to the merge phase as one logical run.
//!
//! # Correctness guarantees
//!
//! The paper describes the heuristics informally and assumes they roughly
//! partition the key space. This implementation guarantees sorted,
//! non-overlapping streams for *any* heuristic by checking the stream
//! boundaries at emission time: a record popped from a heap is appended to
//! that heap's stream when it fits, rerouted to the victim buffer or the
//! opposite stream when it fits there instead, and deferred to the next run
//! otherwise (exactly the mechanism classic RS uses for late records). With
//! the paper's heuristics and inputs the deferral path is essentially never
//! taken; the [`TwrsRunStats`] report makes it observable.

use crate::config::TwrsConfig;
use crate::heuristics::input::InputHeuristicState;
use crate::heuristics::output::OutputHeuristicState;
use crate::heuristics::{ContextNeeds, HeuristicContext};
use crate::input_buffer::InputBuffer;
use crate::streams::RunStreams;
use crate::victim::VictimBuffer;
use twrs_extsort::{
    BudgetedGenerator, Device, Result, RunGenerator, RunHandle, RunSet, ShardableGenerator,
    SortError,
};
use twrs_heaps::{DualHeap, HeapSide, MinOrder, RunMaxOrder, RunRecord};
use twrs_storage::{SortableRecord, SpillNamer};

/// The dual heap of run-tagged records: both sides order by run first (so
/// next-run records sink), then the top side ascending and the bottom side
/// descending by record value.
type RunDualHeap<R> = DualHeap<RunRecord<R>, MinOrder, RunMaxOrder>;

/// Statistics accumulated over one [`RunGenerator::generate`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwrsRunStats {
    /// Records emitted through stream 1 (TopHeap, increasing).
    pub stream1_records: u64,
    /// Records emitted through stream 2 (victim upper, decreasing).
    pub stream2_records: u64,
    /// Records emitted through stream 3 (victim lower, increasing).
    pub stream3_records: u64,
    /// Records emitted through stream 4 (BottomHeap, decreasing).
    pub stream4_records: u64,
    /// Records that passed through the victim buffer (bootstrap included).
    pub victim_records: u64,
    /// Records deferred to the next run at emission time because they no
    /// longer fit any stream (normally zero or a handful per run).
    pub deferred_records: u64,
    /// Records that were emitted by the heap opposite to the stream that
    /// finally accepted them (cross emissions).
    pub cross_emitted_records: u64,
    /// Number of runs generated.
    pub runs: u64,
}

/// Two-way replacement selection run generation.
#[derive(Debug, Clone)]
pub struct TwoWayReplacementSelection {
    config: TwrsConfig,
    stats: TwrsRunStats,
}

impl TwoWayReplacementSelection {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: TwrsConfig) -> Self {
        TwoWayReplacementSelection {
            config,
            stats: TwrsRunStats::default(),
        }
    }

    /// Creates the algorithm with the recommended configuration of §5.3 for
    /// the given memory budget.
    pub fn recommended(memory_records: usize) -> Self {
        Self::new(TwrsConfig::recommended(memory_records))
    }

    /// The configuration in force.
    pub fn config(&self) -> &TwrsConfig {
        &self.config
    }

    /// Statistics of the most recent [`RunGenerator::generate`] call.
    pub fn stats(&self) -> TwrsRunStats {
        self.stats
    }
}

impl ShardableGenerator for TwoWayReplacementSelection {
    fn shard(&self, index: usize, shards: usize) -> Self {
        TwoWayReplacementSelection::new(self.config.for_shard(index, shards))
    }
}

impl BudgetedGenerator for TwoWayReplacementSelection {
    fn with_budget(&self, memory_records: usize) -> Self {
        TwoWayReplacementSelection::new(self.config.with_memory_records(memory_records))
    }
}

impl RunGenerator for TwoWayReplacementSelection {
    fn label(&self) -> &'static str {
        "2WRS"
    }

    fn memory_records(&self) -> usize {
        self.config.memory_records
    }

    fn generate<D: Device, R: SortableRecord>(
        &mut self,
        device: &D,
        namer: &SpillNamer,
        input: &mut dyn Iterator<Item = R>,
    ) -> Result<RunSet> {
        if self.config.memory_records == 0 {
            return Err(SortError::InvalidConfig(
                "2WRS needs a memory budget of at least one record".into(),
            ));
        }
        let mut runner = Runner::new(device, namer, self.config);
        let set = runner.run(input)?;
        self.stats = runner.stats;
        Ok(set)
    }
}

/// Where an emitted record ended up.
enum EmitOutcome {
    /// The record was written to a stream or parked in the victim buffer.
    Emitted,
    /// The record could not be placed in the current run and was pushed back
    /// into a heap marked for the next run.
    Deferred,
}

struct Runner<'a, D: Device, R: SortableRecord> {
    device: &'a D,
    namer: &'a SpillNamer,
    config: TwrsConfig,

    dual: RunDualHeap<R>,
    /// Reused at every run start to sort the records in memory.
    repartition: Vec<R>,
    input_buffer: InputBuffer<R>,
    victim: VictimBuffer<R>,
    input_heuristic: InputHeuristicState,
    output_heuristic: OutputHeuristicState,

    current_run: u64,
    streams: Option<RunStreams<'a, D, R>>,
    bootstrap_done: bool,
    first_output: Option<R>,

    runs: Vec<RunHandle>,
    total_records: u64,
    stats: TwrsRunStats,
}

impl<'a, D: Device, R: SortableRecord> Runner<'a, D, R> {
    fn new(device: &'a D, namer: &'a SpillNamer, config: TwrsConfig) -> Self {
        Runner {
            device,
            namer,
            config,
            dual: DualHeap::with_orders(config.heap_records(), MinOrder, RunMaxOrder),
            repartition: Vec::with_capacity(config.heap_records()),
            input_buffer: InputBuffer::new(config.input_buffer_records()),
            victim: VictimBuffer::new(config.victim_buffer_records()),
            input_heuristic: InputHeuristicState::new(config.input_heuristic, config.seed),
            output_heuristic: OutputHeuristicState::new(config.output_heuristic, config.seed),
            current_run: 0,
            streams: None,
            bootstrap_done: false,
            first_output: None,
            runs: Vec::new(),
            total_records: 0,
            stats: TwrsRunStats::default(),
        }
    }

    fn run(&mut self, input: &mut dyn Iterator<Item = R>) -> Result<RunSet> {
        // Phase 1: fill both heaps from the input (doubleHeap.fill).
        while self.dual.len() < self.dual.capacity() {
            match self.input_buffer.next_from(input) {
                Some(record) => {
                    let (side, run) = self.place(&record);
                    self.push_dual(side, RunRecord::new(record, run))?;
                }
                None => break,
            }
        }
        self.start_run()?;

        // Phase 2: main loop (Algorithm 2 lines 7–20).
        loop {
            let side = match self.current_output_side() {
                OutputSide::Side(side) => side,
                OutputSide::RunFinished => {
                    self.finalize_run()?;
                    self.start_run()?;
                    continue;
                }
                OutputSide::Empty => break,
            };
            let Some(popped) = self.dual.pop(side) else {
                break;
            };
            debug_assert_eq!(popped.run, self.current_run);
            match self.emit(popped.value, side)? {
                EmitOutcome::Emitted => {}
                EmitOutcome::Deferred => {
                    // No slot was freed (the record went straight back into
                    // a heap), so no input record is consumed this step.
                    continue;
                }
            }

            // Read the next input record; records that fit the victim
            // buffer's current gap are absorbed there and reading continues
            // (Algorithm 2 lines 11–13).
            let mut pending = self.input_buffer.next_from(input);
            while let Some(record) = pending {
                if self.victim.fits(&record) {
                    self.victim.push(record);
                    self.stats.victim_records += 1;
                    if self.victim.is_full() {
                        self.flush_victim()?;
                    }
                    pending = self.input_buffer.next_from(input);
                } else {
                    let (side, run) = self.place(&record);
                    self.push_dual(side, RunRecord::new(record, run))?;
                    pending = None;
                }
            }
        }

        self.finalize_run()?;
        Ok(RunSet {
            runs: std::mem::take(&mut self.runs),
            records: self.total_records,
        })
    }

    // ---------------------------------------------------------------------
    // Run lifecycle
    // ---------------------------------------------------------------------

    fn start_run(&mut self) -> Result<()> {
        self.streams = Some(RunStreams::new(
            self.device,
            self.namer,
            self.config.reverse_pages_per_file,
        ));
        self.victim.reset();
        self.bootstrap_done = !self.victim.is_enabled();
        self.first_output = None;
        self.repartition_heaps()?;
        self.dual.reset_pop_counters();
        Ok(())
    }

    /// Re-partitions the records currently held in memory between the two
    /// heaps at the start of every run, splitting them at their largest key
    /// gap.
    ///
    /// At a run boundary the memory holds the records that could not join
    /// the previous run — a sample spread over the key space whose placement
    /// reflects stale heuristic decisions. Splitting that sample at its
    /// largest gap (the same criterion the victim buffer uses, §4.3) gives
    /// the new run a BottomHeap that descends from just below the gap and a
    /// TopHeap that ascends from just above it, which is what makes 2WRS
    /// behave like two mirrored replacement selections — matching RS's
    /// 2×-memory run length on random input and capturing both monotone
    /// trends of the structured inputs. This generalises the run-start
    /// rebalancing the paper describes for the *Balancing* input heuristic
    /// (§4.2) and keeps the cross-stream ordering of the four streams intact
    /// for every heuristic.
    ///
    /// Sorting the sample also builds the two heaps: the part below the
    /// split, read backwards, is in BottomHeap pop order and the part above
    /// it in TopHeap pop order, and a sequence in pop order is already a
    /// valid heap, so both halves are installed as they are.
    fn repartition_heaps(&mut self) -> Result<()> {
        if self.dual.len() < 2 {
            return Ok(());
        }
        let records = &mut self.repartition;
        records.clear();
        records.extend(self.dual.drain().map(RunRecord::into_value));
        records.sort_unstable();
        // Split at the largest key gap when the sample clearly falls into
        // two clusters separated by a void (mixed and alternating inputs at
        // a trend boundary); otherwise split at the median, which keeps the
        // two sides equally provisioned and gives the 2×-memory behaviour
        // on unstructured input.
        let span = records[records.len() - 1]
            .sort_key()
            .saturating_sub(records[0].sort_key());
        let gap_split = crate::victim::largest_gap_split(records);
        let split = if gap_split < records.len()
            && records[gap_split]
                .sort_key()
                .saturating_sub(records[gap_split - 1].sort_key())
                >= span / 2
        {
            gap_split
        } else {
            records.len() / 2
        };
        let run = self.current_run;
        let tag = |record| RunRecord::new(record, run);
        self.dual
            .refill_sorted(HeapSide::Bottom, records.drain(..split).rev().map(tag))
            .map_err(|_| dual_heap_overflow())?;
        self.dual
            .refill_sorted(HeapSide::Top, records.drain(..).map(tag))
            .map_err(|_| dual_heap_overflow())
    }

    fn finalize_run(&mut self) -> Result<()> {
        let Some(mut streams) = self.streams.take() else {
            return Ok(());
        };
        // Whatever is still parked in the victim buffer belongs to the
        // current run: it is sorted and appended to stream 3 (all of it lies
        // between stream 3's last record and stream 2's first record).
        let leftovers = self.victim.drain_sorted();
        if !leftovers.is_empty() {
            self.stats.stream3_records += leftovers.len() as u64;
            streams.push_stream3_ascending(&leftovers)?;
        }
        let records = streams.finish(&mut self.runs)?;
        self.total_records += records;
        if records > 0 {
            self.stats.runs += 1;
        }
        self.current_run += 1;
        Ok(())
    }

    /// Which heap should emit next, if any.
    fn current_output_side(&mut self) -> OutputSide {
        let top_current = self
            .dual
            .peek(HeapSide::Top)
            .map(|r| r.run == self.current_run);
        let bottom_current = self
            .dual
            .peek(HeapSide::Bottom)
            .map(|r| r.run == self.current_run);
        match (top_current, bottom_current) {
            (None, None) => OutputSide::Empty,
            (Some(true), Some(true)) if !self.bootstrap_done => {
                // While the bootstrap sample is being collected, draw from
                // both heaps evenly so the victim buffer's valid range is
                // the real gap between the two sides rather than a stretch
                // of a single heap (the output heuristic takes over once the
                // range is established).
                if self.dual.pops_from(HeapSide::Top) <= self.dual.pops_from(HeapSide::Bottom) {
                    OutputSide::Side(HeapSide::Top)
                } else {
                    OutputSide::Side(HeapSide::Bottom)
                }
            }
            (Some(true), Some(true)) => {
                let ctx = self.context(self.config.output_heuristic.needs());
                OutputSide::Side(self.output_heuristic.choose(&ctx))
            }
            (Some(true), _) => OutputSide::Side(HeapSide::Top),
            (_, Some(true)) => OutputSide::Side(HeapSide::Bottom),
            // Both heaps only hold next-run records: the current run ends.
            _ => OutputSide::RunFinished,
        }
    }

    // ---------------------------------------------------------------------
    // Emission
    // ---------------------------------------------------------------------

    fn emit(&mut self, record: R, side: HeapSide) -> Result<EmitOutcome> {
        if self.first_output.is_none() {
            self.first_output = Some(record.clone());
        }
        // Bootstrap: the first victim-buffer's worth of outputs of every run
        // is parked in the buffer so the valid range can be picked as the
        // largest gap among them (§4.3).
        if !self.bootstrap_done {
            self.victim.push(record);
            self.stats.victim_records += 1;
            if self.victim.is_full() {
                self.flush_bootstrap()?;
            }
            return Ok(EmitOutcome::Emitted);
        }
        // twrs-lint: allow(no-lib-panic) `streams` is Some from run start until finalize
        let streams = self.streams.as_mut().expect("streams exist inside a run");
        // A record extends its own heap's stream when it can; otherwise the
        // victim buffer may take it, or else the opposite heap's stream
        // (e.g. the first records popped right after the bootstrap flush).
        let target = if streams.accepts_heap(side, &record) {
            side
        } else if self.victim.fits(&record) {
            self.victim.push(record);
            self.stats.victim_records += 1;
            if self.victim.is_full() {
                self.flush_victim()?;
            }
            return Ok(EmitOutcome::Emitted);
        } else if streams.accepts_heap(side.opposite(), &record) {
            self.stats.cross_emitted_records += 1;
            side.opposite()
        } else {
            // Nothing in the current run can take the record: defer it,
            // exactly as RS defers records that arrive too late.
            let (insert_side, _) = self.place(&record);
            self.push_dual(insert_side, RunRecord::new(record, self.current_run + 1))?;
            self.stats.deferred_records += 1;
            return Ok(EmitOutcome::Deferred);
        };
        streams.push_heap(target, record)?;
        match target {
            HeapSide::Top => self.stats.stream1_records += 1,
            HeapSide::Bottom => self.stats.stream4_records += 1,
        }
        Ok(EmitOutcome::Emitted)
    }

    fn flush_bootstrap(&mut self) -> Result<()> {
        // §4.3: when the bootstrap sample is complete, its largest gap
        // becomes the victim buffer's valid range and the sampled records
        // are flushed to streams 4 and 1 (below and above the gap
        // respectively), so streams 2 and 3 only ever exist when the victim
        // buffer later captures records inside the gap.
        let (lower, upper) = self.victim.flush_split();
        // twrs-lint: allow(no-lib-panic) `streams` is Some from run start until finalize
        let streams = self.streams.as_mut().expect("streams exist inside a run");
        self.stats.stream4_records += lower.len() as u64;
        self.stats.stream1_records += upper.len() as u64;
        streams.push_stream4_from_ascending(&lower)?;
        streams.push_stream1_ascending(&upper)?;
        self.bootstrap_done = true;
        Ok(())
    }

    fn flush_victim(&mut self) -> Result<()> {
        let (lower, upper) = self.victim.flush_split();
        // twrs-lint: allow(no-lib-panic) `streams` is Some from run start until finalize
        let streams = self.streams.as_mut().expect("streams exist inside a run");
        self.stats.stream3_records += lower.len() as u64;
        self.stats.stream2_records += upper.len() as u64;
        streams.push_stream3_ascending(&lower)?;
        streams.push_stream2_from_ascending(&upper)?;
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Insertion
    // ---------------------------------------------------------------------

    /// Where a new record goes: the heap that stores it and the run it
    /// belongs to. Stream acceptance is checked once and decides both. The
    /// record belongs to the current run when some stream of the run could
    /// still accept it, and to the next run otherwise. The input heuristic
    /// only gets a say when the record could be emitted by either heap;
    /// otherwise the heap that can still emit it wins.
    fn place(&mut self, record: &R) -> (HeapSide, u64) {
        let current = self.current_run;
        let (can_top, can_bottom, run) = match self.streams.as_ref() {
            None => (true, true, current),
            Some(_) if !self.bootstrap_done => {
                // Anything output during the bootstrap lands in the victim
                // buffer, so every record is still usable in the current
                // run. No stream boundary exists yet, but a record that
                // outranks a heap's root would be popped straight into the
                // bootstrap victim buffer and widen the run's valid range
                // around a stray value; keep such records on the side whose
                // output order they follow.
                let key = record.sort_key();
                let above_top_root = self
                    .dual
                    .peek(HeapSide::Top)
                    .is_none_or(|root| key >= root.value.sort_key());
                let below_bottom_root = self
                    .dual
                    .peek(HeapSide::Bottom)
                    .is_none_or(|root| key <= root.value.sort_key());
                if above_top_root || below_bottom_root {
                    (above_top_root, below_bottom_root, current)
                } else {
                    (true, true, current)
                }
            }
            Some(streams) => {
                let stream1 = streams.accepts_stream1(record);
                let stream4 = streams.accepts_stream4(record);
                let run = if stream1 || stream4 {
                    current
                } else {
                    current + 1
                };
                (stream1, stream4, run)
            }
        };
        let side = match (can_top, can_bottom) {
            (true, false) => HeapSide::Top,
            (false, true) => HeapSide::Bottom,
            _ => {
                let ctx = self.context(self.config.input_heuristic.needs());
                self.input_heuristic.choose(record, &ctx)
            }
        };
        (side, run)
    }

    fn push_dual(&mut self, side: HeapSide, record: RunRecord<R>) -> Result<()> {
        self.dual
            .push(side, record)
            .map_err(|_| dual_heap_overflow())
    }

    /// The heuristic context with only the fields in `needs` filled in.
    fn context(&self, needs: ContextNeeds) -> HeuristicContext {
        let mut ctx = HeuristicContext::default();
        if needs.sizes {
            ctx.top_len = self.dual.len_of(HeapSide::Top);
            ctx.bottom_len = self.dual.len_of(HeapSide::Bottom);
            ctx.top_pops = self.dual.pops_from(HeapSide::Top);
            ctx.bottom_pops = self.dual.pops_from(HeapSide::Bottom);
        }
        if needs.input_mean {
            ctx.input_mean = self.input_buffer.mean_key();
        }
        if needs.input_median {
            ctx.input_median = self.input_buffer.median_key();
        }
        if needs.keys {
            ctx.first_output = self.first_output.as_ref().map(SortableRecord::sort_key);
            ctx.top_root = self.dual.peek(HeapSide::Top).map(|r| r.value.sort_key());
            ctx.bottom_root = self.dual.peek(HeapSide::Bottom).map(|r| r.value.sort_key());
        }
        ctx
    }
}

fn dual_heap_overflow() -> SortError {
    SortError::InvalidConfig(
        "internal error: dual heap overflow during two-way replacement selection".into(),
    )
}

enum OutputSide {
    /// Pop from this side.
    Side(HeapSide),
    /// Both heaps hold only next-run records: close the current run.
    RunFinished,
    /// Both heaps are empty: the input is exhausted.
    Empty,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BufferSetup;
    use crate::heuristics::output::OutputHeuristic;
    use crate::heuristics::InputHeuristic;
    use twrs_extsort::RunCursor;
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn generate(config: TwrsConfig, input: Vec<Record>) -> (SimDevice, RunSet, TwrsRunStats) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("twrs");
        let mut generator = TwoWayReplacementSelection::new(config);
        let mut iter = input.into_iter();
        let set = generator.generate(&device, &namer, &mut iter).unwrap();
        (device, set, generator.stats())
    }

    fn check_runs(device: &SimDevice, set: &RunSet, mut expected: Vec<Record>) {
        let mut all: Vec<Record> = Vec::new();
        for handle in &set.runs {
            let mut cursor = RunCursor::<Record>::open(device, handle).unwrap();
            let run = cursor.read_all().unwrap();
            assert!(
                run.windows(2).all(|w| w[0] <= w[1]),
                "run is not sorted: {handle:?}"
            );
            all.extend(run);
        }
        assert_eq!(all.len() as u64, set.records);
        all.sort_unstable();
        expected.sort_unstable();
        assert_eq!(all, expected, "output multiset differs from the input");
    }

    #[test]
    fn sorted_input_yields_one_run() {
        // Theorem 2.
        let input = Distribution::exact(DistributionKind::Sorted, 5_000).collect();
        let (device, set, _) = generate(TwrsConfig::recommended(200), input.clone());
        assert_eq!(set.num_runs(), 1);
        check_runs(&device, &set, input);
    }

    #[test]
    fn reverse_sorted_input_yields_one_run() {
        // Theorem 4 — the case where classic RS degrades to memory-sized
        // runs while 2WRS produces a single run.
        let input = Distribution::exact(DistributionKind::ReverseSorted, 5_000).collect();
        let (device, set, _) = generate(TwrsConfig::recommended(200), input.clone());
        assert_eq!(set.num_runs(), 1);
        check_runs(&device, &set, input);
    }

    #[test]
    fn random_input_yields_runs_about_twice_memory() {
        // §5.2.4: 2WRS matches RS (≈ 2 × memory) on random input.
        let input = Distribution::new(DistributionKind::RandomUniform, 40_000, 3).collect();
        let (device, set, _) = generate(TwrsConfig::recommended(500), input.clone());
        let relative = set.relative_run_length(500);
        assert!(
            (1.5..2.6).contains(&relative),
            "relative run length {relative}"
        );
        check_runs(&device, &set, input);
    }

    #[test]
    fn alternating_input_yields_one_run_per_section() {
        // Theorem 6: each monotone section becomes (about) one run.
        let sections = 10u32;
        let input =
            Distribution::exact(DistributionKind::Alternating { sections }, 20_000).collect();
        let (device, set, _) = generate(TwrsConfig::recommended(400), input.clone());
        assert!(
            (sections as usize..=sections as usize + 2).contains(&set.num_runs()),
            "expected about {sections} runs, got {}",
            set.num_runs()
        );
        check_runs(&device, &set, input);
    }

    #[test]
    fn mixed_input_yields_very_long_runs() {
        // §5.2.5: with the victim buffer, the mixed dataset collapses to a
        // couple of runs (Table 5.13 reports 125 × memory).
        let input = Distribution::exact(DistributionKind::MixedBalanced, 40_000).collect();
        let (device, set, stats) = generate(TwrsConfig::recommended(400), input.clone());
        assert!(
            set.num_runs() <= 4,
            "expected a handful of runs, got {}",
            set.num_runs()
        );
        assert!(stats.victim_records > 0);
        check_runs(&device, &set, input);
    }

    #[test]
    fn mixed_without_victim_buffer_degrades() {
        // Figure 5.5: configurations without the victim buffer generate many
        // short runs on mixed input.
        let input = Distribution::exact(DistributionKind::MixedBalanced, 40_000).collect();
        let without = TwrsConfig::recommended(400).with_buffers(BufferSetup::InputOnly, 0.02);
        let (device, set, stats) = generate(without, input.clone());
        assert!(
            set.num_runs() > 10,
            "expected many runs without the victim buffer, got {}",
            set.num_runs()
        );
        assert_eq!(stats.victim_records, 0);
        check_runs(&device, &set, input);
    }

    #[test]
    fn mixed_imbalanced_input_yields_very_long_runs() {
        let input = Distribution::exact(
            DistributionKind::MixedImbalanced {
                descending_per_ascending: 3,
            },
            40_000,
        )
        .collect();
        let (device, set, _) = generate(TwrsConfig::recommended(400), input.clone());
        assert!(
            set.num_runs() <= 6,
            "expected a handful of runs, got {}",
            set.num_runs()
        );
        check_runs(&device, &set, input);
    }

    #[test]
    fn every_heuristic_combination_sorts_correctly() {
        // The heuristics change run lengths, never correctness.
        let input = Distribution::new(DistributionKind::MixedBalanced, 3_000, 5).collect();
        for input_h in InputHeuristic::all() {
            for output_h in OutputHeuristic::all() {
                let config = TwrsConfig::recommended(100).with_heuristics(input_h, output_h);
                let (device, set, _) = generate(config, input.clone());
                check_runs(&device, &set, input.clone());
            }
        }
    }

    #[test]
    fn all_buffer_setups_sort_correctly() {
        let input = Distribution::new(DistributionKind::RandomUniform, 5_000, 9).collect();
        for setup in BufferSetup::all() {
            for fraction in [0.0002, 0.002, 0.02, 0.2] {
                let config = TwrsConfig::recommended(250).with_buffers(setup, fraction);
                let (device, set, _) = generate(config, input.clone());
                check_runs(&device, &set, input.clone());
            }
        }
    }

    #[test]
    fn never_worse_than_memory_sized_runs() {
        // Theorem 7: 2WRS generates runs at least as long as the memory
        // (the Load-Sort-Store lower bound) on every paper distribution,
        // provided the monotone sections are longer than the memory (the
        // assumption of Theorems 5 and 6).
        for kind in DistributionKind::paper_set() {
            let input = Distribution::new(kind, 20_000, 13).collect();
            let (_device, set, _) = generate(TwrsConfig::recommended(200), input);
            let relative = set.relative_run_length(200);
            assert!(
                relative > 0.95,
                "{kind:?}: relative run length {relative} below the memory size"
            );
        }
    }

    #[test]
    fn empty_input_produces_no_runs() {
        let (_device, set, stats) = generate(TwrsConfig::recommended(100), Vec::new());
        assert_eq!(set.num_runs(), 0);
        assert_eq!(set.records, 0);
        assert_eq!(stats.runs, 0);
    }

    #[test]
    fn input_smaller_than_memory_is_one_run() {
        let input = Distribution::new(DistributionKind::RandomUniform, 50, 2).collect();
        let (device, set, _) = generate(TwrsConfig::recommended(1_000), input.clone());
        assert_eq!(set.num_runs(), 1);
        check_runs(&device, &set, input);
    }

    #[test]
    fn duplicate_keys_are_handled() {
        let input: Vec<Record> = (0..4_000u64).map(|i| Record::new(i % 7, i)).collect();
        let (device, set, _) = generate(TwrsConfig::recommended(100), input.clone());
        check_runs(&device, &set, input);
    }

    #[test]
    fn tiny_memory_still_sorts() {
        let input = Distribution::new(DistributionKind::MixedBalanced, 500, 1).collect();
        let (device, set, _) = generate(TwrsConfig::recommended(2), input.clone());
        check_runs(&device, &set, input);
    }

    #[test]
    fn zero_memory_is_rejected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("twrs");
        let mut generator = TwoWayReplacementSelection::new(TwrsConfig::recommended(0));
        let mut input = std::iter::empty::<Record>();
        assert!(matches!(
            generator.generate(&device, &namer, &mut input),
            Err(SortError::InvalidConfig(_))
        ));
    }

    #[test]
    fn stats_report_stream_usage() {
        let input = Distribution::exact(DistributionKind::MixedBalanced, 10_000).collect();
        let (_device, set, stats) = generate(TwrsConfig::recommended(400), input);
        let emitted = stats.stream1_records
            + stats.stream2_records
            + stats.stream3_records
            + stats.stream4_records;
        assert_eq!(emitted, set.records);
        assert_eq!(stats.runs as usize, set.num_runs());
    }

    #[test]
    fn deferrals_are_rare_on_paper_inputs() {
        for kind in DistributionKind::paper_set() {
            let input = Distribution::new(kind, 20_000, 4).collect();
            let (_device, set, stats) = generate(TwrsConfig::recommended(500), input);
            assert!(
                stats.deferred_records <= set.num_runs() as u64 * 4 + 8,
                "{kind:?}: {} deferrals across {} runs",
                stats.deferred_records,
                set.num_runs()
            );
        }
    }
}

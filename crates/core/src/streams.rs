//! The four per-run output streams of 2WRS (§4.1, Figure 4.1).
//!
//! Every 2WRS run is stored as up to four files whose key ranges do not
//! overlap:
//!
//! | stream | produced by            | order      | file format            |
//! |--------|------------------------|------------|------------------------|
//! | 4      | BottomHeap             | decreasing | reverse (Appendix A)   |
//! | 3      | victim buffer (lower)  | increasing | forward                |
//! | 2      | victim buffer (upper)  | decreasing | reverse (Appendix A)   |
//! | 1      | TopHeap                | increasing | forward                |
//!
//! Reading the files in the order 4 · 3 · 2 · 1 (reverse files are read
//! back in ascending order by construction) yields the whole run sorted,
//! so the merge phase sees one logical run per [`RunHandle::Chain`].
//!
//! [`RunStreams`] owns the four builders for the current run and tracks the
//! boundary records needed to guarantee the non-overlap invariant
//! `stream 4 ≤ stream 3 ≤ stream 2 ≤ stream 1` for *any* heuristic: a
//! record that would violate it is simply not accepted, and the caller
//! defers it to the next run (the same mechanism replacement selection
//! already uses for records that arrive too late).
//!
//! Streams 1 and 4 grow the run outwards, so the only boundaries that
//! matter are the largest and the smallest record the run holds so far:
//! stream 1 accepts a record no smaller than the largest, stream 4 one no
//! larger than the smallest. Both are kept up to date on every write, so
//! each acceptance check is a single comparison.

use twrs_extsort::{Device, ForwardRunBuilder, Result, ReverseRunBuilder, RunHandle};
use twrs_heaps::HeapSide;
use twrs_storage::{SortableRecord, SpillNamer};

/// The four output streams of the run currently being generated.
pub struct RunStreams<'a, D: Device, R: SortableRecord> {
    stream1: ForwardRunBuilder<'a, D, R>,
    stream2: ReverseRunBuilder<'a, D, R>,
    stream3: ForwardRunBuilder<'a, D, R>,
    stream4: ReverseRunBuilder<'a, D, R>,

    /// First record written to each stream (1, 2, 3, 4).
    firsts: [Option<R>; 4],
    /// Smallest and largest record written to the run so far.
    min: Option<R>,
    max: Option<R>,

    records: u64,
}

impl<'a, D: Device, R: SortableRecord> RunStreams<'a, D, R> {
    /// Creates the stream set for a new run.
    pub fn new(device: &'a D, namer: &'a SpillNamer, reverse_pages_per_file: u64) -> Self {
        RunStreams {
            stream1: ForwardRunBuilder::new(device, namer),
            stream2: ReverseRunBuilder::new(device, namer, reverse_pages_per_file),
            stream3: ForwardRunBuilder::new(device, namer),
            stream4: ReverseRunBuilder::new(device, namer, reverse_pages_per_file),
            firsts: [None, None, None, None],
            min: None,
            max: None,
            records: 0,
        }
    }

    /// Number of records written to the run so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `true` when `record` can be appended to stream 1 without breaking
    /// either its monotonicity or the cross-stream ordering: it must be no
    /// smaller than anything the run holds.
    #[inline]
    pub fn accepts_stream1(&self, record: &R) -> bool {
        self.max.as_ref().is_none_or(|max| record >= max)
    }

    /// `true` when `record` can be appended to stream 4 without breaking
    /// either its monotonicity or the cross-stream ordering: it must be no
    /// larger than anything the run holds.
    #[inline]
    pub fn accepts_stream4(&self, record: &R) -> bool {
        self.min.as_ref().is_none_or(|min| record <= min)
    }

    /// `true` when `record` can extend the stream fed by `side`'s heap:
    /// stream 1 for the TopHeap, stream 4 for the BottomHeap.
    #[inline]
    pub fn accepts_heap(&self, side: HeapSide, record: &R) -> bool {
        match side {
            HeapSide::Top => self.accepts_stream1(record),
            HeapSide::Bottom => self.accepts_stream4(record),
        }
    }

    /// Appends a record to the stream fed by `side`'s heap.
    pub fn push_heap(&mut self, side: HeapSide, record: R) -> Result<()> {
        match side {
            HeapSide::Top => self.push_stream1(record),
            HeapSide::Bottom => self.push_stream4(record),
        }
    }

    /// Books a record written to stream `stream` (1–4).
    #[inline]
    fn note(&mut self, stream: usize, record: &R) {
        let first = &mut self.firsts[stream - 1];
        if first.is_none() {
            *first = Some(record.clone());
        }
        if self.min.as_ref().is_none_or(|min| record < min) {
            self.min = Some(record.clone());
        }
        if self.max.as_ref().is_none_or(|max| record > max) {
            self.max = Some(record.clone());
        }
        self.records += 1;
    }

    /// Appends a record to stream 1 (the TopHeap's increasing stream).
    pub fn push_stream1(&mut self, record: R) -> Result<()> {
        debug_assert!(self.accepts_stream1(&record));
        self.stream1.push(&record)?;
        self.note(1, &record);
        Ok(())
    }

    /// Appends a record to stream 4 (the BottomHeap's decreasing stream).
    pub fn push_stream4(&mut self, record: R) -> Result<()> {
        debug_assert!(self.accepts_stream4(&record));
        self.stream4.push(&record)?;
        self.note(4, &record);
        Ok(())
    }

    /// Appends a batch of records to stream 4. `records` must be sorted
    /// ascending; they are written in descending order as the reverse-file
    /// format expects. Used by the run-start bootstrap flush (§4.3:
    /// "flushes the records to Streams 1 and 4").
    pub fn push_stream4_from_ascending(&mut self, records: &[R]) -> Result<()> {
        debug_assert!(records.windows(2).all(|w| w[0] <= w[1]));
        for record in records.iter().rev() {
            self.stream4.push(record)?;
            self.note(4, record);
        }
        Ok(())
    }

    /// Appends a batch of ascending records to stream 1. Used by the
    /// run-start bootstrap flush.
    pub fn push_stream1_ascending(&mut self, records: &[R]) -> Result<()> {
        debug_assert!(records.windows(2).all(|w| w[0] <= w[1]));
        for record in records {
            self.stream1.push(record)?;
            self.note(1, record);
        }
        Ok(())
    }

    /// Appends a batch of ascending records to stream 3 (the victim
    /// buffer's lower, increasing stream).
    pub fn push_stream3_ascending(&mut self, records: &[R]) -> Result<()> {
        debug_assert!(records.windows(2).all(|w| w[0] <= w[1]));
        for record in records {
            self.stream3.push(record)?;
            self.note(3, record);
        }
        Ok(())
    }

    /// Appends a batch of records to stream 2 (the victim buffer's upper,
    /// decreasing stream). `records` must be sorted ascending; they are
    /// written in descending order as the reverse-file format expects.
    pub fn push_stream2_from_ascending(&mut self, records: &[R]) -> Result<()> {
        debug_assert!(records.windows(2).all(|w| w[0] <= w[1]));
        for record in records.iter().rev() {
            self.stream2.push(record)?;
            self.note(2, record);
        }
        Ok(())
    }

    /// The first record output in the current run through any stream, used
    /// by the *MinDistance* output heuristic.
    pub fn first_output(&self) -> Option<&R> {
        self.firsts.iter().filter_map(Option::as_ref).min()
    }

    /// Closes the run: finishes every non-empty stream file and, when the
    /// run holds at least one record, appends one logical
    /// [`RunHandle::Chain`] (streams in the order 4 · 3 · 2 · 1) to `runs`.
    /// Returns the number of records in the run.
    pub fn finish(mut self, runs: &mut Vec<RunHandle>) -> Result<u64> {
        let mut parts = Vec::new();
        self.stream4.finish_run(&mut parts)?;
        self.stream3.finish_run(&mut parts)?;
        self.stream2.finish_run(&mut parts)?;
        self.stream1.finish_run(&mut parts)?;
        match parts.len() {
            0 => {}
            1 => runs.extend(parts.pop()),
            _ => runs.push(RunHandle::Chain(parts)),
        }
        Ok(self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twrs_extsort::RunCursor;
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;
    use twrs_workloads::Record;

    fn rec(key: u64) -> Record {
        Record::from_key(key)
    }

    #[test]
    fn four_streams_concatenate_into_one_sorted_run() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);

        // Mimic the paper's example: bootstrap flush puts {39, 40} in
        // stream 3 and {50, 51} in stream 2, the BottomHeap emits 38, 37 to
        // stream 4 and the TopHeap 52, 53 to stream 1.
        streams.push_stream3_ascending(&[rec(39), rec(40)]).unwrap();
        streams
            .push_stream2_from_ascending(&[rec(50), rec(51)])
            .unwrap();
        streams.push_stream4(rec(38)).unwrap();
        streams.push_stream4(rec(37)).unwrap();
        streams.push_stream1(rec(52)).unwrap();
        streams.push_stream1(rec(53)).unwrap();
        assert_eq!(streams.records(), 8);

        let mut runs = Vec::new();
        let count = streams.finish(&mut runs).unwrap();
        assert_eq!(count, 8);
        assert_eq!(runs.len(), 1);
        let mut cursor = RunCursor::<Record>::open(&device, &runs[0]).unwrap();
        let keys: Vec<u64> = cursor.read_all().unwrap().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![37, 38, 39, 40, 50, 51, 52, 53]);
    }

    #[test]
    fn acceptance_enforces_cross_stream_ordering() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);
        streams.push_stream4(rec(40)).unwrap();
        streams.push_stream1(rec(60)).unwrap();
        // Stream 1 may not go below the BottomHeap's first output...
        assert!(!streams.accepts_stream1(&rec(39)));
        // ...nor below its own last output.
        assert!(!streams.accepts_stream1(&rec(55)));
        assert!(streams.accepts_stream1(&rec(61)));
        // Stream 4 may not rise above the TopHeap's first output...
        assert!(!streams.accepts_stream4(&rec(61)));
        // ...nor above its own last output.
        assert!(!streams.accepts_stream4(&rec(45)));
        assert!(streams.accepts_stream4(&rec(40)));
        assert!(streams.accepts_stream4(&rec(12)));
    }

    #[test]
    fn empty_run_produces_no_handle() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let streams = RunStreams::<_, Record>::new(&device, &namer, 4);
        let mut runs = Vec::new();
        assert_eq!(streams.finish(&mut runs).unwrap(), 0);
        assert!(runs.is_empty());
    }

    #[test]
    fn single_stream_run_is_not_wrapped_in_a_chain() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);
        for k in 0..10 {
            streams.push_stream1(rec(k)).unwrap();
        }
        let mut runs = Vec::new();
        streams.finish(&mut runs).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(matches!(runs[0], RunHandle::Forward(_)));
    }

    #[test]
    fn first_output_is_the_smallest_first_of_any_stream() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let mut streams = RunStreams::new(&device, &namer, 4);
        assert_eq!(streams.first_output(), None);
        streams.push_stream1(rec(70)).unwrap();
        streams.push_stream4(rec(30)).unwrap();
        assert_eq!(streams.first_output().unwrap().key, 30);
        assert_eq!(streams.records(), 2);
    }

    #[test]
    fn acceptance_is_unconstrained_for_a_fresh_run() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("s");
        let streams = RunStreams::new(&device, &namer, 4);
        assert!(streams.accepts_stream1(&rec(0)));
        assert!(streams.accepts_stream4(&rec(u64::MAX)));
    }
}

//! Output checks. Every job the benchmark runs is one attempted operation;
//! it fails when the library returns an error or any check on its output
//! fails.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use twrs_extsort::{RecordSink, Result as SortResult};
use twrs_storage::{AnyDevice, StorageDevice};
use twrs_workloads::Record;

/// Order-independent fingerprint of a record multiset: a sorted output
/// with the input's count and fingerprint is a permutation of the input
/// with overwhelming probability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expected {
    pub count: u64,
    pub fingerprint: u64,
}

impl Expected {
    pub fn of(records: impl IntoIterator<Item = Record>) -> Self {
        let mut expected = Expected::default();
        for record in records {
            expected.add(&record);
        }
        expected
    }

    fn add(&mut self, record: &Record) {
        self.count += 1;
        self.fingerprint = self.fingerprint.wrapping_add(mix(record));
    }
}

fn mix(record: &Record) -> u64 {
    // splitmix64 finaliser over both fields.
    let mut z = record.key ^ record.payload.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a [`CheckSink`] saw.
#[derive(Debug, Clone, Copy)]
pub struct Seen {
    pub got: Expected,
    pub ordered: bool,
    /// When the sink received its last record.
    pub done: Instant,
}

impl Seen {
    pub fn verify(&self, expected: &Expected) -> Result<(), String> {
        if !self.ordered {
            return Err("output is not in ascending order".into());
        }
        if self.got != *expected {
            return Err(format!(
                "output holds {} records (fingerprint {:#x}), input held {} ({:#x})",
                self.got.count, self.got.fingerprint, expected.count, expected.fingerprint
            ));
        }
        Ok(())
    }
}

/// Where a [`CheckSink`] publishes what it saw when it is finished.
pub type SeenSlot = Arc<Mutex<Option<Seen>>>;

/// A sink that checks order and fingerprints what it receives, and
/// publishes the result when the sort finishes it.
pub struct CheckSink {
    got: Expected,
    last: Option<Record>,
    ordered: bool,
    slot: SeenSlot,
}

impl CheckSink {
    pub fn new() -> (Self, SeenSlot) {
        let slot = Arc::new(Mutex::new(None));
        let sink = CheckSink {
            got: Expected::default(),
            last: None,
            ordered: true,
            slot: slot.clone(),
        };
        (sink, slot)
    }
}

impl RecordSink<Record> for CheckSink {
    fn push(&mut self, record: Record) -> SortResult<()> {
        if self.last.is_some_and(|last| record < last) {
            self.ordered = false;
        }
        self.got.add(&record);
        self.last = Some(record);
        Ok(())
    }

    fn finish(&mut self) -> SortResult<()> {
        let seen = Seen {
            got: self.got,
            ordered: self.ordered,
            done: Instant::now(),
        };
        *self.slot.lock().expect("check-sink slot poisoned") = Some(seen);
        Ok(())
    }
}

/// Reads the published outcome of a [`CheckSink`].
pub fn take_seen(slot: &SeenSlot) -> Result<Seen, String> {
    slot.lock()
        .expect("check-sink slot poisoned")
        .take()
        .ok_or_else(|| "the sink was never finished".to_string())
}

/// A device must hold no file once a job is over.
pub fn device_is_empty(device: &dyn StorageDevice) -> Result<(), String> {
    let left = device.list();
    if left.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} files left on the device, e.g. {}",
            left.len(),
            left[0]
        ))
    }
}

/// On a striped device the members' counters must fold exactly into the
/// device totals.
pub fn stripe_folds(device: &AnyDevice) -> Result<(), String> {
    let Some(stripe) = device.as_striped() else {
        return Ok(());
    };
    let fold = stripe.member_stats().iter().fold([0u64; 3], |acc, m| {
        [
            acc[0] + m.counters.pages_read,
            acc[1] + m.counters.pages_written,
            acc[2] + m.counters.seeks,
        ]
    });
    let totals = device.stats().counters;
    let totals = [totals.pages_read, totals.pages_written, totals.seeks];
    if fold == totals {
        Ok(())
    } else {
        Err(format!(
            "stripe members fold to {fold:?}, device totals are {totals:?}"
        ))
    }
}

/// Tally of attempted and failed operations.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {reason}"));
            }
        }
    }

    /// Marks an operation already counted as attempted as failed.
    pub fn fail(&mut self, what: &str, reason: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(format!("{what}: {reason}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_sink_accepts_a_sorted_permutation_only() {
        let input = [Record::new(3, 0), Record::new(1, 1), Record::new(2, 2)];
        let expected = Expected::of(input);

        let (mut sink, slot) = CheckSink::new();
        for r in [Record::new(1, 1), Record::new(2, 2), Record::new(3, 0)] {
            sink.push(r).unwrap();
        }
        sink.finish().unwrap();
        assert!(take_seen(&slot).unwrap().verify(&expected).is_ok());

        let (mut sink, slot) = CheckSink::new();
        for r in [Record::new(2, 2), Record::new(1, 1), Record::new(3, 0)] {
            sink.push(r).unwrap();
        }
        sink.finish().unwrap();
        assert!(take_seen(&slot).unwrap().verify(&expected).is_err());

        let (mut sink, slot) = CheckSink::new();
        for r in [Record::new(1, 1), Record::new(2, 2), Record::new(3, 1)] {
            sink.push(r).unwrap();
        }
        sink.finish().unwrap();
        assert!(take_seen(&slot).unwrap().verify(&expected).is_err());
    }
}

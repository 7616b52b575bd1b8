//! Byte-identity of the runs that RS and 2WRS write.
//!
//! The counter baseline (`crates/bench/baseline.json`, `golden_counters.rs`)
//! pins only page, seek and run counts, and the equivalence suites compare
//! two engines that share one run generator. This suite pins the run
//! *contents*: for every run, in generation order, the kind of each physical
//! file (forward, reverse, chain) and the bytes of every record it holds, in
//! the order its cursor reads them. A change to the heaps, the selection
//! loops or the 2WRS heuristics that alters any run fails here even when
//! the page counts happen to stay the same.
//!
//! Every record type in the matrix has a total order, so records that
//! compare `Equal` are byte-identical and the heap layout cannot show in
//! the digests; only the algorithm's decisions can.
//!
//! If a change is *meant* to alter run contents, print the new table with
//! `cargo test --test run_digests -- --nocapture` and replace the expected
//! entries in the same change.

use two_way_replacement_selection::core::{InputHeuristic, OutputHeuristic};
use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::workloads::UserEvent;

const RECORDS: u64 = 12_000;
const MEMORY: usize = 300;
const SEED: u64 = 7;

/// 64-bit FNV-1a: tiny, and stable across toolchains (unlike `std`'s
/// `DefaultHasher`), so the pinned values never move with the compiler.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds one run handle into the digest: the handle's kind, then each
/// physical file's records in cursor order.
fn digest_handle<R: SortableRecord>(device: &SimDevice, handle: &RunHandle, hash: &mut Fnv) {
    match handle {
        RunHandle::Chain(parts) => {
            hash.write(b"C");
            hash.write(&(parts.len() as u64).to_le_bytes());
            for part in parts {
                digest_handle::<R>(device, part, hash);
            }
        }
        RunHandle::Forward(_) | RunHandle::Reverse(_) => {
            let tag: &[u8] = if matches!(handle, RunHandle::Forward(_)) {
                b"F"
            } else {
                b"R"
            };
            hash.write(tag);
            let records = RunCursor::<R>::open(device, handle)
                .expect("run opens")
                .read_all()
                .expect("run reads");
            hash.write(&(records.len() as u64).to_le_bytes());
            let mut buf = vec![0u8; R::SIZE];
            for record in &records {
                record.write_to(&mut buf);
                hash.write(&buf);
            }
        }
    }
}

/// Runs `generator` over `input` on a fresh simulated device and digests
/// every run it wrote, in generation order.
fn run_digest<G: RunGenerator, R: SortableRecord>(mut generator: G, input: Vec<R>) -> u64 {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("digest");
    let mut iter = input.into_iter();
    let set = generator
        .generate(&device, &namer, &mut iter)
        .expect("run generation succeeds");
    let mut hash = Fnv::new();
    hash.write(&(set.runs.len() as u64).to_le_bytes());
    for run in &set.runs {
        digest_handle::<R>(&device, run, &mut hash);
    }
    hash.0
}

fn shapes() -> [(&'static str, DistributionKind); 4] {
    [
        ("random", DistributionKind::RandomUniform),
        ("reverse", DistributionKind::ReverseSorted),
        (
            "alternating",
            DistributionKind::Alternating { sections: 10 },
        ),
        ("mixed", DistributionKind::MixedBalanced),
    ]
}

fn input(kind: DistributionKind, records: u64) -> Vec<Record> {
    Distribution::new(kind, records, SEED).collect()
}

/// Digests of RS and recommended 2WRS for one record type over every shape.
fn generator_digests<R: SortableRecord>(
    type_label: &str,
    convert: fn(Record) -> R,
) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (shape, kind) in shapes() {
        let records: Vec<R> = input(kind, RECORDS).into_iter().map(convert).collect();
        out.push((
            format!("rs/{type_label}/{shape}"),
            run_digest(ReplacementSelection::new(MEMORY), records.clone()),
        ));
        out.push((
            format!("twrs/{type_label}/{shape}"),
            run_digest(TwoWayReplacementSelection::recommended(MEMORY), records),
        ));
    }
    out
}

/// Compares `actual` against `expected` and, on any difference, fails with
/// the whole actual table in pasteable form.
fn check(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let table: String = actual
        .iter()
        .map(|(label, digest)| format!("        (\"{label}\", 0x{digest:016x}),\n"))
        .collect();
    println!("{table}");
    let mismatches: Vec<&str> = actual
        .iter()
        .zip(expected)
        .filter(|((label, digest), (want_label, want))| label != want_label || digest != want)
        .map(|((label, _), _)| label.as_str())
        .collect();
    assert!(
        actual.len() == expected.len() && mismatches.is_empty(),
        "run contents drifted for {mismatches:?}; actual table:\n{table}"
    );
}

#[test]
fn rs_and_twrs_runs_are_byte_identical_to_the_pinned_digests() {
    let mut actual = generator_digests("record", |r| r);
    actual.extend(generator_digests("user_event", UserEvent::from));
    actual.extend(generator_digests("u64", |r: Record| r.key));
    check(&actual, EXPECTED_GENERATORS);
}

#[test]
fn every_heuristic_pair_writes_the_pinned_runs() {
    // The heuristics read heap sizes, roots, pop counts and input-buffer
    // statistics; pin each pair on a trend-free and a trend-rich input.
    let random = input(DistributionKind::RandomUniform, RECORDS / 2);
    let mixed = input(DistributionKind::MixedBalanced, RECORDS / 2);
    let mut actual = Vec::new();
    for input_h in InputHeuristic::all() {
        for output_h in OutputHeuristic::all() {
            let config = TwrsConfig::recommended(MEMORY).with_heuristics(input_h, output_h);
            let mut hash = Fnv::new();
            for records in [&random, &mixed] {
                let digest = run_digest(TwoWayReplacementSelection::new(config), records.clone());
                hash.write(&digest.to_le_bytes());
            }
            actual.push((
                format!("twrs/{}/{}", input_h.label(), output_h.label()),
                hash.0,
            ));
        }
    }
    check(&actual, EXPECTED_HEURISTICS);
}

const EXPECTED_GENERATORS: &[(&str, u64)] = &[
    ("rs/record/random", 0xfc710c977b970dd9),
    ("twrs/record/random", 0x234887b06cffbe24),
    ("rs/record/reverse", 0x3d89f6633334ee5d),
    ("twrs/record/reverse", 0xc7efadbde6e6a2c9),
    ("rs/record/alternating", 0xd767d041f231d5a6),
    ("twrs/record/alternating", 0xb65a06ff9c8ffb9a),
    ("rs/record/mixed", 0x56a64f483a6c6cce),
    ("twrs/record/mixed", 0xa29752c6d6092dbe),
    ("rs/user_event/random", 0xb78f9dd9c24a94c7),
    ("twrs/user_event/random", 0xd4196c5758fffcc6),
    ("rs/user_event/reverse", 0x3aa39685e191fe99),
    ("twrs/user_event/reverse", 0x21411cf93cfdb0f9),
    ("rs/user_event/alternating", 0xb6681fe75bd50f76),
    ("twrs/user_event/alternating", 0x69f33f29e22ef2e6),
    ("rs/user_event/mixed", 0x7c861f298a8c4de7),
    ("twrs/user_event/mixed", 0x9370910a601f8dcb),
    ("rs/u64/random", 0x01468f76082f3e39),
    ("twrs/u64/random", 0xfa547ab0a9fcbfb4),
    ("rs/u64/reverse", 0x92e11376b68ed8b9),
    ("twrs/u64/reverse", 0x6778cd969ccd809b),
    ("rs/u64/alternating", 0x49a2a60e4fbf6358),
    ("twrs/u64/alternating", 0xa859d49fbf81306e),
    ("rs/u64/mixed", 0x3d26bc2032311c6a),
    ("twrs/u64/mixed", 0x0329b81bc66620ea),
];

const EXPECTED_HEURISTICS: &[(&str, u64)] = &[
    ("twrs/random/random", 0x2b0a1176ac26d320),
    ("twrs/random/alternate", 0x33d1a83c8fef3ea6),
    ("twrs/random/useful", 0x63a6d3e976758da7),
    ("twrs/random/balancing", 0xe3cc589783bbc0b6),
    ("twrs/random/min-distance", 0x99cd9de7ead91a4d),
    ("twrs/alternate/random", 0x64d9f4d49d7388ee),
    ("twrs/alternate/alternate", 0xf7ed393eb85158dc),
    ("twrs/alternate/useful", 0x104ff0a02348f675),
    ("twrs/alternate/balancing", 0xbbddc666186510d9),
    ("twrs/alternate/min-distance", 0x8afd865e9b56ed53),
    ("twrs/mean/random", 0x64d9f4d49d7388ee),
    ("twrs/mean/alternate", 0xf7ed393eb85158dc),
    ("twrs/mean/useful", 0xfe12b6a492138c0d),
    ("twrs/mean/balancing", 0x7c96646c6c23e239),
    ("twrs/mean/min-distance", 0x8afd865e9b56ed53),
    ("twrs/median/random", 0x64d9f4d49d7388ee),
    ("twrs/median/alternate", 0xf7ed393eb85158dc),
    ("twrs/median/useful", 0x104ff0a02348f675),
    ("twrs/median/balancing", 0xe5346eb9bce46f6b),
    ("twrs/median/min-distance", 0x8afd865e9b56ed53),
    ("twrs/useful/random", 0x2b0a1176ac26d320),
    ("twrs/useful/alternate", 0x33d1a83c8fef3ea6),
    ("twrs/useful/useful", 0x2f3fe7de4962f9bf),
    ("twrs/useful/balancing", 0xfd284a942777aadf),
    ("twrs/useful/min-distance", 0x99cd9de7ead91a4d),
    ("twrs/balancing/random", 0x2b0a1176ac26d320),
    ("twrs/balancing/alternate", 0x33d1a83c8fef3ea6),
    ("twrs/balancing/useful", 0x2f3fe7de4962f9bf),
    ("twrs/balancing/balancing", 0xa98bf97e8c17bfa8),
    ("twrs/balancing/min-distance", 0x99cd9de7ead91a4d),
];

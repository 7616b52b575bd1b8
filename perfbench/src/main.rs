//! Steady end-to-end and per-layer benchmark of the 2WRS external sort.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload through the library's public API, checks every
//! output, and prints a human-readable summary followed, as the last line
//! of standard output, by one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics of a separate traced
//! run and writes its spans as Chrome trace-event JSON under
//! `perfbench/out/`. See `perfbench/README.md` for the workloads and the
//! metric map.

mod check;
mod closed;
mod jobs;
mod layers;
mod service;
mod stats;
mod trace;

use check::Ops;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = [
    "rungen-random",
    "merge-heavy",
    "parallel-mixed",
    "service-open-loop",
];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The final JSON line.
    fn json(&self) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops.failed == 0 && self.ops.attempted > 0,
            self.ops.attempted,
            self.ops.failed,
            metrics
        ))
    }
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "rungen-random" => closed::run(&closed::RUNGEN_RANDOM, args),
        "merge-heavy" => closed::run(&closed::MERGE_HEAVY, args),
        "parallel-mixed" => closed::run(&closed::PARALLEL_MIXED, args),
        "service-open-loop" => service::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let json = match report.json() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let ratio = report.ops.failed as f64 / report.ops.attempted.max(1) as f64;
    println!(
        "# failed_ratio = {ratio} ({} of {} operations)",
        report.ops.failed, report.ops.attempted
    );
    for failure in &report.ops.failures {
        println!("# FAILED {failure}");
    }
    for m in &report.metrics {
        println!("# {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "merge-heavy",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "merge-heavy");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "merge-heavy", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "merge-heavy",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.ops.record("job", Ok(()));
        report.metric("setup_s", 0.25, "s");
        let json = report.json().unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        report.metric("bad", f64::NAN, "s");
        assert!(report.json().is_err());
    }
}

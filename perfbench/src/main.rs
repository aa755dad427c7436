//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the full report (host fingerprint and every metric the run
//! measured) as one JSON line, then, as the last line, the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use flexstep_bench::{arg_value, run_bin, BenchError};
use flexstep_core::json::JsonObject;
use perfbench::{bench, Config, Size, Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

fn arg<T: std::str::FromStr>(argv: &[String], key: &str) -> Result<T, BenchError> {
    let raw = arg_value(argv, key).ok_or_else(|| BenchError::Config(format!("missing {key}")))?;
    raw.parse()
        .map_err(|_| BenchError::Config(format!("{key}: cannot parse {raw:?}")))
}

fn run() -> Result<(), BenchError> {
    let argv: Vec<String> = std::env::args().collect();
    let name: String = arg(&argv, "--workload")?;
    let workload = Workload::from_name(&name).ok_or(BenchError::UnknownWorkload(name))?;
    let seconds: u32 = arg(&argv, "--seconds")?;
    let trace = match arg::<u8>(&argv, "--trace")? {
        0 => false,
        1 => true,
        t => {
            return Err(BenchError::Config(format!(
                "--trace must be 0 or 1, not {t}"
            )))
        }
    };
    let cfg = Config {
        workload,
        seed: arg(&argv, "--seed")?,
        seconds: f64::from(seconds),
        trace,
        size: Size::Full,
    };
    let report = bench(&cfg)?;
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some((missing, _)) = wanted.iter().find(|(n, _)| report.metrics.get(n).is_none()) {
        return Err(BenchError::Invariant(format!(
            "metric {missing} was not measured"
        )));
    }

    let mut full = JsonObject::new();
    full.field_str("workload", workload.name())
        .field_u64("seed", cfg.seed)
        .field_bool("trace", trace)
        .field_u64("passes", report.passes as u64)
        .field_raw("host", &perfbench::host::fingerprint_json())
        .field_raw("metrics", &report.metrics.to_json(|_| true))
        .field_array(
            "failures",
            report
                .tally
                .failures
                .iter()
                .map(|f| format!("\"{}\"", flexstep_core::json::escape(f))),
        );
    println!("{}", full.finish());

    let mut result = JsonObject::new();
    result
        .field_bool("correct", report.tally.failed == 0)
        .field_u64("attempted", report.tally.attempted)
        .field_u64("failed", report.tally.failed)
        .field_raw(
            "metrics",
            &report
                .metrics
                .to_json(|n| wanted.iter().any(|(w, _)| *w == n)),
        );
    println!("{}", result.finish());
    Ok(())
}

fn main() -> ExitCode {
    run_bin(run)
}

//! Every workload at a tiny size, and the correctness gates that feed
//! `error_rate`.

use flexstep_core::json::JsonValue;
use flexstep_core::{FaultPlan, FaultTarget};
use perfbench::pass::{check_merged, check_run, oracle, Counters, Tally};
use perfbench::workload::sim_runs;
use perfbench::{bench, Config, Size, Workload, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

#[test]
fn every_workload_runs_clean_and_reports_its_end_to_end_metrics() {
    for w in WORKLOADS {
        let r = bench(&tiny(w, false)).expect("tiny run sets up");
        assert!(r.tally.attempted > 0, "{}", w.name());
        assert_eq!(r.tally.failed, 0, "{}: {:?}", w.name(), r.tally.failures);
        for (name, _) in END_TO_END {
            let v = r.metrics.get(name).unwrap_or(0.0);
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn every_workload_runs_traced_and_reports_every_per_layer_metric() {
    for w in WORKLOADS {
        let r = bench(&tiny(w, true)).expect("tiny traced run sets up");
        assert_eq!(r.tally.failed, 0, "{}: {:?}", w.name(), r.tally.failures);
        for (name, _) in PER_LAYER {
            assert!(r.metrics.get(name).is_some(), "{}: {name}", w.name());
        }
        assert!(r.metrics.get("trace.guest_mips_traced").unwrap() > 0.0);
        // Metrics of layers only some workloads reach.
        let only: &[&str] = match w {
            Workload::Campaign => &[
                "shots_per_s",
                "coverage",
                "campaignd.run_s",
                "campaignd.shard_sim_s",
                "bench.probe_horizon_s",
                "detect_latency_us_p50",
            ],
            Workload::Shared64 => &["detect_latency_us_p50", "detect_latency_samples"],
            _ => &[],
        };
        for name in only {
            assert!(r.metrics.get(name).is_some(), "{}: {name}", w.name());
        }
    }
}

#[test]
fn the_same_seed_reproduces_the_deterministic_metrics() {
    for w in [Workload::Shared64, Workload::Campaign] {
        let a = bench(&tiny(w, false)).unwrap().metrics;
        let b = bench(&tiny(w, false)).unwrap().metrics;
        for name in [
            "detect_latency_us_p50",
            "detect_latency_samples",
            "sim_slowdown",
            "coverage",
        ] {
            assert_eq!(a.get(name), b.get(name), "{}: {name}", w.name());
        }
    }
}

#[test]
fn a_fault_in_a_fault_free_run_counts_as_an_error() {
    let clean = sim_runs(Workload::PairedDual, 0, Size::Tiny)
        .unwrap()
        .remove(0);
    let expected = oracle(&clean).unwrap();
    let mut faulted = clean.clone();
    faulted.faults = Some(FaultPlan::bit_flip_at(5_000, FaultTarget::EntryData));
    let report = faulted.build().unwrap().run_to_completion(u64::MAX);

    let mut tally = Tally::default();
    tally.record(check_run(&clean, &report, &expected));
    let report = clean.build().unwrap().run_to_completion(u64::MAX);
    tally.record(check_run(&clean, &report, &expected));
    assert_eq!(
        (tally.attempted, tally.failed),
        (2, 1),
        "{:?}",
        tally.failures
    );
    assert_eq!(tally.error_rate(), 0.5);
}

#[test]
fn a_broken_campaign_merge_counts_as_an_error() {
    let line = |id: u64, detected: u64| {
        format!(
            "{{\"id\": {id}, \"completed\": true, \"armed\": 4, \"landed\": 3, \"expired\": 1, \
             \"detected\": {detected}, \"recovered\": 0, \"pairs\": []}}\n"
        )
    };
    let mut tally = Tally::default();
    let good = line(0, 3) + &line(1, 2);
    check_merged(&good, 2, &mut tally, &mut Counters::default());
    assert_eq!((tally.attempted, tally.failed), (2, 0));

    // Shard 1 claims more detections than landed shots; shard 2 is missing.
    let mut tally = Tally::default();
    let bad = line(0, 3) + &line(1, 4);
    check_merged(&bad, 3, &mut tally, &mut Counters::default());
    assert_eq!(
        (tally.attempted, tally.failed),
        (3, 2),
        "{:?}",
        tally.failures
    );
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let field = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names: Vec<_> = table.iter().map(|m| m.0).collect();
        let units: Vec<_> = table.iter().map(|m| m.1).collect();
        assert_eq!(field(key, "name"), names);
        assert_eq!(field(key, "unit"), units);
    }
    for name in field("workloads", "name") {
        assert!(Workload::from_name(&name).is_some(), "{name}");
    }

    // Measured metrics carry the units the tables list.
    let plain = bench(&tiny(Workload::Campaign, false)).unwrap().metrics;
    for (name, unit) in END_TO_END {
        assert_eq!(plain.unit(name), Some(unit), "{name}");
    }
    for w in [Workload::PairedDual, Workload::Campaign] {
        let traced = bench(&tiny(w, true)).unwrap().metrics;
        for (name, unit) in PER_LAYER {
            assert_eq!(traced.unit(name), Some(unit), "{}: {name}", w.name());
        }
    }
}

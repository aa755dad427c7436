//! Many-core FlexStep: a 16-core SoC with a pool of shared checkers,
//! built in a dozen lines through the `Scenario` front door — the
//! ROADMAP's Fig. 8-style experiment as an example.
//!
//! Twelve main cores each run their own workload in a private address
//! window; four checker cores are shared 3:1 through §III-C FIFO
//! arbitration. A fault plan sprays bit flips across three streams, the
//! run records its event stream, and the report attributes every
//! detection to the corrupted main core.
//!
//! ```sh
//! cargo run --release --example many_core -- [cores]
//! ```

use flexstep::core::{FabricConfig, FaultPlan, RunEvent, Scenario, Topology};
use flexstep::isa::Program;
// The same per-slot workload the `fig8` sweep simulates.
use flexstep_bench::manycore::many_core_job;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let checkers = (cores / 4).max(1);
    let mains = cores - checkers;

    let programs: Vec<Program> = (0..mains)
        .map(|i| many_core_job(i as u64, 1_500 + 200 * (i as i64 % 4)))
        .collect();

    // Three staggered random bit flips on three different streams
    // (armed early, while the segments are still in flight; later
    // channels queue for their shared checker and buffer longest).
    let plan = FaultPlan::none()
        .then_random_at(5_000)
        .on_channel(0)
        .then_random_at(12_000)
        .on_channel(mains / 2)
        .then_random_at(18_000)
        .on_channel(mains - 1)
        .with_seed(2025);

    let mut scenario = Scenario::new(&programs[0])
        .cores(cores)
        .topology(Topology::SharedChecker { checkers })
        .fabric(FabricConfig::paper())
        .fault_plan(plan)
        .record_events();
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    let mut run = scenario.build()?;

    println!("{cores}-core SoC: {mains} mains -> {checkers} shared checkers (§III-C arbitration)");
    let report = run.run_to_completion(u64::MAX);

    println!();
    println!(
        "run: {} engine steps, drained at cycle {}, {} retired instructions",
        report.engine_steps, report.drain_cycle, report.retired
    );
    println!(
        "verification: {} segments checked, {} failed, {} backpressure stalls",
        report.segments_checked, report.segments_failed, report.backpressure_stalls
    );
    let (conflicts, switches) = report
        .arbiters
        .iter()
        .fold((0, 0), |(c, s), a| (c + a.conflicts, s + a.switches));
    println!("arbitration: {conflicts} conflicts, {switches} channel hand-overs");

    println!();
    println!(
        "fault plan: {} armed, {} landed, {} expired",
        report.shots_armed,
        report.injections.len(),
        report.shots_expired
    );
    // One-to-one attribution: each detection consumes the earliest
    // unconsumed injection on its main, so no shot is counted twice.
    let matched = report.matched_detections();
    for injection in &report.injections {
        let pair = matched
            .iter()
            .find(|m| m.main_core == injection.main_core && m.injected_at == injection.at_cycle);
        match pair {
            Some(m) => println!(
                "  core {:>2} {} @ cycle {:>7} -> detected by checker {} after {} cycles",
                injection.main_core,
                injection.target,
                injection.at_cycle,
                m.checker_core,
                m.latency_cycles(),
            ),
            None => println!(
                "  core {:>2} {} @ cycle {:>7} -> architecturally masked",
                injection.main_core, injection.target, injection.at_cycle
            ),
        }
    }

    let events = run.events().expect("recording enabled");
    let verdicts = events
        .iter()
        .filter(|e| matches!(e, RunEvent::CheckPass { .. } | RunEvent::CheckFail { .. }))
        .count() as u64;
    println!();
    println!("event stream: {} events, {verdicts} verdicts", events.len());

    assert!(report.completed, "all mains must finish");
    assert!(switches > 0, "shared checkers must hand over");
    assert!(
        !report.injections.is_empty(),
        "the fault plan must land shots"
    );
    assert_eq!(
        verdicts, report.segments_checked,
        "the event stream saw every verdict"
    );
    Ok(())
}

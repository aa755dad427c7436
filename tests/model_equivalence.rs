//! Core-model equivalence suite (ISSUE 9 acceptance tests).
//!
//! The `CoreModel` trait layer must be invisible for the in-order
//! pipeline: every scenario here pins `RunReport::to_json()` — and, for
//! the paired scenario, the Chrome trace JSON — byte-identical to the
//! goldens generated at the pre-refactor commit (before the
//! `InOrderModel` extraction). Regenerate deliberately with
//! `BLESS_MODEL_GOLDENS=1 cargo test --test model_equivalence` and
//! justify the diff in review; an unexplained diff is a timing or
//! accounting regression, not a formatting nit.
//!
//! Covered scenarios: paired lockstep, shared-checker pool with faults,
//! rollback recovery, and the memo on/off pair (which also re-pins the
//! PR 6 warp-free clock invariant — memo on/off must not merely both
//! complete, but produce the same bytes).

use flexstep::core::{
    FabricConfig, FaultPlan, PairingSchedule, RecoveryPolicy, ReliabilityMode, RunWarning,
    Scenario, Topology, VerifiedRun,
};
use flexstep::isa::asm::{Assembler, Program};
use flexstep::isa::inst::{AmoOp, AmoWidth};
use flexstep::isa::{Inst, XReg};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/goldens")
        .join(name)
}

/// Compares `actual` against the checked-in golden, or rewrites the
/// golden under `BLESS_MODEL_GOLDENS=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_MODEL_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); bless to create", path.display()));
    assert_eq!(
        actual, expected,
        "{name} diverged from the pre-refactor golden \
         (BLESS_MODEL_GOLDENS=1 to regenerate deliberately)"
    );
}

/// A branchy store/load checksum kernel in a private window per slot —
/// enough control flow and memory traffic to exercise the predictor,
/// the load-use interlock and the DBC log datapath.
fn checksum_job(slot: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("eq{slot}"), text, data);
    asm.la(XReg::A2, "buf");
    asm.data_label("buf").unwrap();
    asm.data_zeros(64);
    asm.li(XReg::A0, iters);
    asm.li(XReg::A4, 0);
    asm.label("l").unwrap();
    asm.sd(XReg::A2, XReg::A0, 0);
    asm.ld(XReg::A3, XReg::A2, 0);
    asm.add(XReg::A4, XReg::A4, XReg::A3);
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "l");
    asm.ecall();
    asm.finish().unwrap()
}

/// Base of the one data line every [`shared_line_job`] main touches.
const SHARED_LINE: u64 = 0x3000_0000;

/// A store / AMO / load loop on one data line shared by every main:
/// each iteration invalidates the other mains' L1D copies (the store
/// and the `amoadd`) and downgrades a remote Modified copy (the load
/// of a neighbour's word), so the MSI snoop path fires throughout.
fn shared_line_job(slot: u64, mains: u64, iters: i64) -> Program {
    let text = 0x1000_0000 + slot * 0x10_0000;
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("sh{slot}"), text, data);
    asm.li(XReg::A2, SHARED_LINE as i64);
    asm.li(XReg::A0, iters);
    asm.li(XReg::A5, 1);
    asm.label("l").unwrap();
    asm.sd(XReg::A2, XReg::A0, (slot * 8) as i64);
    asm.addi(XReg::T2, XReg::A2, 56);
    asm.push(Inst::Amo {
        op: AmoOp::Add,
        width: AmoWidth::D,
        rd: XReg::A3,
        rs1: XReg::T2,
        rs2: XReg::A5,
    });
    asm.ld(XReg::A4, XReg::A2, (((slot + 1) % mains) * 8) as i64);
    asm.add(XReg::A3, XReg::A3, XReg::A4);
    asm.addi(XReg::A0, XReg::A0, -1);
    asm.bnez(XReg::A0, "l");
    asm.ecall();
    asm.finish().unwrap()
}

fn run_report(mut run: VerifiedRun) -> String {
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed, "equivalence run must complete");
    report.to_json()
}

#[test]
fn paired_lockstep_report_matches_golden() {
    let run = Scenario::new(&checksum_job(0, 700))
        .cores(2)
        .fabric(FabricConfig::paper())
        .build()
        .unwrap();
    assert_golden("paired.report.json", &run_report(run));
}

#[test]
fn paired_trace_matches_golden() {
    let tmp = std::env::temp_dir().join("flexstep_model_equivalence_unwritten.json");
    let mut run = Scenario::new(&checksum_job(0, 300))
        .cores(2)
        .fabric(FabricConfig::paper())
        .trace_to(tmp)
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed);
    let trace = run.trace().expect("trace configured").to_chrome_json();
    assert_golden("paired.trace.json", &trace);
}

#[test]
fn shared_checker_faulty_report_matches_golden() {
    let programs: Vec<Program> = (0..6).map(|i| checksum_job(i, 500)).collect();
    let mut plan = FaultPlan::none().with_seed(0x9e37);
    for k in 0..3usize {
        plan = plan.then_random_at(3_000 + 4_000 * k as u64).on_channel(k);
    }
    let mut scenario = Scenario::new(&programs[0])
        .cores(8)
        .topology(Topology::SharedChecker { checkers: 2 })
        .fabric(FabricConfig::paper())
        .fault_plan(plan);
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    assert_golden(
        "shared_faulty.report.json",
        &run_report(scenario.build().unwrap()),
    );
}

#[test]
fn shared_line_snoop_report_matches_golden() {
    let programs: Vec<Program> = (0..6).map(|i| shared_line_job(i, 6, 400)).collect();
    let mut scenario = Scenario::new(&programs[0])
        .cores(8)
        .topology(Topology::SharedChecker { checkers: 2 })
        .fabric(FabricConfig::paper());
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    let mut run = scenario.build().unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed, "shared-line run must complete");
    assert_eq!(report.segments_failed, 0, "a fault-free run verifies clean");
    // Every iteration's AMO landed exactly once, whatever the interleaving.
    let mem = &run.soc().mem;
    assert_eq!(mem.phys().read_u64(SHARED_LINE + 56), 6 * 400);
    assert!(mem.snoop_count() > 0, "the shared line must draw snoops");
    assert_golden("shared_line.report.json", &report.to_json());
}

#[test]
fn rollback_recovery_report_matches_golden() {
    let run = Scenario::new(&checksum_job(0, 900))
        .cores(2)
        .fabric(FabricConfig::paper())
        .fault_plan(FaultPlan::none().with_seed(7).then_random_at(5_000))
        .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
        .build()
        .unwrap();
    assert_golden("recovery.report.json", &run_report(run));
}

// ---------------------------------------------------------------------------
// Reliability-mode equivalence (ISSUE 10): `SegmentCheck` is the
// pre-mode behavior, so *explicitly* requesting it — via the all-mains
// or the per-slot builder — must reproduce the same goldens byte for
// byte, reports and traces alike. A diff here means the mode layer
// perturbed the default path.
// ---------------------------------------------------------------------------

#[test]
fn explicit_segment_check_report_matches_paired_golden() {
    let run = Scenario::new(&checksum_job(0, 700))
        .cores(2)
        .fabric(FabricConfig::paper())
        .main_reliability_mode(ReliabilityMode::SegmentCheck)
        .build()
        .unwrap();
    assert_golden("paired.report.json", &run_report(run));
}

#[test]
fn explicit_segment_check_trace_matches_paired_golden() {
    let tmp = std::env::temp_dir().join("flexstep_mode_equivalence_unwritten.json");
    let mut run = Scenario::new(&checksum_job(0, 300))
        .cores(2)
        .fabric(FabricConfig::paper())
        .main_reliability_mode(ReliabilityMode::SegmentCheck)
        .trace_to(tmp)
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed);
    let trace = run.trace().expect("trace configured").to_chrome_json();
    assert_golden("paired.trace.json", &trace);
}

#[test]
fn per_slot_segment_check_report_matches_shared_faulty_golden() {
    let programs: Vec<Program> = (0..6).map(|i| checksum_job(i, 500)).collect();
    let mut plan = FaultPlan::none().with_seed(0x9e37);
    for k in 0..3usize {
        plan = plan.then_random_at(3_000 + 4_000 * k as u64).on_channel(k);
    }
    let mut scenario = Scenario::new(&programs[0])
        .cores(8)
        .topology(Topology::SharedChecker { checkers: 2 })
        .fabric(FabricConfig::paper())
        .fault_plan(plan);
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    for slot in 0..6 {
        scenario = scenario.reliability_mode(slot, ReliabilityMode::SegmentCheck);
    }
    assert_golden(
        "shared_faulty.report.json",
        &run_report(scenario.build().unwrap()),
    );
}

#[test]
fn explicit_segment_check_report_matches_recovery_golden() {
    let run = Scenario::new(&checksum_job(0, 900))
        .cores(2)
        .fabric(FabricConfig::paper())
        .fault_plan(FaultPlan::none().with_seed(7).then_random_at(5_000))
        .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
        .main_reliability_mode(ReliabilityMode::SegmentCheck)
        .build()
        .unwrap();
    assert_golden("recovery.report.json", &run_report(run));
}

#[test]
fn explicit_segment_check_matches_memo_goldens() {
    let program = checksum_job(0, 600);
    for (memo, golden) in [
        (false, "memo_off.report.json"),
        (true, "memo_on.report.json"),
    ] {
        let run = Scenario::new(&program)
            .cores(2)
            .fabric(FabricConfig::paper())
            .memo(memo)
            .main_reliability_mode(ReliabilityMode::SegmentCheck)
            .build()
            .unwrap();
        assert_golden(golden, &run_report(run));
    }
}

#[test]
fn memo_on_and_off_match_goldens_and_each_other() {
    let program = checksum_job(0, 600);
    let reports: Vec<String> = [false, true]
        .iter()
        .map(|&memo| {
            let run = Scenario::new(&program)
                .cores(2)
                .fabric(FabricConfig::paper())
                .memo(memo)
                .build()
                .unwrap();
            run_report(run)
        })
        .collect();
    // The warp-free clock invariant: memoized playback must be
    // byte-identical to full replay, not just "also complete".
    assert_eq!(reports[0], reports[1], "memo on/off must not diverge");
    assert_golden("memo_off.report.json", &reports[0]);
    assert_golden("memo_on.report.json", &reports[1]);
}

// ---------------------------------------------------------------------------
// Policy-layer goldens: reliability modes × dynamic pairing × rollback ×
// checker kills in one run. They pin every per-slot lifecycle
// transition of the harness (release, re-acquire, rollback overriding a
// release, orphan re-pairing, degradation, exhausted retries), so a
// change to that layer must reproduce them without re-blessing.
// ---------------------------------------------------------------------------

fn small_segments() -> FabricConfig {
    FabricConfig {
        segment_limit: 150,
        ..FabricConfig::paper()
    }
}

#[test]
fn policy_shared_report_matches_golden() {
    let programs: Vec<Program> = (0..6).map(|i| checksum_job(i, 600)).collect();
    let mut plan = FaultPlan::none().with_seed(0x9e37);
    for (k, channel) in [0usize, 1, 3, 4, 2].into_iter().enumerate() {
        plan = plan
            .then_random_at(3_000 + 1_000 * k as u64)
            .on_channel(channel);
    }
    let plan = plan.then_kill_checker_at(9_000).on_checker(1);
    let mut scenario = Scenario::new(&programs[0])
        .cores(8)
        .topology(Topology::SharedChecker { checkers: 2 })
        .fabric(small_segments())
        .fault_plan(plan)
        .recovery(RecoveryPolicy::Rollback { max_retries: 3 })
        .reliability_mode(0, ReliabilityMode::FullLockstep)
        .reliability_mode(1, ReliabilityMode::CheckpointOnly)
        .reliability_mode(2, ReliabilityMode::Unchecked)
        .pairing_schedule(
            PairingSchedule::new()
                .window(3, 2_000, 8_000)
                .release_at(12_000, 5),
        );
    for p in &programs[1..] {
        scenario = scenario.program(p);
    }
    let mut run = scenario.build().unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed, "policy run must complete");
    assert_eq!(report.checkers_lost, 1);
    assert_eq!(report.injections.len(), 4);
    assert_eq!(report.shots_expired, 1);
    assert!(report
        .warnings
        .iter()
        .any(|w| matches!(w, RunWarning::ShotInUncheckedWindow { .. })));
    assert_golden("policy_shared.report.json", &report.to_json());
}

#[test]
fn policy_degrade_report_matches_golden() {
    let plan = FaultPlan::none()
        .with_seed(0x51)
        .then_random_at(3_000)
        .on_channel(0)
        .then_random_at(4_000)
        .on_channel(1)
        .then_random_at(5_000)
        .on_channel(0)
        .then_kill_checker_at(6_000)
        .on_checker(1);
    let mut run = Scenario::new(&checksum_job(0, 700))
        .program(&checksum_job(1, 700))
        .cores(4)
        .fabric(small_segments())
        .fault_plan(plan)
        .recovery(RecoveryPolicy::Rollback { max_retries: 0 })
        .track_reliability()
        .build()
        .unwrap();
    let report = run.run_to_completion(u64::MAX);
    assert!(report.completed, "degrade run must complete");
    let count = |f: fn(&RunWarning) -> bool| report.warnings.iter().filter(|w| f(w)).count();
    assert_eq!(
        count(|w| matches!(w, RunWarning::RetriesExhausted { .. })),
        3
    );
    assert_eq!(
        count(|w| matches!(w, RunWarning::UncheckedExecution { .. })),
        1
    );
    assert_golden("policy_degrade.report.json", &report.to_json());
}

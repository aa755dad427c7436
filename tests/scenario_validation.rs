//! `Scenario` front-door contract tests: every validation path returns a
//! typed [`ScenarioError`] (never a panic), and equivalent builder
//! topologies produce bit-identical runs (the guarantee the removed
//! `dual_core`/`triple_core` constructor shims used to carry).

use flexstep::core::{
    FabricConfig, FaultPlan, FaultTarget, PairingSchedule, ReliabilityMode, RunReport, RunWarning,
    Scenario, ScenarioError, Topology,
};
use flexstep::isa::asm::{Assembler, Program};
use flexstep::isa::XReg;
use flexstep::sim::TrapCause;

fn store_loop(n: i64) -> Program {
    let mut asm = Assembler::new("store_loop");
    asm.li(XReg::A0, 0);
    asm.li(XReg::A1, n);
    asm.li(XReg::A2, 0x2000_0000);
    asm.li(XReg::A4, 0);
    asm.label("loop").unwrap();
    asm.add(XReg::A0, XReg::A0, XReg::A1);
    asm.sd(XReg::A2, XReg::A0, 0);
    asm.ld(XReg::A3, XReg::A2, 0);
    asm.add(XReg::A4, XReg::A4, XReg::A3);
    asm.addi(XReg::A1, XReg::A1, -1);
    asm.bnez(XReg::A1, "loop");
    asm.ecall();
    asm.finish().unwrap()
}

// ---------------------------------------------------------------------------
// Validation errors
// ---------------------------------------------------------------------------

#[test]
fn zero_cores_is_an_error_not_a_panic() {
    let p = store_loop(10);
    let err = Scenario::new(&p).cores(0).build().unwrap_err();
    assert_eq!(err, ScenarioError::NoCores);
    assert!(err.to_string().contains("zero cores"));
}

#[test]
fn paired_lockstep_rejects_odd_core_counts() {
    let p = store_loop(10);
    let err = Scenario::new(&p).cores(3).build().unwrap_err();
    assert_eq!(err, ScenarioError::UnpairedCores { cores: 3 });
}

#[test]
fn checker_index_out_of_range_is_reported() {
    let p = store_loop(10);
    let err = Scenario::new(&p)
        .cores(2)
        .topology(Topology::Custom(vec![(0, vec![7])]))
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::CoreOutOfRange { core: 7, cores: 2 });

    let err = Scenario::new(&p)
        .cores(2)
        .topology(Topology::Custom(vec![(9, vec![1])]))
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::CoreOutOfRange { core: 9, cores: 2 });
}

#[test]
fn custom_map_rejects_self_checking_core() {
    let p = store_loop(10);
    let err = Scenario::new(&p)
        .cores(2)
        .topology(Topology::Custom(vec![(0, vec![0])]))
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::SelfCheck { core: 0 });
}

#[test]
fn fault_plan_on_nonexistent_channel_is_rejected() {
    let p = store_loop(10);
    let err = Scenario::new(&p)
        .cores(2)
        .fault_plan(FaultPlan::bit_flip_at(100, FaultTarget::EntryData).on_channel(3))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::FaultChannelOutOfRange {
            channel: 3,
            mains: 1
        }
    );
}

#[test]
fn shared_checker_needs_a_sane_pool() {
    let p = store_loop(10);
    let err = Scenario::new(&p)
        .cores(4)
        .topology(Topology::SharedChecker { checkers: 0 })
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::BadCheckerCount {
            checkers: 0,
            cores: 4
        }
    );
    let err = Scenario::new(&p)
        .cores(4)
        .topology(Topology::SharedChecker { checkers: 4 })
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::BadCheckerCount {
            checkers: 4,
            cores: 4
        }
    );
}

#[test]
fn custom_map_misuse_is_typed() {
    let p = store_loop(10);
    // Duplicate main.
    let err = Scenario::new(&p)
        .program(&p)
        .cores(4)
        .topology(Topology::Custom(vec![(0, vec![1]), (0, vec![2])]))
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::DuplicateMain { main: 0 });
    // Empty checker list.
    let err = Scenario::new(&p)
        .cores(2)
        .topology(Topology::Custom(vec![(0, vec![])]))
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::NoCheckersFor { main: 0 });
    // Main also used as checker.
    let err = Scenario::new(&p)
        .program(&p)
        .cores(3)
        .topology(Topology::Custom(vec![(0, vec![1]), (1, vec![2])]))
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::RoleConflict { core: 1 });
    // A shared checker must be its mains' only checker.
    let err = Scenario::new(&p)
        .program(&p)
        .cores(4)
        .topology(Topology::Custom(vec![(0, vec![2, 3]), (1, vec![2])]))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::SharedCheckerFanOut {
            main: 0,
            checker: 2
        }
    );
}

#[test]
fn program_count_must_match_main_count() {
    let p = store_loop(10);
    // 2 mains, 1 program.
    let err = Scenario::new(&p).cores(4).build().unwrap_err();
    assert_eq!(
        err,
        ScenarioError::MissingProgram {
            main_slot: 1,
            programs: 1
        }
    );
    // 1 main, 2 programs.
    let err = Scenario::new(&p).program(&p).cores(2).build().unwrap_err();
    assert_eq!(
        err,
        ScenarioError::ExtraPrograms {
            mains: 1,
            programs: 2
        }
    );
}

#[test]
fn reliability_mode_slot_must_exist() {
    let p = store_loop(10);
    // 1 main (core 0), slot 3 does not exist.
    let err = Scenario::new(&p)
        .cores(2)
        .reliability_mode(3, ReliabilityMode::FullLockstep)
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::ModeSlotOutOfRange { slot: 3, mains: 1 });
    assert!(err.to_string().contains("slot 3"));
}

#[test]
fn pairing_schedule_slot_must_exist() {
    let p = store_loop(10);
    let err = Scenario::new(&p)
        .cores(2)
        .pairing_schedule(PairingSchedule::new().release_at(1_000, 5))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::PairingSlotOutOfRange { slot: 5, mains: 1 }
    );
}

#[test]
fn pairing_schedule_rejects_unchecked_slots() {
    let p = store_loop(10);
    // An Unchecked slot has no checker channel to acquire or release;
    // scheduling a transition on it is a build-time error, not a
    // silently dropped event.
    let err = Scenario::new(&p)
        .cores(2)
        .main_reliability_mode(ReliabilityMode::Unchecked)
        .pairing_schedule(PairingSchedule::new().window(0, 1_000, 2_000))
        .build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::PairingUncheckedSlot { slot: 0 });
    assert!(err.to_string().contains("unchecked"));
}

// ---------------------------------------------------------------------------
// Topology equivalence (the guarantees the removed dual_core /
// triple_core constructor shims used to pin)
// ---------------------------------------------------------------------------

fn assert_bit_identical(a: &RunReport, b: &RunReport, what: &str) {
    // `RunReport` derives PartialEq over every field, including cycle
    // counts, per-main breakdowns and detections — equality IS
    // bit-for-bit reproduction.
    assert_eq!(a, b, "{what}: reports must be identical");
}

#[test]
fn paired_lockstep_is_bit_identical_to_its_custom_spelling() {
    // The old `VerifiedRun::dual_core` constructor was defined as
    // Custom(vec![(0, vec![1])]); PairedLockstep at two cores must
    // still resolve to exactly that platform.
    let p = store_loop(2_000);
    let mut paired = Scenario::new(&p)
        .cores(2)
        .topology(Topology::PairedLockstep)
        .fabric(FabricConfig::paper())
        .build()
        .unwrap();
    let rp = paired.run_to_completion(100_000_000);
    let mut custom = Scenario::new(&p)
        .cores(2)
        .topology(Topology::Custom(vec![(0, vec![1])]))
        .fabric(FabricConfig::paper())
        .build()
        .unwrap();
    let rc = custom.run_to_completion(100_000_000);
    assert!(rp.completed && rp.segments_checked >= 2);
    assert_bit_identical(&rp, &rc, "dual-core");
}

#[test]
fn triple_core_custom_topology_is_reproducible_bit_for_bit() {
    // The old `VerifiedRun::triple_core` constructor's topology,
    // rebuilt twice through the builder: same platform, same report.
    let p = store_loop(900);
    let run_once = || {
        let mut run = Scenario::new(&p)
            .cores(3)
            .topology(Topology::Custom(vec![(0, vec![1, 2])]))
            .fabric(FabricConfig::paper())
            .build()
            .unwrap();
        run.run_to_completion(100_000_000)
    };
    let ra = run_once();
    let rb = run_once();
    assert!(ra.completed);
    assert_bit_identical(&ra, &rb, "triple-core");
}

#[test]
fn scenario_builds_are_self_deterministic() {
    let p = store_loop(1_500);
    let run_once = || {
        Scenario::new(&p)
            .cores(2)
            .build()
            .unwrap()
            .run_to_completion(100_000_000)
    };
    assert_bit_identical(&run_once(), &run_once(), "repeat build");
}

// ---------------------------------------------------------------------------
// Guest traps on a main core
// ---------------------------------------------------------------------------

/// A store loop in a private window per slot; with `trap`, it ends in a
/// misaligned `ld` instead of reaching its `ecall`. Returns the program
/// and the trapping load's pc.
fn windowed_loop(slot: u64, n: i64, trap: bool) -> (Program, u64) {
    let data = 0x2000_0000 + slot * 0x10_0000;
    let mut asm = Assembler::with_bases(format!("win{slot}"), 0x1000_0000 + slot * 0x10_0000, data);
    asm.li(XReg::A1, n);
    asm.li(XReg::A2, data as i64);
    asm.label("loop").unwrap();
    asm.sd(XReg::A2, XReg::A1, 0);
    asm.addi(XReg::A1, XReg::A1, -1);
    asm.bnez(XReg::A1, "loop");
    let pc = asm.here();
    if trap {
        asm.ld(XReg::A3, XReg::A2, 3);
    }
    asm.ecall();
    (asm.finish().unwrap(), pc)
}

#[test]
fn main_trap_is_a_typed_warning_not_a_panic() {
    // Three mains share one checker; the middle one hits a misaligned
    // load. It is parked, the others finish, and the checker drains
    // everything the trapped main produced before the trap.
    let (p0, _) = windowed_loop(0, 400, false);
    let (p1, trap_pc) = windowed_loop(1, 300, true);
    let (p2, _) = windowed_loop(2, 500, false);
    let mut run = Scenario::new(&p0)
        .program(&p1)
        .program(&p2)
        .cores(4)
        .topology(Topology::SharedChecker { checkers: 1 })
        .fabric(FabricConfig::paper())
        .build()
        .unwrap();
    let report = run.run_to_completion(100_000_000);
    assert!(!run.step_once(), "the run must finish despite the trap");
    assert!(!report.completed, "a trapped main did not reach its ecall");
    let done: Vec<bool> = report.per_main.iter().map(|m| m.completed).collect();
    assert_eq!(done, vec![true, false, true]);
    assert_eq!(report.per_main[1].finish_cycle, 0);
    assert!(report.per_main[1].retired > 0);
    assert_eq!(
        report.warnings,
        vec![RunWarning::MainTrapped {
            main: 1,
            cause: TrapCause::LoadAddrMisaligned,
            pc: trap_pc,
            tval: 0x2010_0003,
        }]
    );
    assert_eq!(report.segments_failed, 0, "pre-trap work verifies clean");
    assert!(report.segments_checked > 0);
    let json = report.to_json();
    assert!(json.contains(r#"{"kind": "main_trapped", "main": 1, "cause": "LoadAddrMisaligned", "#));
}

#[test]
fn paired_main_trap_ends_the_run() {
    let (p, trap_pc) = windowed_loop(0, 200, true);
    let mut run = Scenario::new(&p).cores(2).build().unwrap();
    let report = run.run_to_completion(100_000_000);
    assert!(!run.step_once());
    assert!(!report.completed);
    assert!(!report.per_main[0].completed);
    assert!(matches!(
        report.warnings.as_slice(),
        [RunWarning::MainTrapped { main: 0, pc, .. }] if *pc == trap_pc
    ));
}

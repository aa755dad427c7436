//! The run's event stream.
//!
//! [`RunEvent`] is the one representation of what a verified run does
//! over time: segments opening and closing, checkers being granted and
//! replaying, verdicts and detections landing, faults firing or
//! expiring, rollbacks and pairing-policy changes. The harness emits
//! every event through one choke point into at most two owned sinks:
//!
//! - the Chrome trace, enabled with
//!   [`Scenario::trace_to`](crate::Scenario::trace_to) and folded event
//!   by event by [`ChromeTrace::record`](crate::ChromeTrace::record);
//! - an in-order `Vec<RunEvent>`, enabled with
//!   [`Scenario::record_events`](crate::Scenario::record_events) and
//!   read back after the run with
//!   [`VerifiedRun::events`](crate::VerifiedRun::events) or
//!   [`VerifiedRun::take_events`](crate::VerifiedRun::take_events).
//!
//! Events are owned values, so a run with sinks attached stays `Send`
//! (statically asserted in `harness.rs`). Sinks are notification-only:
//! a run with either or both attached is bit-identical to one without,
//! and with neither attached the harness skips building events at all.
//!
//! ```
//! use flexstep_core::{RunEvent, Scenario};
//! # use flexstep_isa::{asm::Assembler, XReg};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut asm = Assembler::new("tiny");
//! # asm.li(XReg::A0, 50);
//! # asm.li(XReg::A1, 0x2000_0000);
//! # asm.label("l")?;
//! # asm.sd(XReg::A1, XReg::A0, 0);
//! # asm.addi(XReg::A0, XReg::A0, -1);
//! # asm.bnez(XReg::A0, "l");
//! # asm.ecall();
//! # let program = asm.finish()?;
//! let mut run = Scenario::new(&program)
//!     .cores(2)
//!     .record_events()
//!     .build()?;
//! let report = run.run_to_completion(10_000_000);
//! assert!(report.completed);
//!
//! let events = run.events().expect("recording is on");
//! let verdicts = events
//!     .iter()
//!     .filter(|e| matches!(e, RunEvent::CheckPass { .. } | RunEvent::CheckFail { .. }))
//!     .count() as u64;
//! assert_eq!(verdicts, report.segments_checked);
//! # Ok(())
//! # }
//! ```

use crate::detect::{DetectionEvent, SegmentResult};
use crate::scenario::Injection;

/// One event of a verified run, as an owned, `Send` value.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunEvent {
    /// A main core opened a checking segment.
    SegmentOpen {
        /// Main core that opened the segment.
        main: usize,
        /// Segment sequence number.
        seq: u64,
        /// Cycle of the open.
        cycle: u64,
    },
    /// A main core closed a checking segment (count limit or privilege
    /// switch).
    SegmentClose {
        /// Main core that closed the segment.
        main: usize,
        /// Segment sequence number.
        seq: u64,
        /// Cycle of the close.
        cycle: u64,
    },
    /// A checker applied a segment's SCP and entered replay — the start
    /// of the checker-occupancy window that ends with the verdict
    /// ([`RunEvent::CheckPass`] / [`RunEvent::CheckFail`]). In
    /// shared-checker topologies `main` attributes the busy span to the
    /// granted main.
    CheckStart {
        /// Checker entering replay.
        checker: usize,
        /// Main core whose stream is being verified.
        main: usize,
        /// Segment sequence number.
        seq: u64,
        /// Cycle of the SCP apply.
        cycle: u64,
    },
    /// A checker verified a segment clean.
    CheckPass {
        /// Checker that issued the verdict.
        checker: usize,
        /// The clean verdict.
        result: SegmentResult,
    },
    /// A checker failed a segment. It is immediately followed by its
    /// [`RunEvent::Detection`].
    CheckFail {
        /// Checker that issued the verdict.
        checker: usize,
        /// The failing verdict (mismatch included).
        result: SegmentResult,
    },
    /// An error was detected.
    Detection(DetectionEvent),
    /// A scheduled fault landed in a stream.
    FaultInjected(Injection),
    /// An armed shot expired without landing: `main`'s stream drained
    /// for good, or the run completed before the arming cycle. Expired
    /// shots are counted in
    /// [`RunReport::shots_expired`](crate::RunReport::shots_expired)
    /// and never appear in
    /// [`RunReport::injections`](crate::RunReport::injections).
    ShotExpired {
        /// Main whose armed shot expired.
        main: usize,
        /// Cycle of the expiry.
        cycle: u64,
    },
    /// A §III-C arbiter connected `main`'s stream to a shared checker
    /// (the initial grants fire at cycle 0, hand-overs when they
    /// happen).
    CheckerGranted {
        /// The granted shared checker.
        checker: usize,
        /// Main connected to it.
        main: usize,
        /// Cycle of the grant.
        cycle: u64,
    },
    /// A shared checker with a drained arbitration queue was parked (a
    /// later grant unparks it).
    CheckerParked {
        /// The parked checker.
        checker: usize,
        /// Cycle of the park.
        cycle: u64,
    },
    /// A main core finished its program.
    MainFinished {
        /// The finished main core.
        main: usize,
        /// Cycle of the final `ecall`.
        cycle: u64,
    },
    /// Rollback recovery started: `main` was rolled back to segment
    /// `seq`'s SCP boundary for re-execution
    /// ([`RecoveryPolicy::Rollback`](crate::RecoveryPolicy::Rollback)
    /// only).
    RecoveryStart {
        /// Main rolled back for re-execution.
        main: usize,
        /// Segment of the rollback anchor.
        seq: u64,
        /// Cycle of the rollback.
        cycle: u64,
    },
    /// Rollback recovery completed: `main` re-executed and a segment
    /// verified clean again, `latency` cycles after the detection.
    RecoveryComplete {
        /// Main that verified clean again.
        main: usize,
        /// Cycle of the clean verdict.
        cycle: u64,
        /// Detect → verified-again latency, cycles.
        latency: u64,
    },
    /// A checker core suffered a scheduled permanent failure
    /// ([`FaultPlan::kill_checker_at`](crate::FaultPlan::kill_checker_at));
    /// its channels re-pair onto surviving checkers (a later
    /// [`RunEvent::CheckerGranted`]) or degrade to unchecked execution.
    CheckerKilled {
        /// The permanently failed checker.
        checker: usize,
        /// Cycle of the kill.
        cycle: u64,
    },
    /// A main released its checker by pairing policy
    /// ([`Scenario::pairing_schedule`](crate::Scenario::pairing_schedule));
    /// the release lands on a segment boundary, and execution runs
    /// unchecked until re-acquire.
    CheckerReleased {
        /// Main that released its checker by pairing policy.
        main: usize,
        /// Cycle the release took effect (a segment boundary).
        cycle: u64,
    },
    /// A main re-acquired checking by pairing policy. Shared slots
    /// re-enter arbitration: the acquire's connection arrives as a
    /// later [`RunEvent::CheckerGranted`].
    CheckerAcquired {
        /// Main that re-acquired checking by pairing policy.
        main: usize,
        /// Cycle of the acquire.
        cycle: u64,
    },
}

// Recorded events cross threads with the run that produced them.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RunEvent>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultTarget;
    use crate::scenario::{FaultPlan, Scenario};
    use crate::trace::ChromeTrace;
    use flexstep_isa::{asm::Assembler, XReg};

    #[test]
    fn recorded_events_replay_into_an_identical_trace() {
        // Both sinks are fed from the same choke point, so folding the
        // recording into a fresh trace reproduces the live trace byte
        // for byte.
        let mut asm = Assembler::new("store_loop");
        asm.li(XReg::A0, 4000);
        asm.li(XReg::A1, 0x2000_0000);
        asm.label("l").unwrap();
        asm.sd(XReg::A1, XReg::A0, 0);
        asm.ld(XReg::A2, XReg::A1, 0);
        // Keep loaded data architecturally live so data faults propagate.
        asm.add(XReg::A3, XReg::A3, XReg::A2);
        asm.addi(XReg::A0, XReg::A0, -1);
        asm.bnez(XReg::A0, "l");
        asm.ecall();
        let program = asm.finish().unwrap();
        let mut run = Scenario::new(&program)
            .cores(2)
            .fault_plan(FaultPlan::bit_flip_at(5_000, FaultTarget::EntryData).with_seed(3))
            .record_events()
            .trace_to("unused.trace.json")
            .build()
            .unwrap();
        let report = run.run_to_completion(50_000_000);
        assert!(!report.detections.is_empty(), "the flip must be caught");
        let mut replayed = ChromeTrace::new();
        for e in run.events().expect("recording enabled") {
            replayed.record(e);
        }
        let live = run.trace().expect("tracing enabled");
        assert_eq!(replayed.to_chrome_json(), live.to_chrome_json());
        assert_eq!(replayed.instants_recorded(), live.instants_recorded());
    }

    #[test]
    fn buffers_cross_threads() {
        let events = [RunEvent::CheckerParked {
            checker: 2,
            cycle: 77,
        }];
        let handle = std::thread::spawn(move || events.len());
        assert_eq!(handle.join().unwrap(), 1);
    }
}

//! The per-main-slot policy lifecycle of a verified run (DESIGN.md §17).
//!
//! A slot has two orthogonal state variables. [`Production`] says whether
//! the main still executes its program; [`Checking`] says whether a
//! checker channel verifies what it executes. The harness changes them
//! only through [`Slot`]'s transition methods, and every transition
//! settles the slot's [`Coverage`] interval, so the checked/unchecked
//! cycle split follows from the state and cannot drift from it.

use flexstep_sim::{ArchSnapshot, PairingAction, ReliabilityMode};
use std::collections::VecDeque;

/// Whether a main still produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Production {
    /// Executing its program.
    Running,
    /// Reached its final `ecall` at `cycle`.
    Finished { cycle: u64 },
    /// Parked by a trap other than its final `ecall`.
    Trapped,
}

/// Whether a checker channel verifies a main.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Checking {
    /// A channel verifies the stream (granted, or queued on an arbiter).
    Live,
    /// A pairing schedule released the checker; unchecked until the
    /// next acquire.
    Released,
    /// Every checker of the slot is out of service; unchecked for good.
    Degraded,
    /// [`ReliabilityMode::Unchecked`]: the slot never had a channel.
    Off,
}

/// Checked/unchecked cycle accumulator for one slot: `since` opens the
/// current interval, and the slot's state at the interval's close picks
/// its bucket. A stopped slot accrues nothing, which keeps
/// checker-drain cycles out of both buckets.
#[derive(Debug, Clone, Copy, Default)]
struct Coverage {
    checked: u64,
    unchecked: u64,
    since: u64,
}

/// One rollback anchor: everything needed to restart a main at a
/// checking-segment boundary. Captured when the segment opens — the SCP
/// snapshot *is* the boundary state, and the journal mark brackets the
/// stores the re-execution must undo.
#[derive(Debug)]
pub(crate) struct Anchor {
    pub(crate) seq: u64,
    pub(crate) snapshot: ArchSnapshot,
    pub(crate) journal_mark: u64,
    pub(crate) open_cycle: u64,
}

/// Rollback bookkeeping of one slot.
#[derive(Debug, Default)]
pub(crate) struct RecoverySlot {
    /// Anchors of segments without a verdict yet, oldest first.
    pub(crate) anchors: VecDeque<Anchor>,
    /// Per consumer index: highest segment seq with a verdict (clean or
    /// failed). Anchors retire once *every* consumer has resolved them.
    pub(crate) resolved: Vec<Option<u64>>,
    /// Detection cycle of the in-flight recovery, until a segment
    /// verifies clean again.
    pub(crate) pending_since: Option<u64>,
    /// Consecutive rollbacks without an intervening clean verdict.
    pub(crate) consecutive: u32,
    /// Memo block: the re-executed stream must be replayed for real
    /// until it verifies clean (DESIGN.md §14).
    pub(crate) blocked: bool,
    pub(crate) recoveries: u64,
    pub(crate) unrecovered: u64,
    pub(crate) wasted_cycles: u64,
    pub(crate) latencies: Vec<u64>,
}

impl RecoverySlot {
    /// Takes anchor `i` to roll back to. Every other anchor describes a
    /// segment whose in-flight data the rollback flush destroys — the
    /// retry regenerates them under fresh seqs, so they can never
    /// resolve — and is dropped. The discarded progress counts as
    /// wasted.
    pub(crate) fn rewind(&mut self, i: usize, now: u64) -> Option<Anchor> {
        let anchor = self.anchors.remove(i)?;
        self.anchors.clear();
        self.wasted_cycles += now.saturating_sub(anchor.open_cycle);
        Some(anchor)
    }

    /// Records a verdict for `seq` from `consumer` (ignored when the
    /// index is stale), retires every anchor all consumers have resolved
    /// and returns the journal mark memory can be truncated to
    /// (`u64::MAX` = everything).
    pub(crate) fn resolve(&mut self, consumer: Option<usize>, seq: u64) -> Option<u64> {
        if let Some(r) = consumer.and_then(|c| self.resolved.get_mut(c)) {
            *r = Some(r.map_or(seq, |v| v.max(seq)));
        }
        // An anchor can only retire once every consumer has issued a
        // verdict for its segment.
        let mut min = u64::MAX;
        for r in &self.resolved {
            min = min.min((*r)?);
        }
        let mut truncate_to = None;
        while let Some(front) = self.anchors.front() {
            if front.seq > min {
                break;
            }
            self.anchors.pop_front();
            truncate_to = Some(match self.anchors.front() {
                Some(next) => next.journal_mark,
                None => u64::MAX,
            });
        }
        truncate_to
    }
}

/// The policy state of one main slot.
#[derive(Debug)]
pub(crate) struct Slot {
    /// The slot's configured reliability mode.
    pub(crate) mode: ReliabilityMode,
    /// Index into the run's arbiters while the main competes for a
    /// shared checker.
    pub(crate) arbiter: Option<usize>,
    /// Cycle of the kill that orphaned the slot, until the re-pair
    /// grant lands (samples the run's repair latencies).
    pub(crate) repair_pending: Option<u64>,
    /// Rollback bookkeeping: present only when the run rolls back and
    /// the mode is checked — exactly the slots whose stores are
    /// journaled.
    pub(crate) recovery: Option<RecoverySlot>,
    production: Production,
    checking: Checking,
    /// A due pairing action not applied yet. Releases defer to the next
    /// segment boundary; a later due event overrides one still pending.
    pending: Option<PairingAction>,
    acquires: u64,
    releases: u64,
    coverage: Coverage,
}

impl Slot {
    /// A running slot: checking is live for checked modes and off for
    /// [`ReliabilityMode::Unchecked`].
    pub(crate) fn new(
        mode: ReliabilityMode,
        arbiter: Option<usize>,
        recovery: Option<RecoverySlot>,
    ) -> Self {
        Slot {
            mode,
            arbiter,
            repair_pending: None,
            recovery,
            production: Production::Running,
            checking: if mode.is_checked() {
                Checking::Live
            } else {
                Checking::Off
            },
            pending: None,
            acquires: 0,
            releases: 0,
            coverage: Coverage::default(),
        }
    }

    pub(crate) fn production(&self) -> Production {
        self.production
    }

    pub(crate) fn checking(&self) -> Checking {
        self.checking
    }

    pub(crate) fn is_running(&self) -> bool {
        self.production == Production::Running
    }

    /// Cycle of the final `ecall` (0 unless finished).
    pub(crate) fn finish_cycle(&self) -> u64 {
        match self.production {
            Production::Finished { cycle } => cycle,
            _ => 0,
        }
    }

    /// Unchecked *by policy* (mode or released window), as opposed to
    /// degraded by checker loss: expiring shots here must warn.
    pub(crate) fn policy_unchecked(&self) -> bool {
        matches!(self.checking, Checking::Released | Checking::Off)
    }

    /// `(acquires, releases)` applied so far.
    pub(crate) fn pairing_counts(&self) -> (u64, u64) {
        (self.acquires, self.releases)
    }

    /// A pairing event fell due; it overrides any action still pending.
    pub(crate) fn schedule(&mut self, action: PairingAction) {
        self.pending = Some(action);
    }

    /// The pending pairing action, if it can apply: a release needs a
    /// running `Live` slot and an acquire a running `Released` one. An
    /// action that cannot apply is void and dropped.
    pub(crate) fn due(&mut self) -> Option<PairingAction> {
        let from = match self.pending? {
            PairingAction::Release => Checking::Live,
            PairingAction::Acquire => Checking::Released,
        };
        if self.checking != from || !self.is_running() {
            self.pending = None;
        }
        self.pending
    }

    /// `Live → Released`, for a due release at a segment boundary.
    pub(crate) fn release(&mut self, now: u64) {
        debug_assert!(self.checking == Checking::Live && self.is_running());
        self.pending = None;
        self.releases += 1;
        self.enter(now, Production::Running, Checking::Released);
    }

    /// `Released → Live`, for a due acquire.
    pub(crate) fn acquire(&mut self, now: u64) {
        debug_assert!(self.checking == Checking::Released && self.is_running());
        self.pending = None;
        self.acquires += 1;
        self.enter(now, Production::Running, Checking::Live);
    }

    /// `Running → Finished`/`Trapped`: freezes coverage at `now`.
    pub(crate) fn stop(&mut self, now: u64, production: Production) {
        debug_assert!(self.is_running() && production != Production::Running);
        self.enter(now, production, self.checking);
    }

    /// A rollback re-executes the slot's tail: production resumes (a
    /// trap the rollback undid no longer stops the main) and a policy
    /// release is overridden, dropping its pending action, since the
    /// re-execution must be re-verified. Coverage resumes at `now`.
    /// Returns whether the slot had stopped.
    pub(crate) fn rollback(&mut self, now: u64) -> bool {
        let was_stopped = !self.is_running();
        let checking = if self.checking == Checking::Released {
            self.pending = None;
            Checking::Live
        } else {
            self.checking
        };
        self.enter(now, Production::Running, checking);
        was_stopped
    }

    /// The slot's last checker is out of service: unchecked for good.
    /// Overrides a release and voids every future pairing action.
    pub(crate) fn degrade(&mut self, now: u64) {
        self.arbiter = None;
        self.repair_pending = None;
        self.pending = None;
        self.enter(now, self.production, Checking::Degraded);
    }

    /// The one coverage mover: closes the open interval at `now` under
    /// the old state and enters the new one.
    fn enter(&mut self, now: u64, production: Production, checking: Checking) {
        self.coverage = self.settled(now);
        self.production = production;
        self.checking = checking;
    }

    /// The coverage with the open interval closed at `now`: live
    /// checking counts as checked, any other running state as
    /// unchecked, and a stopped slot accrues nothing.
    fn settled(&self, now: u64) -> Coverage {
        let mut c = self.coverage;
        if self.is_running() {
            let d = now.saturating_sub(c.since);
            if self.checking == Checking::Live {
                c.checked += d;
            } else {
                c.unchecked += d;
            }
        }
        c.since = now;
        c
    }

    /// The `(checked, unchecked)` cycle totals settled at `now`.
    pub(crate) fn coverage(&self, now: u64) -> (u64, u64) {
        let c = self.settled(now);
        (c.checked, c.unchecked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked() -> Slot {
        Slot::new(ReliabilityMode::SegmentCheck, Some(0), None)
    }

    #[test]
    fn a_shot_expiring_after_a_released_finish_is_policy_unchecked() {
        let mut s = checked();
        s.schedule(PairingAction::Release);
        s.release(10);
        s.stop(20, Production::Finished { cycle: 20 });
        assert_eq!(s.checking(), Checking::Released);
        assert!(s.policy_unchecked());
        assert_eq!(s.finish_cycle(), 20);
        assert_eq!(s.pairing_counts(), (0, 1));
    }

    #[test]
    fn rollback_clears_a_release_and_its_pending_action() {
        let mut s = checked();
        s.schedule(PairingAction::Release);
        s.release(10);
        s.stop(20, Production::Finished { cycle: 20 });
        s.schedule(PairingAction::Acquire);
        assert!(s.rollback(30), "the slot had stopped");
        assert_eq!(s.production(), Production::Running);
        assert_eq!(s.checking(), Checking::Live);
        assert_eq!(s.finish_cycle(), 0);
        assert_eq!(s.due(), None, "the pending acquire is dropped");
        // A rollback is not a pairing acquire.
        assert_eq!(s.pairing_counts(), (0, 1));
    }

    #[test]
    fn degrade_overrides_a_release_and_voids_pairing() {
        let mut s = checked();
        s.schedule(PairingAction::Release);
        s.release(10);
        s.degrade(20);
        assert_eq!(s.checking(), Checking::Degraded);
        assert_eq!(s.arbiter, None);
        assert!(!s.policy_unchecked(), "checker loss is not policy");
        for action in [PairingAction::Acquire, PairingAction::Release] {
            s.schedule(action);
            assert_eq!(s.due(), None, "{action:?} after degradation is void");
        }
        assert_eq!(s.pairing_counts(), (0, 1));
    }

    #[test]
    fn finish_freezes_coverage() {
        let mut s = checked();
        s.schedule(PairingAction::Release);
        s.release(60);
        s.stop(100, Production::Trapped);
        assert_eq!(s.coverage(100), (60, 40));
        assert_eq!(s.coverage(5_000), (60, 40), "drain cycles count nowhere");
        // Transitions of a stopped slot accrue nothing either.
        s.degrade(200);
        assert_eq!(s.coverage(5_000), (60, 40));
    }

    #[test]
    fn unfinish_resumes_coverage_at_now_with_derived_liveness() {
        let mut s = checked();
        s.schedule(PairingAction::Release);
        s.release(40);
        s.stop(100, Production::Finished { cycle: 100 });
        s.rollback(300);
        // The finish → rollback gap counts nowhere; the re-execution is
        // checked again.
        assert_eq!(s.coverage(350), (40 + 50, 60));

        let mut off = Slot::new(ReliabilityMode::Unchecked, None, None);
        assert_eq!(off.checking(), Checking::Off);
        off.stop(50, Production::Trapped);
        off.rollback(80);
        assert_eq!(off.checking(), Checking::Off);
        assert_eq!(off.coverage(100), (0, 50 + 20));
    }
}

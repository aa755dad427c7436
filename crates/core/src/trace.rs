//! Chrome `trace_event` export of verified-run schedules.
//!
//! A many-core FlexStep run is a schedule: segments opening and closing
//! on main cores, checker cores replaying one granted stream at a time,
//! the §III-C arbiters handing channels over, faults landing and being
//! caught. [`ChromeTrace`] folds that schedule one [`RunEvent`] at a
//! time and serialises it as Chrome `trace_event` JSON — load the file
//! in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) and
//! every core becomes a lane on a shared timeline:
//!
//! - **Segment spans** (`ph: "X"`, category `segment`) on each main
//!   core's lane, from [`RunEvent::SegmentOpen`] to
//!   [`RunEvent::SegmentClose`].
//! - **Checker-occupancy spans** (category `check`) on each checker
//!   core's lane, from [`RunEvent::CheckStart`] (the SCP apply that
//!   enters replay) to the verdict
//!   ([`RunEvent::CheckPass`]/[`RunEvent::CheckFail`]), named
//!   after the main core being verified — arbitration interleavings are
//!   directly visible as alternating span colours.
//! - **Recovery spans** (category `recovery`) on a dedicated
//!   `recovery m{N}` lane per main core, covering the detect →
//!   verified-again window of a rollback (consecutive retries extend
//!   one span). They get their own lane because the main keeps opening
//!   segments while it re-executes — the windows nest, and Chrome lanes
//!   only render non-overlapping spans truthfully.
//! - **Instant events** (`ph: "i"`) for arbiter grants and parks
//!   (category `arbiter`), landed faults and expired shots (category
//!   `fault`), detections (category `detect`), checker deaths
//!   (category `fault`, `killed`) and main-core completion
//!   (category `run`).
//!
//! Timestamps are simulated microseconds (`ts`/`dur`), converted from
//! cycles with the platform [`Clock`] (`Clock::paper()` = 1.6 GHz by
//! default); the raw cycle numbers ride along in each event's `args`.
//! All events share `pid` 1 (the SoC); `tid` is the core index
//! (recovery lanes sit at `RECOVERY_LANE_OFFSET + main`).
//!
//! # Attaching a trace
//!
//! [`Scenario::trace_to`](crate::Scenario::trace_to) attaches the
//! recorder by value: the run owns it (so the run stays `Send`), writes
//! the file via
//! [`VerifiedRun::write_trace`](crate::VerifiedRun::write_trace), and
//! exposes it for programmatic access via
//! [`VerifiedRun::trace`](crate::VerifiedRun::trace):
//!
//! ```
//! use flexstep_core::Scenario;
//! use flexstep_isa::{asm::Assembler, XReg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new("tiny");
//! asm.li(XReg::A0, 200);
//! asm.li(XReg::A1, 0x2000_0000);
//! asm.label("l")?;
//! asm.sd(XReg::A1, XReg::A0, 0);
//! asm.addi(XReg::A0, XReg::A0, -1);
//! asm.bnez(XReg::A0, "l");
//! asm.ecall();
//! let program = asm.finish()?;
//!
//! let dir = std::env::temp_dir().join("flexstep_trace_doc");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("tiny.json");
//! let mut run = Scenario::new(&program)
//!     .cores(2)
//!     .trace_to(&path)
//!     .build()?;
//! assert!(run.run_to_completion(10_000_000).completed);
//!
//! let json = run.trace().expect("tracing is on").to_chrome_json();
//! assert!(json.starts_with("{\"traceEvents\": ["));
//! assert!(json.contains("\"ph\": \"X\""), "segments become spans");
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! # Bounded mode
//!
//! A 3600-shot campaign emits millions of events; [`ChromeTrace::
//! bounded`](ChromeTrace::bounded) keeps a ring of the last N
//! completed events (dropping the oldest first and counting them in
//! [`ChromeTrace::dropped`]), so the file size is capped no matter
//! how long the run is. The experiment binaries (`fig8 --trace`,
//! `fig7_manycore --trace`) use [`DEFAULT_RING_CAPACITY`].

use crate::json::{number, JsonObject};
use crate::sink::RunEvent;
use flexstep_sim::Clock;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::Path;

/// Ring capacity the experiment binaries use for `--trace`: large
/// enough for a full 16-core example schedule, small enough that a
/// 3600-shot campaign's artifact stays in the tens of megabytes.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// `tid` offset of the per-main recovery lanes: far above any plausible
/// core index, so recovery spans never collide with a core's own lane.
pub const RECOVERY_LANE_OFFSET: usize = 4096;

/// The run's schedule, recorded as Chrome `trace_event` JSON.
///
/// See the [module documentation](self) for the event model and a
/// worked example.
#[derive(Debug)]
pub struct ChromeTrace {
    /// Completed events, already rendered as JSON objects (one string
    /// per event). Bounded by `capacity` as a ring of the newest.
    events: VecDeque<String>,
    capacity: Option<usize>,
    dropped: u64,
    clock: Clock,
    /// Open segment per main core: `(seq, open_cycle)`.
    open_segments: BTreeMap<usize, (u64, u64)>,
    /// Open check per checker core: `(main, seq, start_cycle)`.
    open_checks: BTreeMap<usize, (usize, u64, u64)>,
    /// In-flight rollback recovery per main core: `(seq, detect_cycle)`.
    open_recoveries: BTreeMap<usize, (u64, u64)>,
    /// Mains that recovered at least once (for recovery-lane metadata).
    recovery_lanes: BTreeSet<usize>,
    /// Cores seen as mains / checkers (for thread-name metadata).
    mains: BTreeSet<usize>,
    checkers: BTreeSet<usize>,
    /// Latest cycle any event reported (closes truncated spans).
    last_cycle: u64,
    spans: u64,
    instants: u64,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTrace {
    /// An unbounded recorder at the paper clock
    /// ([`Clock::paper`], 1.6 GHz).
    pub fn new() -> Self {
        ChromeTrace {
            events: VecDeque::new(),
            capacity: None,
            dropped: 0,
            clock: Clock::paper(),
            open_segments: BTreeMap::new(),
            open_checks: BTreeMap::new(),
            open_recoveries: BTreeMap::new(),
            recovery_lanes: BTreeSet::new(),
            mains: BTreeSet::new(),
            checkers: BTreeSet::new(),
            last_cycle: 0,
            spans: 0,
            instants: 0,
        }
    }

    /// A size-bounded recorder keeping only the newest `capacity`
    /// completed events (a ring; the oldest are dropped and counted in
    /// [`ChromeTrace::dropped`]).
    pub fn bounded(capacity: usize) -> Self {
        ChromeTrace {
            capacity: Some(capacity.max(1)),
            ..Self::new()
        }
    }

    /// Replaces the cycle→µs clock (construction-time option: events
    /// are rendered as they are recorded).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Completed events currently held (spans + instants, after ring
    /// eviction).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans recorded over the trace's lifetime (ring eviction does
    /// not decrement).
    pub fn spans_recorded(&self) -> u64 {
        self.spans
    }

    /// Instant events recorded over the trace's lifetime.
    pub fn instants_recorded(&self) -> u64 {
        self.instants
    }

    fn us(&self, cycle: u64) -> String {
        number(self.clock.cycles_to_us(cycle))
    }

    fn push(&mut self, event: String) {
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Renders one complete (`ph: "X"`) span event.
    fn span(&mut self, tid: usize, name: &str, cat: &str, start: u64, end: u64, args: String) {
        let mut o = JsonObject::new();
        o.field_str("name", name)
            .field_str("cat", cat)
            .field_str("ph", "X")
            .field_u64("pid", 1)
            .field_u64("tid", tid as u64)
            .field_raw("ts", &self.us(start))
            .field_raw("dur", &self.us(end.saturating_sub(start)))
            .field_raw("args", &args);
        self.spans += 1;
        self.push(o.finish());
    }

    /// Renders one thread-scoped instant (`ph: "i"`) event.
    fn instant(&mut self, tid: usize, name: &str, cat: &str, cycle: u64, args: String) {
        let mut o = JsonObject::new();
        o.field_str("name", name)
            .field_str("cat", cat)
            .field_str("ph", "i")
            .field_str("s", "t")
            .field_u64("pid", 1)
            .field_u64("tid", tid as u64)
            .field_raw("ts", &self.us(cycle))
            .field_raw("args", &args);
        self.instants += 1;
        self.push(o.finish());
    }

    fn close_check(&mut self, checker: usize, end: u64, verdict: &str) {
        if let Some((main, seq, start)) = self.open_checks.remove(&checker) {
            let mut a = JsonObject::new();
            a.field_u64("main", main as u64)
                .field_u64("seq", seq)
                .field_str("verdict", verdict)
                .field_u64("start_cycle", start)
                .field_u64("end_cycle", end);
            self.span(
                checker,
                &format!("check m{main} seg {seq}"),
                "check",
                start,
                end,
                a.finish(),
            );
        }
    }

    /// Serialises the recorded schedule as a Chrome `trace_event` JSON
    /// document (the object form, one event per line). Open spans — a
    /// run stopped mid-segment — are closed at the last observed cycle
    /// and flagged `"truncated": true` so every emitted span is
    /// well-formed.
    pub fn to_chrome_json(&self) -> String {
        // Metadata: one process for the SoC, one named lane per core.
        let mut metadata: Vec<String> = Vec::new();
        let meta = |name: &str, tid: usize, args: String| {
            let mut o = JsonObject::new();
            o.field_str("name", name)
                .field_str("ph", "M")
                .field_u64("pid", 1)
                .field_u64("tid", tid as u64)
                .field_raw("args", &args);
            o.finish()
        };
        {
            let mut a = JsonObject::new();
            a.field_str("name", "FlexStep SoC");
            metadata.push(meta("process_name", 0, a.finish()));
        }
        let mut lanes: BTreeMap<usize, String> = BTreeMap::new();
        for &m in &self.mains {
            lanes.insert(m, format!("main {m}"));
        }
        for &c in &self.checkers {
            lanes.entry(c).or_insert_with(|| format!("checker {c}"));
        }
        for &m in &self.recovery_lanes {
            lanes.insert(RECOVERY_LANE_OFFSET + m, format!("recovery m{m}"));
        }
        for (&tid, name) in &lanes {
            let mut a = JsonObject::new();
            a.field_str("name", name);
            metadata.push(meta("thread_name", tid, a.finish()));
            let mut s = JsonObject::new();
            s.field_u64("sort_index", tid as u64);
            metadata.push(meta("thread_sort_index", tid, s.finish()));
        }

        // Close anything still open (truncated runs) at the last
        // observed cycle, without mutating the recorder.
        let mut tail = ChromeTrace {
            clock: self.clock,
            ..ChromeTrace::new()
        };
        for (&main, &(seq, start)) in &self.open_segments {
            let mut a = JsonObject::new();
            a.field_u64("seq", seq)
                .field_u64("open_cycle", start)
                .field_u64("close_cycle", self.last_cycle)
                .field_bool("truncated", true);
            tail.span(
                main,
                &format!("seg {seq}"),
                "segment",
                start,
                self.last_cycle,
                a.finish(),
            );
        }
        for (&checker, &(main, seq, start)) in &self.open_checks {
            let mut a = JsonObject::new();
            a.field_u64("main", main as u64)
                .field_u64("seq", seq)
                .field_str("verdict", "truncated")
                .field_u64("start_cycle", start)
                .field_u64("end_cycle", self.last_cycle)
                .field_bool("truncated", true);
            tail.span(
                checker,
                &format!("check m{main} seg {seq}"),
                "check",
                start,
                self.last_cycle,
                a.finish(),
            );
        }
        for (&main, &(seq, start)) in &self.open_recoveries {
            let mut a = JsonObject::new();
            a.field_u64("seq", seq)
                .field_u64("detect_cycle", start)
                .field_u64("end_cycle", self.last_cycle)
                .field_bool("truncated", true);
            tail.span(
                RECOVERY_LANE_OFFSET + main,
                &format!("recover seg {seq}"),
                "recovery",
                start,
                self.last_cycle,
                a.finish(),
            );
        }
        // Stream everything into one buffer — no cloned intermediate
        // of the (potentially DEFAULT_RING_CAPACITY-sized) event list.
        let body: usize = metadata
            .iter()
            .chain(self.events.iter())
            .chain(tail.events.iter())
            .map(|e| e.len() + 2)
            .sum();
        let mut out = String::with_capacity(body + 128);
        out.push_str("{\"traceEvents\": [\n");
        for (i, event) in metadata
            .iter()
            .chain(self.events.iter())
            .chain(tail.events.iter())
            .enumerate()
        {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(event);
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\", \"meta\": ");
        let mut m = JsonObject::new();
        // Include the truncation-closing spans so the counters agree
        // with the document's own event list.
        m.field_raw("clock_hz", &number(self.clock.hz))
            .field_u64("spans", self.spans + tail.spans)
            .field_u64("instants", self.instants)
            .field_u64("dropped", self.dropped);
        out.push_str(&m.finish());
        out.push('}');
        out
    }

    /// Writes [`ChromeTrace::to_chrome_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Folds one run event into the trace. The match names every
    /// [`RunEvent`] variant and has no wildcard arm, so a new variant
    /// does not compile until the trace decides how to render it.
    pub fn record(&mut self, event: &RunEvent) {
        match *event {
            RunEvent::SegmentOpen { main, seq, cycle } => {
                self.main_lane(main, cycle);
                self.open_segments.insert(main, (seq, cycle));
            }
            RunEvent::SegmentClose { main, seq, cycle } => {
                self.main_lane(main, cycle);
                // A close without a matching open (a partial event
                // stream) degrades to a zero-length span at the close.
                let start = self
                    .open_segments
                    .remove(&main)
                    .filter(|&(open_seq, _)| open_seq == seq)
                    .map_or(cycle, |(_, start)| start);
                let mut a = JsonObject::new();
                a.field_u64("seq", seq)
                    .field_u64("open_cycle", start)
                    .field_u64("close_cycle", cycle);
                self.span(
                    main,
                    &format!("seg {seq}"),
                    "segment",
                    start,
                    cycle,
                    a.finish(),
                );
            }
            RunEvent::CheckStart {
                checker,
                main,
                seq,
                cycle,
            } => {
                self.checker_lane(checker, cycle);
                // A dangling open check (should not happen: replay always
                // ends in a verdict) is closed defensively to keep lanes
                // overlap-free.
                self.close_check(checker, cycle, "superseded");
                self.open_checks.insert(checker, (main, seq, cycle));
            }
            RunEvent::CheckPass {
                checker,
                ref result,
            } => {
                self.checker_lane(checker, result.at);
                self.close_check(checker, result.at, "pass");
            }
            RunEvent::CheckFail {
                checker,
                ref result,
            } => {
                self.checker_lane(checker, result.at);
                self.close_check(checker, result.at, "fail");
            }
            RunEvent::Detection(ref d) => {
                self.checker_lane(d.checker_core, d.detected_at);
                let mut a = JsonObject::new();
                a.field_u64("main", d.main_core as u64)
                    .field_u64("seq", d.segment_seq)
                    .field_str("kind", &d.kind.to_string())
                    .field_u64("cycle", d.detected_at);
                self.instant(
                    d.checker_core,
                    &format!("detect m{} seg {}", d.main_core, d.segment_seq),
                    "detect",
                    d.detected_at,
                    a.finish(),
                );
            }
            RunEvent::FaultInjected(ref injection) => {
                self.main_lane(injection.main_core, injection.at_cycle);
                let mut a = JsonObject::new();
                a.field_str("target", &injection.target.to_string())
                    .field_array("bits", injection.bits.iter().map(u32::to_string))
                    .field_u64("cycle", injection.at_cycle);
                self.instant(
                    injection.main_core,
                    &format!("fault {}", injection.target),
                    "fault",
                    injection.at_cycle,
                    a.finish(),
                );
            }
            RunEvent::ShotExpired { main, cycle } => {
                self.main_lane(main, cycle);
                self.cycle_instant(main, "shot expired", "fault", cycle);
            }
            RunEvent::CheckerGranted {
                checker,
                main,
                cycle,
            } => {
                self.checker_lane(checker, cycle);
                self.mains.insert(main);
                let mut a = JsonObject::new();
                a.field_u64("main", main as u64).field_u64("cycle", cycle);
                self.instant(
                    checker,
                    &format!("grant m{main}"),
                    "arbiter",
                    cycle,
                    a.finish(),
                );
            }
            RunEvent::CheckerParked { checker, cycle } => {
                self.checker_lane(checker, cycle);
                self.cycle_instant(checker, "park", "arbiter", cycle);
            }
            RunEvent::MainFinished { main, cycle } => {
                self.main_lane(main, cycle);
                self.cycle_instant(main, "finished", "run", cycle);
            }
            RunEvent::RecoveryStart { main, seq, cycle } => {
                self.main_lane(main, cycle);
                self.recovery_lanes.insert(main);
                // Consecutive retries extend the original span: the
                // recovery window is detect -> verified-again, not
                // per-rollback.
                self.open_recoveries.entry(main).or_insert((seq, cycle));
            }
            RunEvent::RecoveryComplete {
                main,
                cycle,
                latency,
            } => {
                self.main_lane(main, cycle);
                let (seq, start) = self
                    .open_recoveries
                    .remove(&main)
                    .unwrap_or((0, cycle.saturating_sub(latency)));
                let mut a = JsonObject::new();
                a.field_u64("seq", seq)
                    .field_u64("detect_cycle", start)
                    .field_u64("end_cycle", cycle)
                    .field_u64("latency_cycles", latency);
                self.recovery_lanes.insert(main);
                self.span(
                    RECOVERY_LANE_OFFSET + main,
                    &format!("recover seg {seq}"),
                    "recovery",
                    start,
                    cycle,
                    a.finish(),
                );
            }
            RunEvent::CheckerKilled { checker, cycle } => {
                self.checker_lane(checker, cycle);
                self.cycle_instant(checker, "killed", "fault", cycle);
            }
            RunEvent::CheckerReleased { main, cycle } => {
                self.main_lane(main, cycle);
                self.cycle_instant(main, "release checker", "pairing", cycle);
            }
            RunEvent::CheckerAcquired { main, cycle } => {
                self.main_lane(main, cycle);
                self.cycle_instant(main, "acquire checker", "pairing", cycle);
            }
        }
    }

    /// Notes `main` as a main-core lane active at `cycle`.
    fn main_lane(&mut self, main: usize, cycle: u64) {
        self.last_cycle = self.last_cycle.max(cycle);
        self.mains.insert(main);
    }

    /// Notes `checker` as a checker-core lane active at `cycle`.
    fn checker_lane(&mut self, checker: usize, cycle: u64) {
        self.last_cycle = self.last_cycle.max(cycle);
        self.checkers.insert(checker);
    }

    /// An instant whose only argument is its cycle.
    fn cycle_instant(&mut self, tid: usize, name: &str, cat: &str, cycle: u64) {
        let mut a = JsonObject::new();
        a.field_u64("cycle", cycle);
        self.instant(tid, name, cat, cycle, a.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{MismatchKind, SegmentResult};

    fn trace_of(events: &[RunEvent]) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        for e in events {
            t.record(e);
        }
        t
    }

    #[test]
    fn spans_pair_opens_with_closes() {
        let t = trace_of(&[
            RunEvent::SegmentOpen {
                main: 0,
                seq: 1,
                cycle: 100,
            },
            RunEvent::SegmentClose {
                main: 0,
                seq: 1,
                cycle: 1_700,
            },
        ]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.spans_recorded(), 1);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\": \"seg 1\""));
        // 100 cycles @1.6GHz = 0.0625 µs; dur 1600 cycles = 1 µs.
        assert!(json.contains("\"ts\": 0.0625"));
        assert!(json.contains("\"dur\": 1.0"));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn recovery_spans_pair_and_checker_kills_are_instants() {
        let t = trace_of(&[
            RunEvent::RecoveryStart {
                main: 0,
                seq: 7,
                cycle: 1_000,
            },
            // A consecutive retry extends the original window rather
            // than opening a second span.
            RunEvent::RecoveryStart {
                main: 0,
                seq: 9,
                cycle: 1_500,
            },
            RunEvent::RecoveryComplete {
                main: 0,
                cycle: 3_000,
                latency: 2_000,
            },
            RunEvent::CheckerKilled {
                checker: 1,
                cycle: 4_000,
            },
        ]);
        assert_eq!(t.spans_recorded(), 1);
        assert_eq!(t.instants_recorded(), 1);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\": \"recover seg 7\""));
        assert!(json.contains("\"latency_cycles\": 2000"));
        assert!(json.contains("\"recovery\""));
        assert!(json.contains("\"name\": \"killed\""));
    }

    #[test]
    fn truncated_recovery_spans_close_at_last_cycle() {
        let t = trace_of(&[
            RunEvent::RecoveryStart {
                main: 2,
                seq: 4,
                cycle: 500,
            },
            RunEvent::CheckerKilled {
                checker: 3,
                cycle: 900,
            },
        ]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"recover seg 4\""));
        assert!(json.contains("\"truncated\": true"));
    }

    #[test]
    fn check_spans_attribute_the_main_and_verdict() {
        let t = trace_of(&[
            RunEvent::CheckStart {
                checker: 3,
                main: 0,
                seq: 7,
                cycle: 200,
            },
            RunEvent::CheckFail {
                checker: 3,
                result: SegmentResult {
                    seq: 7,
                    tag: 0,
                    mismatch: Some(MismatchKind::LogUnderrun),
                    at: 360,
                },
            },
        ]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\": \"check m0 seg 7\""));
        assert!(json.contains("\"verdict\": \"fail\""));
        assert!(json.contains("\"checker 3\""));
    }

    #[test]
    fn bounded_ring_drops_oldest_and_counts() {
        let mut t = ChromeTrace::bounded(2);
        for seq in 0..5u64 {
            t.record(&RunEvent::SegmentOpen {
                main: 0,
                seq,
                cycle: seq * 10,
            });
            t.record(&RunEvent::SegmentClose {
                main: 0,
                seq,
                cycle: seq * 10 + 5,
            });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.spans_recorded(), 5);
        let json = t.to_chrome_json();
        assert!(!json.contains("\"seg 0\""), "oldest evicted");
        assert!(json.contains("\"seg 4\""));
        assert!(json.contains("\"dropped\": 3"));
    }

    #[test]
    fn truncated_open_spans_are_closed_at_last_cycle() {
        let t = trace_of(&[
            RunEvent::SegmentOpen {
                main: 0,
                seq: 3,
                cycle: 1_000,
            },
            RunEvent::CheckStart {
                checker: 1,
                main: 0,
                seq: 3,
                cycle: 1_200,
            },
            RunEvent::MainFinished {
                main: 0,
                cycle: 2_000,
            },
        ]);
        let json = t.to_chrome_json();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert_eq!(json.matches("\"truncated\": true").count(), 2);
        // Serialisation must not consume the recorder.
        assert_eq!(t.to_chrome_json(), json);
    }
}

//! One pass of a workload — set-up, the timed run, the correctness
//! gates — and the counters read from the layers it ran through.

use crate::workload::{campaign_spec, RunSpec, Size, CAMPAIGN_CORES};
use flexstep_bench::campaign::{probe_horizon, run_shard};
use flexstep_bench::{fxhash64, BenchError};
use flexstep_campaignd::{engine, JobSpec};
use flexstep_core::json::JsonValue;
use flexstep_core::{CoreModelKind, RecoveryPolicy, RunReport, VerifiedRun};
use flexstep_sim::{Clock, Soc, SocConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Instruction budget of a standalone reference run.
const STANDALONE_LIMIT: u64 = 1 << 32;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs that were checked, and the ones that failed a check.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Runs (or campaign shards) checked.
    pub attempted: u64,
    /// Runs (or shards) that failed at least one check.
    pub failed: u64,
    /// What failed, one line per failed run.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one checked run with the checks it failed.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.push(failures.join("; "));
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Failed runs out of those attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a verified run must reproduce: each main program's standalone
/// retire count and the unchecked baseline cycles.
#[derive(Debug, Clone)]
pub struct RunOracle {
    /// Instructions each main program retires alone on a one-core SoC.
    pub retired: Vec<u64>,
    /// Cycles of the slowest main program alone, unchecked.
    pub baseline_cycles: u64,
    /// Host seconds spent in the standalone `Soc::run_to_ecall` calls.
    pub wall_s: f64,
}

/// Runs every main program of `spec` alone on a one-core SoC with the
/// main's timing model.
///
/// # Errors
///
/// Returns [`BenchError::Config`] if the SoC configuration is invalid.
pub fn oracle(spec: &RunSpec) -> Result<RunOracle, BenchError> {
    let mut out = RunOracle {
        retired: Vec::with_capacity(spec.programs.len()),
        baseline_cycles: 0,
        wall_s: 0.0,
    };
    for p in &spec.programs {
        let mut soc =
            Soc::new(SocConfig::paper(1)).map_err(|e| BenchError::Config(e.to_string()))?;
        if spec.main_model != CoreModelKind::InOrder {
            soc.set_core_model(0, spec.main_model);
        }
        let t = Instant::now();
        out.retired.push(soc.run_to_ecall(p, STANDALONE_LIMIT));
        out.wall_s += secs(t);
        out.baseline_cycles = out.baseline_cycles.max(soc.now());
    }
    Ok(out)
}

/// The correctness gates of one verified run.
pub fn check_run(spec: &RunSpec, report: &RunReport, oracle: &RunOracle) -> Vec<String> {
    let mut fails = Vec::new();
    if !report.completed {
        fails.push("run did not complete".to_string());
    }
    if spec.faults.is_none() && (report.segments_failed != 0 || !report.detections.is_empty()) {
        fails.push(format!(
            "fault-free run failed {} segments ({} detections)",
            report.segments_failed,
            report.detections.len()
        ));
    }
    // Rollback re-executes, so only detect-only runs must retire
    // exactly what the programs retire alone.
    if spec.recovery == RecoveryPolicy::Detect {
        let retired: Vec<u64> = report.per_main.iter().map(|m| m.retired).collect();
        if retired != oracle.retired {
            fails.push(format!(
                "verified retired {retired:?} differs from standalone {:?}",
                oracle.retired
            ));
        }
    }
    let detected = report.matched_detections().len() as u64;
    let landed = report.injections.len() as u64;
    fails.extend(shot_accounts(
        detected,
        landed,
        report.shots_expired,
        report.shots_armed,
    ));
    fails
}

/// `detected <= landed <= armed` and `landed + expired == armed`.
fn shot_accounts(detected: u64, landed: u64, expired: u64, armed: u64) -> Option<String> {
    (!(detected <= landed && landed <= armed && landed + expired == armed)).then(|| {
        format!("shot accounts broken: detected {detected}, landed {landed}, expired {expired}, armed {armed}")
    })
}

/// Counters read from the layers of finished runs, summed over a pass.
/// All of them are simulated quantities and repeat exactly for a seed.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Main-core instructions retired.
    pub retired: u64,
    /// Simulated cycles until the last checker drained, summed over runs.
    pub drain_cycles: u64,
    /// Unchecked baseline cycles, summed over runs.
    pub baseline_cycles: u64,
    /// Harness engine steps.
    pub engine_steps: u64,
    /// Verdict-memo hits.
    pub memo_hits: u64,
    /// Verdict-memo misses.
    pub memo_misses: u64,
    /// Main steps stalled on a full DBC FIFO.
    pub backpressure_stalls: u64,
    /// Checker steps spent waiting on an empty stream.
    pub checker_wait_stalls: u64,
    /// Shared-checker arbitration conflicts.
    pub conflicts: u64,
    /// Shared-checker channel hand-overs.
    pub switches: u64,
    /// Main-core L1D accesses and misses.
    pub l1d: (u64, u64),
    /// L2 accesses and misses.
    pub l2: (u64, u64),
    /// Sum of main-core IPC over mains, and the number of mains.
    pub ipc: (f64, u64),
    /// Rollback recoveries.
    pub recoveries: u64,
    /// Cycles of forward progress discarded by rollbacks.
    pub wasted_cycles: u64,
    /// Shots armed, landed, expired and detected.
    pub shots: Shots,
    /// Matched detection latencies, µs of simulated time.
    pub latencies_us: Vec<f64>,
}

/// Fault-shot accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shots {
    /// Shots the fault plans scheduled.
    pub armed: u64,
    /// Shots that landed in a stream.
    pub landed: u64,
    /// Shots that expired without landing.
    pub expired: u64,
    /// Landed shots matched to a detection.
    pub detected: u64,
}

impl Counters {
    fn add_run(&mut self, run: &VerifiedRun, report: &RunReport, oracle: &RunOracle) {
        let stats = &run.fabric().stats;
        let mem = &run.soc().mem;
        self.retired += report.retired;
        self.drain_cycles += report.drain_cycle;
        self.baseline_cycles += oracle.baseline_cycles;
        self.engine_steps += report.engine_steps;
        self.memo_hits += stats.memo_hits;
        self.memo_misses += stats.memo_misses;
        self.backpressure_stalls += stats.backpressure_stalls;
        self.checker_wait_stalls += stats.checker_wait_stalls;
        for a in &report.arbiters {
            self.conflicts += a.conflicts;
            self.switches += a.switches;
        }
        for &m in run.mains() {
            let l1d = mem.l1d_stats(m);
            self.l1d.0 += l1d.accesses();
            self.l1d.1 += l1d.misses;
            self.ipc.0 += run.soc().core(m).ipc();
            self.ipc.1 += 1;
        }
        self.l2.0 += mem.l2_stats().accesses();
        self.l2.1 += mem.l2_stats().misses;
        for m in &report.per_main {
            self.recoveries += m.recoveries;
            self.wasted_cycles += m.wasted_cycles;
        }
        let matched = report.matched_detections();
        self.shots.armed += report.shots_armed;
        self.shots.landed += report.injections.len() as u64;
        self.shots.expired += report.shots_expired;
        self.shots.detected += matched.len() as u64;
        let clock = run.clock();
        self.latencies_us.extend(
            matched
                .iter()
                .map(|d| clock.cycles_to_us(d.latency_cycles())),
        );
    }
}

/// Host time of sampled engine steps, split by the role of the core
/// the scheduler was about to step.
#[derive(Debug, Clone, Default)]
pub struct StepSampler {
    /// Summed ns and count of sampled steps of main cores.
    pub main: (f64, u64),
    /// Summed ns and count of sampled steps of checker cores.
    pub checker: (f64, u64),
}

/// Every how many engine steps one is timed.
const SAMPLE_EVERY: u64 = 4;

impl StepSampler {
    /// Runs `run` to completion step by step, timing every
    /// [`SAMPLE_EVERY`]th [`VerifiedRun::step_once`] and attributing it
    /// by the core [`Soc::next_ready_core`] names just before the call.
    pub fn run(&mut self, run: &mut VerifiedRun) -> RunReport {
        #[derive(Clone, Copy)]
        enum Role {
            Main,
            Checker,
            Idle,
        }
        let mut role = vec![Role::Idle; run.soc().num_cores()];
        for &m in run.mains() {
            role[m] = Role::Main;
        }
        for &c in run.checkers() {
            role[c] = Role::Checker;
        }
        let mut step = 0u64;
        loop {
            step += 1;
            let live = if step.is_multiple_of(SAMPLE_EVERY) {
                let core = run.soc().next_ready_core();
                let t = Instant::now();
                let live = run.step_once();
                let ns = t.elapsed().as_nanos() as f64;
                match core.map(|c| role[c]) {
                    Some(Role::Main) => self.main = (self.main.0 + ns, self.main.1 + 1),
                    Some(Role::Checker) => {
                        self.checker = (self.checker.0 + ns, self.checker.1 + 1);
                    }
                    _ => {}
                }
                live
            } else {
                run.step_once()
            };
            if !live {
                return run.report();
            }
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Seconds spent generating programs (or the campaign spec).
    pub gen_s: f64,
    /// Seconds spent in `Scenario::build`.
    pub build_s: f64,
    /// Whole set-up: generation and build, plus `probe_horizon` and
    /// `submit` for the campaign.
    pub setup_s: f64,
    /// Seconds of the measured run.
    pub run_s: f64,
    /// Main-core guest instructions the run retired (committed ones
    /// for the campaign).
    pub guest_insts: u64,
    /// Shots the campaign armed (0 for simulation workloads).
    pub shots: u64,
    /// Campaign only: seconds in `probe_horizon`, `submit` and `merge`.
    pub probe_s: f64,
    /// See [`Pass::probe_s`].
    pub submit_s: f64,
    /// See [`Pass::probe_s`].
    pub merge_s: f64,
    /// Traced campaign passes: seconds the same shards take run
    /// in-process with `run_shard`.
    pub sweep_s: f64,
    /// Checked runs (or shards) and their failures.
    pub tally: Tally,
    /// Digest of the pass's outputs; equal across passes of one seed.
    pub digest: u64,
    /// Layer counters.
    pub counters: Counters,
}

/// One pass of a simulation workload: generate, build, run, check.
///
/// # Errors
///
/// Returns generation or scenario configuration errors.
pub fn sim_pass(
    gen: &dyn Fn() -> Result<Vec<RunSpec>, BenchError>,
    oracles: &[RunOracle],
    mut sampler: Option<&mut StepSampler>,
) -> Result<Pass, BenchError> {
    let t = Instant::now();
    let specs = gen()?;
    let gen_s = secs(t);
    let t = Instant::now();
    let mut runs = specs
        .iter()
        .map(RunSpec::build)
        .collect::<Result<Vec<_>, _>>()?;
    let build_s = secs(t);

    let mut reports = Vec::with_capacity(runs.len());
    let t = Instant::now();
    for run in &mut runs {
        reports.push(match sampler.as_deref_mut() {
            Some(s) => s.run(run),
            None => run.run_to_completion(u64::MAX),
        });
    }
    let run_s = secs(t);

    let mut pass = Pass {
        gen_s,
        build_s,
        setup_s: gen_s + build_s,
        run_s,
        ..Pass::default()
    };
    let mut digest = String::new();
    for (((spec, run), report), oracle) in specs.iter().zip(&runs).zip(&reports).zip(oracles) {
        pass.tally.record(check_run(spec, report, oracle));
        pass.counters.add_run(run, report, oracle);
        digest.push_str(&report.to_json());
    }
    pass.guest_insts = pass.counters.retired;
    pass.digest = fxhash64(digest.as_bytes());
    Ok(pass)
}

/// A campaign directory under the benchmark's own `work/`, distinct
/// for every call in this process.
pub fn campaign_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("campaign-{}-{n}", std::process::id()))
}

fn campaign_err(e: flexstep_campaignd::CampaignError) -> BenchError {
    BenchError::Invariant(format!("campaignd: {e}"))
}

/// Checks a merged campaign artifact: every shard present once in id
/// order, completed, with balanced shot accounts. Adds each shard to
/// `tally` and its shots and latencies to `counters`.
pub fn check_merged(merged: &str, total: usize, tally: &mut Tally, counters: &mut Counters) {
    let clock = Clock::paper();
    let lines: Vec<&str> = merged.lines().collect();
    for id in 0..total.max(lines.len()) {
        let Some(line) = lines.get(id) else {
            tally.record(vec![format!("shard {id} missing from the merge")]);
            continue;
        };
        let Ok(doc) = JsonValue::parse(line) else {
            tally.record(vec![format!("shard line {id} does not parse")]);
            continue;
        };
        let num = |k: &str| doc.get(k).and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
        let mut fails = Vec::new();
        if num("id") != id as u64 || id >= total {
            fails.push(format!("merge line {id} holds shard {}", num("id")));
        }
        if doc.get("completed").and_then(JsonValue::as_bool) != Some(true) {
            fails.push(format!("shard {id} did not complete"));
        }
        let (detected, landed) = (num("detected"), num("landed"));
        let (expired, armed) = (num("expired"), num("armed"));
        fails.extend(shot_accounts(detected, landed, expired, armed));
        if fails.is_empty() {
            let s = &mut counters.shots;
            s.armed += armed;
            s.landed += landed;
            s.expired += expired;
            s.detected += detected;
            counters.recoveries += num("recovered");
            for p in doc
                .get("pairs")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
            {
                let at = |k: &str| p.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                let cycles = at("detected_at").saturating_sub(at("injected_at"));
                counters.latencies_us.push(clock.cycles_to_us(cycles));
            }
        }
        tally.record(fails);
    }
}

/// One pass of the campaign workload: generate the spec, probe the
/// horizon and submit (set-up), run with one worker, merge, check.
///
/// `committed_per_shard` is the instruction count the shard's mains
/// commit fault-free; rolled-back re-execution does not count as guest
/// progress.
///
/// # Errors
///
/// Returns set-up failures; a failed run or merge is a failed check.
pub fn campaign_pass(
    seed: u64,
    size: Size,
    committed_per_shard: u64,
    dir: &Path,
) -> Result<Pass, BenchError> {
    let t = Instant::now();
    let spec = campaign_spec(seed, size);
    let gen_s = secs(t);
    let t = Instant::now();
    probe_horizon(&spec.config_for(CAMPAIGN_CORES))?;
    let probe_s = secs(t);
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    engine::submit(dir, &spec).map_err(campaign_err)?;
    let submit_s = secs(t);

    let total = spec.total_shards();
    let mut pass = Pass {
        gen_s,
        setup_s: gen_s + probe_s + submit_s,
        probe_s,
        submit_s,
        ..Pass::default()
    };
    let t = Instant::now();
    let ran = engine::run(dir, 1, None);
    pass.run_s = secs(t);
    let t = Instant::now();
    let merged = ran.and_then(|_| {
        let out = engine::merged_path(dir);
        engine::merge(dir, &out)?;
        std::fs::read_to_string(&out).map_err(|e| flexstep_campaignd::CampaignError::io(&out, e))
    });
    pass.merge_s = secs(t);
    let _ = std::fs::remove_dir_all(dir);
    match merged {
        Ok(text) => {
            check_merged(&text, total, &mut pass.tally, &mut pass.counters);
            pass.digest = fxhash64(text.as_bytes());
        }
        Err(e) => {
            for _ in 0..total {
                pass.tally.record(vec![format!("campaign failed: {e}")]);
            }
        }
    }
    pass.shots = pass.counters.shots.armed;
    pass.guest_insts = committed_per_shard * (total as u64 - pass.tally.failed);
    Ok(pass)
}

/// Runs every shard of `spec` in-process with
/// [`run_shard`](flexstep_bench::campaign::run_shard), records the
/// summed seconds in `pass.sweep_s`, and checks that the shards detect
/// what the pass's `campaignd` merge detected.
///
/// # Errors
///
/// Returns the shard's configuration error.
pub fn shard_sweep(spec: &JobSpec, pass: &mut Pass) -> Result<(), BenchError> {
    let cfg = spec.config_for(CAMPAIGN_CORES);
    let horizon = probe_horizon(&cfg)?;
    let mut detected = 0;
    for k in 0..spec.shards_per_config {
        let t = Instant::now();
        let o = run_shard(&cfg, horizon, k)?;
        pass.sweep_s += secs(t);
        detected += o.pairs.len() as u64;
    }
    let merged = pass.counters.shots.detected;
    pass.tally.record(if detected == merged {
        Vec::new()
    } else {
        vec![format!(
            "in-process shards detected {detected}, the campaignd merge {merged}"
        )]
    });
    Ok(())
}

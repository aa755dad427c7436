//! The four benchmark workloads and the inputs each one generates from
//! the workload seed.
//!
//! Why each workload is in the benchmark is recorded in `README.md`.
//! In short: `paired_dual` is replay-heavy with no memo benefit,
//! `memo_loop` is its counterpart (OoO main, memo hits replace replay),
//! `shared_64` is scheduler- and arbiter-bound at 64 cores, and
//! `campaign` is the only one that fires faults through recovery and
//! drives `campaignd`.

use flexstep_bench::manycore::many_core_job;
use flexstep_bench::{derive_stream, BenchError};
use flexstep_campaignd::JobSpec;
use flexstep_core::{
    CoreModelKind, FabricConfig, FaultPlan, RecoveryPolicy, ReliabilityMode, Scenario,
    ScenarioError, Topology, VerifiedRun,
};
use flexstep_isa::asm::Program;
use flexstep_workloads::builder::control_loop_kernel;
use flexstep_workloads::{by_name, Scale};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dual-core in-order main with a dedicated checker, four SPEC-style
    /// kernels back to back. Fault-free and seed-independent.
    PairedDual,
    /// Dual-core OoO main, segment-aligned control loop, memo on.
    /// Fault-free and seed-independent.
    MemoLoop,
    /// 64 cores: 48 in-order mains and 16 shared checkers, with seeded
    /// random bit flips sprayed across the channels.
    Shared64,
    /// A seeded 16-core rollback campaign driven through `campaignd`.
    Campaign,
}

/// Every workload. `BENCHMARK.json` runs `memo_loop` and `campaign`;
/// see `README.md` for why the other two are run by hand only.
pub const WORKLOADS: [Workload; 4] = [
    Workload::PairedDual,
    Workload::MemoLoop,
    Workload::Shared64,
    Workload::Campaign,
];

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairedDual => "paired_dual",
            Workload::MemoLoop => "memo_loop",
            Workload::Shared64 => "shared_64",
            Workload::Campaign => "campaign",
        }
    }

    /// Looks a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload injects faults (and so reports detection
    /// latency).
    pub fn fires_faults(self) -> bool {
        matches!(self, Workload::Shared64 | Workload::Campaign)
    }
}

/// How much work one pass of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few milliseconds per pass, for the benchmark's own tests.
    Tiny,
}

/// Core count of the `shared_64` SoC.
pub const SHARED_CORES: usize = 64;
/// Shared checkers of the `shared_64` SoC (4:1 consolidation).
pub const SHARED_CHECKERS: usize = 16;
/// Core count of each campaign shard's SoC.
pub const CAMPAIGN_CORES: usize = 16;
/// Consecutive rollbacks a campaign main may take before giving up.
pub const CAMPAIGN_MAX_RETRIES: u32 = 3;
/// The SPEC-style kernels `paired_dual` runs back to back: streaming,
/// pointer chase, DP band and SAD.
pub const PAIRED_KERNELS: [&str; 4] = ["libquantum", "mcf", "hmmer", "x264"];

/// One verified simulation: its programs and its SoC configuration.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// One program per main core, in channel order.
    pub programs: Vec<Program>,
    /// Total cores.
    pub cores: usize,
    /// Shared checker pool size; `None` is the dedicated dual-core pair.
    pub shared_checkers: Option<usize>,
    /// Timing model of every main core.
    pub main_model: CoreModelKind,
    /// Faults to inject; `None` marks the run fault-free, which its
    /// correctness gate then requires.
    pub faults: Option<FaultPlan>,
    /// What a detection triggers.
    pub recovery: RecoveryPolicy,
}

impl RunSpec {
    /// Builds the run through [`Scenario`], with cold simulated caches.
    ///
    /// # Errors
    ///
    /// Returns the scenario's configuration error.
    pub fn build(&self) -> Result<VerifiedRun, ScenarioError> {
        let mut s = Scenario::new(&self.programs[0])
            .cores(self.cores)
            .fabric(FabricConfig::paper())
            .recovery(self.recovery);
        if self.main_model != CoreModelKind::InOrder {
            s = s.main_core_model(self.main_model);
        }
        if let Some(checkers) = self.shared_checkers {
            s = s.topology(Topology::SharedChecker { checkers });
        }
        if let Some(plan) = &self.faults {
            s = s.fault_plan(plan.clone());
        }
        for p in &self.programs[1..] {
            s = s.program(p);
        }
        s.build()
    }
}

/// SplitMix64: the benchmark's own seeded stream for arming cycles and
/// channel choices (the program receives only the generated plan).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A fault plan of `shots` random single-bit flips, one per channel in
/// turn, armed at seeded instants in `lo..hi`.
fn spray(seed: u64, stream: &str, mains: usize, shots: usize, lo: u64, hi: u64) -> FaultPlan {
    let mut rng = SplitMix(derive_stream(seed, stream));
    let mut plan = FaultPlan::none().with_seed(rng.next());
    let offset = rng.next() as usize % mains;
    for k in 0..shots {
        plan = plan
            .then_random_at(rng.range(lo, hi))
            .on_channel((offset + k) % mains);
    }
    plan
}

fn kernel(name: &str, scale: Scale) -> Result<Program, BenchError> {
    by_name(name)
        .map(|w| w.program(scale))
        .ok_or_else(|| BenchError::UnknownWorkload(name.into()))
}

/// Generates the verified runs of one pass of a simulation workload
/// (every workload but [`Workload::Campaign`]).
///
/// # Errors
///
/// Returns [`BenchError::Invariant`] for the campaign workload and
/// [`BenchError::UnknownWorkload`] if a kernel is missing from the
/// registry.
pub fn sim_runs(w: Workload, seed: u64, size: Size) -> Result<Vec<RunSpec>, BenchError> {
    let dual = |program: Program, main_model| RunSpec {
        programs: vec![program],
        cores: 2,
        shared_checkers: None,
        main_model,
        faults: None,
        recovery: RecoveryPolicy::Detect,
    };
    match w {
        Workload::PairedDual => {
            let scale = match size {
                Size::Full => Scale::Small,
                Size::Tiny => Scale::Test,
            };
            PAIRED_KERNELS
                .iter()
                .map(|name| Ok(dual(kernel(name, scale)?, CoreModelKind::InOrder)))
                .collect()
        }
        Workload::MemoLoop => {
            let reps = match size {
                Size::Full => 12,
                Size::Tiny => 2,
            };
            let seg = FabricConfig::paper().segment_limit as i64;
            let program = control_loop_kernel("control_loop", seg, 50, reps);
            Ok(vec![dual(program, CoreModelKind::ooo())])
        }
        Workload::Shared64 => {
            let (iters, shots) = match size {
                Size::Full => (SHARED64_ITERS, 48),
                Size::Tiny => (60, 8),
            };
            let mains = SHARED_CORES - SHARED_CHECKERS;
            let programs = (0..mains).map(|i| many_core_job(i as u64, iters)).collect();
            // Shots arm while the mains run and their streams carry
            // data (a main takes about 6 cycles per iteration).
            let span = (8 * iters as u64).max(4_000);
            Ok(vec![RunSpec {
                programs,
                cores: SHARED_CORES,
                shared_checkers: Some(SHARED_CHECKERS),
                main_model: CoreModelKind::InOrder,
                faults: Some(spray(seed, "shared_64", mains, shots, 2_000, span)),
                recovery: RecoveryPolicy::Detect,
            }])
        }
        Workload::Campaign => Err(BenchError::Invariant(
            "the campaign workload runs through campaignd, not sim_runs".into(),
        )),
    }
}

/// Loop iterations of each `shared_64` main.
const SHARED64_ITERS: i64 = 2_000;

/// The campaign the `campaign` workload submits: one 16-core
/// shared-checker configuration under rollback recovery.
pub fn campaign_spec(seed: u64, size: Size) -> JobSpec {
    let (iters, shards) = match size {
        Size::Full => (600, 20),
        Size::Tiny => (150, 2),
    };
    let mains = CAMPAIGN_CORES - CAMPAIGN_CORES / 4;
    JobSpec {
        name: "perfbench".into(),
        core_counts: vec![CAMPAIGN_CORES],
        cores_per_checker: 4,
        iters_per_main: iters,
        shots_per_shard: mains,
        shards_per_config: shards,
        seed,
        recovery: RecoveryPolicy::Rollback {
            max_retries: CAMPAIGN_MAX_RETRIES,
        },
        mode: ReliabilityMode::SegmentCheck,
    }
}

/// The programs of one campaign shard (the same for every shard).
pub fn campaign_programs(spec: &JobSpec) -> Vec<Program> {
    let mains = CAMPAIGN_CORES - CAMPAIGN_CORES / spec.cores_per_checker;
    (0..mains)
        .map(|i| many_core_job(i as u64, spec.iters_per_main))
        .collect()
}

/// A shard-shaped run the benchmark can step itself: the campaign's
/// SoC, programs and recovery policy with one seeded shot per main over
/// the fault-free `horizon`. `campaignd` runs its shards out of reach
/// of the benchmark, so the campaign's per-layer counters come from
/// this run.
pub fn campaign_layer_run(spec: &JobSpec, horizon: u64) -> RunSpec {
    let programs = campaign_programs(spec);
    let mains = programs.len();
    RunSpec {
        faults: Some(spray(
            spec.seed,
            "campaign-layer-run",
            mains,
            spec.shots_per_shard,
            horizon / 20,
            horizon.max(21),
        )),
        programs,
        cores: CAMPAIGN_CORES,
        shared_checkers: Some(CAMPAIGN_CORES / spec.cores_per_checker),
        main_model: CoreModelKind::InOrder,
        recovery: spec.recovery,
    }
}

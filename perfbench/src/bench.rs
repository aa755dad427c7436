//! The benchmark run: timed passes for `--seconds`, then the metric
//! table. A traced run adds per-layer timing and counters.

use crate::pass::{
    campaign_dir, campaign_pass, oracle, shard_sweep, sim_pass, Counters, Pass, RunOracle,
    StepSampler, Tally,
};
use crate::stats::{median, percentile, tail_percentile, Metrics};
use crate::workload::{
    campaign_layer_run, campaign_spec, sim_runs, Size, Workload, CAMPAIGN_CORES,
};
use flexstep_bench::campaign::probe_horizon;
use flexstep_bench::BenchError;
use flexstep_sim::{Soc, SocConfig};
use std::hint::black_box;
use std::time::Instant;

/// The end-to-end metrics an untraced run reports, with their units,
/// as `BENCHMARK.json` lists them. Each applies to every workload and
/// is never 0.
pub const END_TO_END: [(&str, &str); 3] = [
    ("guest_mips", "MIPS"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports, with their units, as
/// `BENCHMARK.json` lists them. Each is measured on every workload (the
/// campaign's simulator layers on its layer run); metrics of layers only
/// some workloads reach appear in the full report line alone.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("workloads.gen_s", "s"),
    ("core.scenario.build_s", "s"),
    ("isa.decode_ns", "ns"),
    ("sim.unverified_ns_per_inst", "ns"),
    ("sim.main_step_ns", "ns"),
    ("core.checker_step_ns", "ns"),
    ("core.checker_step_share", "ratio"),
    ("sim.sched_ns_per_pick", "ns"),
    ("core.harness.ns_per_step", "ns"),
    ("core.harness.steps_per_inst", "ratio"),
    ("core.verify_overhead_s", "s"),
    ("core.memo.hits", "count"),
    ("core.memo.misses", "count"),
    ("core.memo.hit_rate", "ratio"),
    ("core.dbc.backpressure_stalls", "count"),
    ("core.dbc.checker_wait_stalls", "count"),
    ("core.share.conflicts", "count"),
    ("core.share.switches", "count"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.l2_miss_rate", "ratio"),
    ("sim.main_ipc", "inst/cycle"),
    ("core.recovery.recoveries", "count"),
    ("core.recovery.wasted_cycles", "cycles"),
    ("trace.guest_mips_untraced", "MIPS"),
    ("trace.guest_mips_traced", "MIPS"),
    ("trace.overhead_ratio", "ratio"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("error_rate", "ratio"),
    ("sim_slowdown", "ratio"),
];

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every fault plan and campaign RNG.
    pub seed: u64,
    /// Seconds of timed passes (a run makes at least one pass).
    pub seconds: f64,
    /// Whether to run the traced (per-layer) variant.
    pub trace: bool,
    /// Work per pass.
    pub size: Size,
}

/// What a benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every metric the run measured, with its unit.
    pub metrics: Metrics,
    /// Checked runs or shards, and the failures.
    pub tally: Tally,
    /// Untraced passes made.
    pub passes: usize,
}

/// What a workload is checked against, computed once per invocation
/// outside every timed region.
enum Plan {
    Sim {
        oracles: Vec<RunOracle>,
    },
    Campaign {
        committed_per_shard: u64,
        horizon: u64,
        layer_oracles: Vec<RunOracle>,
    },
}

fn plan(cfg: &Config) -> Result<Plan, BenchError> {
    if cfg.workload == Workload::Campaign {
        let spec = campaign_spec(cfg.seed, cfg.size);
        let horizon = probe_horizon(&spec.config_for(CAMPAIGN_CORES))?;
        let layer = oracle(&campaign_layer_run(&spec, horizon))?;
        Ok(Plan::Campaign {
            committed_per_shard: layer.retired.iter().sum(),
            horizon,
            layer_oracles: vec![layer],
        })
    } else {
        let specs = sim_runs(cfg.workload, cfg.seed, cfg.size)?;
        Ok(Plan::Sim {
            oracles: specs.iter().map(oracle).collect::<Result<_, _>>()?,
        })
    }
}

/// Makes passes until `seconds` have gone by (at least one), checking
/// that every pass reproduces the first one's outputs.
fn passes(
    seconds: f64,
    mut one: impl FnMut() -> Result<Pass, BenchError>,
) -> Result<Vec<Pass>, BenchError> {
    let start = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    loop {
        let mut p = one()?;
        if let Some(first) = out.first() {
            if p.digest != first.digest {
                p.tally.failed = p.tally.attempted;
                p.tally
                    .failures
                    .push("outputs differ from the first pass of this seed".into());
            }
        }
        out.push(p);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

/// The fastest pass's value of a host time. Every pass of a run does
/// the same work, and contention from other tenants of a shared host
/// only ever adds time, so the minimum is the estimate it disturbs
/// least.
fn least(ps: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    ps.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The fastest pass's value of a host rate (see [`least`]).
fn most(ps: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    ps.iter().map(f).fold(0.0, f64::max)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn guest_mips(ps: &[Pass]) -> f64 {
    most(ps, |p| p.guest_insts as f64 / p.run_s / 1e6)
}

/// Runs the benchmark.
///
/// # Errors
///
/// Returns set-up failures (bad configuration, I/O); failed correctness
/// checks are counted in the report instead.
pub fn bench(cfg: &Config) -> Result<Report, BenchError> {
    let plan = plan(cfg)?;
    let w = cfg.workload;
    let gen = || sim_runs(w, cfg.seed, cfg.size);
    let dir = campaign_dir();
    // `sampler` is given in the traced phase: simulation passes time
    // their steps, campaign passes add the in-process shard sweep.
    let one = |sampler: Option<&mut StepSampler>| match &plan {
        Plan::Sim { oracles } => sim_pass(&gen, oracles, sampler),
        Plan::Campaign {
            committed_per_shard,
            ..
        } => {
            let mut p = campaign_pass(cfg.seed, cfg.size, *committed_per_shard, &dir)?;
            if sampler.is_some() {
                shard_sweep(&campaign_spec(cfg.seed, cfg.size), &mut p)?;
            }
            Ok(p)
        }
    };

    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let untraced = passes(budget, || one(None))?;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    for p in &untraced {
        tally.absorb(p.tally.clone());
    }
    let first = &untraced[0].counters;

    m.set("guest_mips", guest_mips(&untraced), "MIPS");
    m.set("setup_s", least(&untraced, |p| p.setup_s), "s");
    if w == Workload::Campaign {
        m.set(
            "shots_per_s",
            most(&untraced, |p| p.shots as f64 / p.run_s),
            "1/s",
        );
        let s = first.shots;
        m.set(
            "coverage",
            ratio(s.detected as f64, s.armed as f64),
            "ratio",
        );
    } else {
        sim_speed(&mut m, &untraced);
    }
    if w.fires_faults() {
        latency_metrics(&mut m, &first.latencies_us);
    }

    if cfg.trace {
        let traced = trace(cfg, &plan, &mut m, &mut tally, &untraced, one)?;
        m.set("trace.guest_mips_untraced", guest_mips(&untraced), "MIPS");
        m.set("trace.guest_mips_traced", traced, "MIPS");
        m.set(
            "trace.overhead_ratio",
            ratio(guest_mips(&untraced), traced),
            "ratio",
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.set("error_rate", tally.error_rate(), "ratio");
    let rss = crate::host::peak_rss_mb()
        .ok_or_else(|| BenchError::Config("peak RSS is not readable on this host".into()))?;
    m.set("peak_rss_mb", rss, "MB");
    Ok(Report {
        metrics: m,
        tally,
        passes: untraced.len(),
    })
}

/// Detection-latency median and tail (see [`tail_percentile`]).
fn latency_metrics(m: &mut Metrics, latencies_us: &[f64]) {
    let n = latencies_us.len();
    m.set("detect_latency_samples", n as f64, "count");
    m.set("detect_latency_us_p50", percentile(latencies_us, 50), "us");
    if let Some(nn) = tail_percentile(n) {
        m.set("detect_latency_nn", f64::from(nn), "%");
        m.set("detect_latency_us_pNN", percentile(latencies_us, nn), "us");
    }
}

/// The traced half of a `--trace 1` run: instrumented passes, the
/// standalone and microbenchmark layer timings, and the layer counters.
/// Returns the traced passes' guest MIPS.
fn trace(
    cfg: &Config,
    plan: &Plan,
    m: &mut Metrics,
    tally: &mut Tally,
    untraced: &[Pass],
    mut one: impl FnMut(Option<&mut StepSampler>) -> Result<Pass, BenchError>,
) -> Result<f64, BenchError> {
    let absorb = |tally: &mut Tally, ps: &[Pass]| {
        for p in ps {
            tally.absorb(p.tally.clone());
        }
    };
    let mut sampler = StepSampler::default();
    let traced = passes(cfg.seconds / 2.0, || one(Some(&mut sampler)))?;
    absorb(tally, &traced);
    // The verified runs the simulator layers are measured on: the
    // workload's own, or the campaign's shard-shaped layer run.
    let (specs, plain, sampled) = match plan {
        Plan::Sim { .. } => (
            sim_runs(cfg.workload, cfg.seed, cfg.size)?,
            untraced.to_vec(),
            traced.clone(),
        ),
        Plan::Campaign {
            horizon,
            layer_oracles,
            ..
        } => {
            campaign_layers(m, &traced);
            let gen = || {
                let spec = campaign_spec(cfg.seed, cfg.size);
                Ok(vec![campaign_layer_run(&spec, *horizon)])
            };
            let plain = passes(0.0, || sim_pass(&gen, layer_oracles, None))?;
            let sampled = passes(0.0, || sim_pass(&gen, layer_oracles, Some(&mut sampler)))?;
            absorb(tally, &plain);
            absorb(tally, &sampled);
            sim_speed(m, &plain);
            (gen()?, plain, sampled)
        }
    };

    m.set("workloads.gen_s", least(&sampled, |p| p.gen_s), "s");
    m.set("core.scenario.build_s", least(&sampled, |p| p.build_s), "s");
    let (main, checker) = (sampler.main, sampler.checker);
    m.set("sim.main_step_ns", ratio(main.0, main.1 as f64), "ns");
    m.set(
        "core.checker_step_ns",
        ratio(checker.0, checker.1 as f64),
        "ns",
    );
    m.set(
        "core.checker_step_share",
        ratio(checker.0, main.0 + checker.0),
        "ratio",
    );
    layer_counters(m, &plain);

    let words: Vec<u32> = specs
        .iter()
        .flat_map(|s| &s.programs)
        .flat_map(|p| p.text.iter().copied())
        .collect();
    m.set("isa.decode_ns", decode_ns(&words), "ns");
    m.set(
        "sim.sched_ns_per_pick",
        sched_ns_per_pick(specs[0].cores)?,
        "ns",
    );
    // Standalone unverified runs of every main program, fastest of three.
    let mut walls = Vec::new();
    let mut retired = 0;
    for _ in 0..3 {
        let oracles = specs.iter().map(oracle).collect::<Result<Vec<_>, _>>()?;
        walls.push(oracles.iter().map(|o| o.wall_s).sum::<f64>());
        retired = oracles.iter().flat_map(|o| &o.retired).sum::<u64>();
    }
    let unverified_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    m.set(
        "sim.unverified_ns_per_inst",
        ratio(unverified_s * 1e9, retired as f64),
        "ns",
    );
    m.set(
        "core.verify_overhead_s",
        least(&plain, |p| p.run_s) - unverified_s,
        "s",
    );
    Ok(guest_mips(&traced))
}

/// Per-call `campaignd` timings, and the split of `campaignd run` into
/// shard simulation and engine overhead, from each traced pass's own
/// in-process shard sweep.
fn campaign_layers(m: &mut Metrics, traced: &[Pass]) {
    m.set("campaignd.submit_s", least(traced, |p| p.submit_s), "s");
    m.set("campaignd.run_s", least(traced, |p| p.run_s), "s");
    m.set("campaignd.merge_s", least(traced, |p| p.merge_s), "s");
    m.set("bench.probe_horizon_s", least(traced, |p| p.probe_s), "s");
    m.set("campaignd.shard_sim_s", least(traced, |p| p.sweep_s), "s");
    // A difference of two timings: the median over passes, each pass
    // pairing its run with the sweep made right after it.
    let overhead: Vec<f64> = traced.iter().map(|p| p.run_s - p.sweep_s).collect();
    m.set("campaignd.overhead_s", median(&overhead), "s");
}

/// Simulated cycles per host second and the checked/unchecked cycle
/// ratio of simulation passes.
fn sim_speed(m: &mut Metrics, ps: &[Pass]) {
    m.set(
        "sim_mcycles_per_s",
        most(ps, |p| p.counters.drain_cycles as f64 / p.run_s / 1e6),
        "Mcycles/s",
    );
    let c = &ps[0].counters;
    m.set(
        "sim_slowdown",
        ratio(c.drain_cycles as f64, c.baseline_cycles as f64),
        "ratio",
    );
}

/// Counters of the first untraced pass, plus per-step host time.
fn layer_counters(m: &mut Metrics, ps: &[Pass]) {
    let c: &Counters = &ps[0].counters;
    m.set(
        "core.harness.ns_per_step",
        least(ps, |p| ratio(p.run_s * 1e9, p.counters.engine_steps as f64)),
        "ns",
    );
    m.set(
        "core.harness.steps_per_inst",
        ratio(c.engine_steps as f64, c.retired as f64),
        "ratio",
    );
    m.set("core.memo.hits", c.memo_hits as f64, "count");
    m.set("core.memo.misses", c.memo_misses as f64, "count");
    m.set(
        "core.memo.hit_rate",
        ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
        "ratio",
    );
    m.set(
        "core.dbc.backpressure_stalls",
        c.backpressure_stalls as f64,
        "count",
    );
    m.set(
        "core.dbc.checker_wait_stalls",
        c.checker_wait_stalls as f64,
        "count",
    );
    m.set("core.share.conflicts", c.conflicts as f64, "count");
    m.set("core.share.switches", c.switches as f64, "count");
    m.set(
        "mem.l1d_miss_rate",
        ratio(c.l1d.1 as f64, c.l1d.0 as f64),
        "ratio",
    );
    m.set(
        "mem.l2_miss_rate",
        ratio(c.l2.1 as f64, c.l2.0 as f64),
        "ratio",
    );
    m.set("sim.main_ipc", ratio(c.ipc.0, c.ipc.1 as f64), "inst/cycle");
    m.set("core.recovery.recoveries", c.recoveries as f64, "count");
    m.set(
        "core.recovery.wasted_cycles",
        c.wasted_cycles as f64,
        "cycles",
    );
}

/// Host ns per `flexstep_isa::decode` over the workload's text words.
fn decode_ns(words: &[u32]) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < 0.1 {
        for &w in words {
            black_box(flexstep_isa::decode(black_box(w)).ok());
        }
        n += words.len() as u64;
    }
    ratio(start.elapsed().as_secs_f64() * 1e9, n as f64)
}

/// Host ns per ready-queue pick: `Soc::next_ready` plus `stall_core` at
/// `cores` cores, under the SoC's default scheduler for that size.
fn sched_ns_per_pick(cores: usize) -> Result<f64, BenchError> {
    const ITERS: u32 = 200_000;
    let mut times = Vec::new();
    for _ in 0..3 {
        let mut soc =
            Soc::new(SocConfig::paper(cores)).map_err(|e| BenchError::Config(e.to_string()))?;
        for i in 0..cores {
            soc.core_mut(i).unpark();
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let t = Instant::now();
        for _ in 0..ITERS {
            let id = soc
                .next_ready()
                .ok_or_else(|| BenchError::Invariant("no core ready".into()))?;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            soc.stall_core(id, 1 + (x % 64));
        }
        times.push(t.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS));
        black_box(soc.now());
    }
    Ok(times.into_iter().fold(f64::INFINITY, f64::min))
}

//! Persistent, versioned campaign job specs and their deterministic
//! shard expansion.
//!
//! A [`JobSpec`] is the durable description of a fault-injection
//! campaign: a grid of SoC sizes times a per-configuration shard count,
//! plus the workload scale, fault arming density, seed, and recovery
//! policy. It round-trips through `spec.json` (written once by
//! `campaignd submit`, re-read by every `run`/`resume`/`status`/`merge`
//! invocation) and expands into the same ordered [`Shard`] list every
//! time — the property resumability rests on.

use crate::error::CampaignError;
use flexstep_bench::campaign::CampaignConfig;
use flexstep_bench::{derive_stream, RecoveryPolicy, ReliabilityMode};
use flexstep_core::json::{self, JsonObject, JsonValue};

/// Spec format version written to and required from `spec.json`.
/// Bumped on any change to the shard expansion or outcome encoding —
/// a campaign directory is only resumable by the code revision that
/// understands its shards.
pub const SPEC_VERSION: u64 = 1;

/// The durable description of one campaign: everything needed to
/// regenerate the full shard list, byte-for-byte, on any host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Human-readable campaign name (artifact labelling only).
    pub name: String,
    /// SoC sizes to sweep (total cores per configuration).
    pub core_counts: Vec<usize>,
    /// Cores per shared checker (the §III-C pool ratio).
    pub cores_per_checker: usize,
    /// Loop iterations per main-core workload.
    pub iters_per_main: i64,
    /// Shots armed by each shard.
    pub shots_per_shard: usize,
    /// Shards per SoC configuration.
    pub shards_per_config: usize,
    /// Campaign seed. Configuration at `cores` cores runs on
    /// [`derive_stream(seed, "cores-{cores}")`](derive_stream); shard
    /// `k` of that configuration then draws from
    /// `derive_stream(config_seed, "chunk-{k}")` — exactly the
    /// [`campaign_row`](flexstep_bench::campaign::campaign_row) chunk
    /// streams, so a sharded campaign aggregates to the same totals.
    pub seed: u64,
    /// What a shard does on detection: record it, or roll the faulted
    /// main back and re-execute.
    pub recovery: RecoveryPolicy,
    /// Reliability mode every main slot runs at.
    /// [`ReliabilityMode::SegmentCheck`] reproduces pre-mode campaigns
    /// byte for byte; specs without a `"mode"` field parse as it, so
    /// existing campaign directories stay resumable.
    pub mode: ReliabilityMode,
}

/// One schedulable unit of campaign work. Shard outcomes are pure
/// functions of `(spec, id)`: the engine may run them in any order, on
/// any worker, across any number of interrupted invocations, and the
/// merged artifact comes out identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Global sequential id (position in [`JobSpec::shards`], also the
    /// artifact file number).
    pub id: usize,
    /// Total cores of this shard's SoC configuration.
    pub cores: usize,
    /// Chunk index within the configuration (selects the RNG stream).
    pub index: usize,
}

impl JobSpec {
    /// A small smoke-test campaign: one 8-core configuration, 12
    /// shards, 4 shots each — enough shards to exercise work stealing
    /// and interrupt/resume, small enough for CI.
    pub fn quick() -> Self {
        JobSpec {
            name: "quick".to_string(),
            core_counts: vec![8],
            cores_per_checker: 4,
            iters_per_main: 300,
            shots_per_shard: 4,
            shards_per_config: 12,
            seed: 2025,
            recovery: RecoveryPolicy::Detect,
            mode: ReliabilityMode::SegmentCheck,
        }
    }

    /// Rejects specs that cannot expand into at least one valid shard.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] naming the offending field.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let bad = |msg: String| Err(CampaignError::Spec(msg));
        if self.core_counts.is_empty() {
            return bad("core_counts must name at least one SoC size".into());
        }
        if self.shards_per_config == 0 {
            return bad("shards_per_config must be at least 1".into());
        }
        if self.shots_per_shard == 0 {
            return bad("shots_per_shard must be at least 1".into());
        }
        if self.iters_per_main <= 0 {
            return bad(format!(
                "iters_per_main must be positive (got {})",
                self.iters_per_main
            ));
        }
        for &cores in &self.core_counts {
            if let Err(e) = flexstep_bench::manycore::checker_split(cores, self.cores_per_checker) {
                return bad(format!("core count {cores} is invalid: {e}"));
            }
        }
        Ok(())
    }

    /// Total shards the campaign expands into.
    pub fn total_shards(&self) -> usize {
        self.core_counts.len() * self.shards_per_config
    }

    /// The full ordered shard list. Deterministic: configuration order
    /// follows `core_counts`, shard ids are assigned sequentially.
    pub fn shards(&self) -> Vec<Shard> {
        let mut out = Vec::with_capacity(self.total_shards());
        for &cores in &self.core_counts {
            for index in 0..self.shards_per_config {
                out.push(Shard {
                    id: out.len(),
                    cores,
                    index,
                });
            }
        }
        out
    }

    /// The [`CampaignConfig`] for one SoC size of the grid. Each size
    /// gets a decorrelated seed stream so adding a configuration never
    /// perturbs another's shards.
    pub fn config_for(&self, cores: usize) -> CampaignConfig {
        CampaignConfig {
            cores,
            cores_per_checker: self.cores_per_checker,
            iters_per_main: self.iters_per_main,
            runs: self.shards_per_config,
            shots_per_run: self.shots_per_shard,
            seed: derive_stream(self.seed, &format!("cores-{cores}")),
            recovery: self.recovery,
            mode: self.mode,
        }
    }

    /// Renders the spec as the `spec.json` document.
    pub fn to_json(&self) -> String {
        let recovery = match self.recovery {
            RecoveryPolicy::Detect => "\"detect\"".to_string(),
            RecoveryPolicy::Rollback { max_retries } => {
                let mut o = JsonObject::new();
                o.field_u64("rollback", u64::from(max_retries));
                o.finish()
            }
            // `RecoveryPolicy` is non-exhaustive: a future policy must
            // get an encoding (and a SPEC_VERSION bump) before specs
            // can carry it.
            other => panic!("recovery policy {other:?} has no spec.json encoding"),
        };
        let mut o = JsonObject::new();
        o.field_u64("version", SPEC_VERSION)
            .field_str("name", &self.name)
            .field_raw(
                "core_counts",
                &json::numbers_u64(self.core_counts.iter().map(|&c| c as u64)),
            )
            .field_u64("cores_per_checker", self.cores_per_checker as u64)
            .field_i64("iters_per_main", self.iters_per_main)
            .field_u64("shots_per_shard", self.shots_per_shard as u64)
            .field_u64("shards_per_config", self.shards_per_config as u64)
            .field_u64("seed", self.seed)
            .field_raw("recovery", &recovery)
            .field_str("mode", self.mode.label());
        o.finish()
    }

    /// Parses a `spec.json` document.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] on malformed JSON, a missing or
    /// mistyped field, or a version this revision does not understand.
    pub fn parse(input: &str) -> Result<JobSpec, CampaignError> {
        let bad = |msg: String| CampaignError::Spec(msg);
        let doc = JsonValue::parse(input)
            .map_err(|e| bad(format!("spec.json is not valid JSON: {e}")))?;
        let version = doc
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| bad("spec.json: missing numeric \"version\"".into()))?;
        if version != SPEC_VERSION {
            return Err(bad(format!(
                "spec.json: version {version} not supported (this build reads {SPEC_VERSION})"
            )));
        }
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("spec.json: missing string \"{key}\"")))
        };
        let u64_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad(format!("spec.json: missing numeric \"{key}\"")))
        };
        let core_counts = doc
            .get("core_counts")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("spec.json: missing array \"core_counts\"".into()))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|c| c as usize)
                    .ok_or_else(|| bad("spec.json: non-numeric core count".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let recovery = match doc.get("recovery") {
            Some(v) if v.as_str() == Some("detect") => RecoveryPolicy::Detect,
            Some(v) => {
                let retries = v
                    .get("rollback")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| {
                        bad(
                            "spec.json: \"recovery\" must be \"detect\" or {\"rollback\": N}"
                                .into(),
                        )
                    })?;
                RecoveryPolicy::Rollback {
                    max_retries: u32::try_from(retries)
                        .map_err(|_| bad("spec.json: rollback retry count too large".into()))?,
                }
            }
            None => return Err(bad("spec.json: missing \"recovery\"".into())),
        };
        // Absent in pre-mode specs: default keeps those directories
        // resumable with unchanged shard outcomes.
        let mode = match doc.get("mode") {
            None => ReliabilityMode::SegmentCheck,
            Some(v) => v
                .as_str()
                .and_then(ReliabilityMode::from_label)
                .ok_or_else(
                    || bad("spec.json: \"mode\" must be a reliability-mode label".into()),
                )?,
        };
        let spec = JobSpec {
            name: str_field("name")?,
            core_counts,
            cores_per_checker: u64_field("cores_per_checker")? as usize,
            iters_per_main: doc
                .get("iters_per_main")
                .and_then(JsonValue::as_i64)
                .ok_or_else(|| bad("spec.json: missing numeric \"iters_per_main\"".into()))?,
            shots_per_shard: u64_field("shots_per_shard")? as usize,
            shards_per_config: u64_field("shards_per_config")? as usize,
            seed: u64_field("seed")?,
            recovery,
            mode,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rollback_spec() -> JobSpec {
        JobSpec {
            name: "grid".into(),
            core_counts: vec![8, 16],
            shards_per_config: 3,
            seed: u64::MAX - 1,
            recovery: RecoveryPolicy::Rollback { max_retries: 2 },
            ..JobSpec::quick()
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let lockstep = JobSpec {
            mode: ReliabilityMode::FullLockstep,
            ..JobSpec::quick()
        };
        for spec in [JobSpec::quick(), rollback_spec(), lockstep] {
            let parsed = JobSpec::parse(&spec.to_json()).expect("round trip");
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn pre_mode_specs_parse_as_segment_check() {
        // A spec.json written before the "mode" field existed must stay
        // readable and expand to identical shards.
        let legacy = JobSpec::quick()
            .to_json()
            .replace(", \"mode\": \"segment_check\"", "");
        assert!(!legacy.contains("\"mode\""), "field stripped: {legacy}");
        let parsed = JobSpec::parse(&legacy).expect("legacy spec parses");
        assert_eq!(parsed, JobSpec::quick());
        assert!(JobSpec::parse(
            &JobSpec::quick()
                .to_json()
                .replace("\"segment_check\"", "\"lockstep\"")
        )
        .is_err());
    }

    #[test]
    fn shard_expansion_is_deterministic_and_sequential() {
        let spec = rollback_spec();
        let shards = spec.shards();
        assert_eq!(shards.len(), spec.total_shards());
        assert_eq!(shards.len(), 6);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.id, i, "ids are the list positions");
        }
        assert_eq!(
            shards[0],
            Shard {
                id: 0,
                cores: 8,
                index: 0
            }
        );
        assert_eq!(
            shards[3],
            Shard {
                id: 3,
                cores: 16,
                index: 0
            }
        );
        assert_eq!(spec.shards(), shards, "expansion is a pure function");
    }

    #[test]
    fn per_config_seeds_are_decorrelated_chunk_streams() {
        let spec = rollback_spec();
        let c8 = spec.config_for(8);
        let c16 = spec.config_for(16);
        assert_ne!(c8.seed, c16.seed);
        assert_eq!(c8.seed, derive_stream(spec.seed, "cores-8"));
        assert_eq!(c8.runs, spec.shards_per_config);
        assert_eq!(c8.shots_per_run, spec.shots_per_shard);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"version\": 99}",
            &JobSpec::quick()
                .to_json()
                .replace("\"recovery\": \"detect\"", "\"recovery\": 3"),
            &JobSpec {
                core_counts: vec![],
                ..JobSpec::quick()
            }
            .to_json(),
            &JobSpec {
                cores_per_checker: 1,
                ..JobSpec::quick()
            }
            .to_json(),
        ] {
            assert!(JobSpec::parse(bad).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn deeply_nested_specs_are_a_typed_error() {
        // A spec file of nothing but `[` must not overflow the stack.
        let deep = format!("{{\"version\": {}", "[".repeat(100_000));
        match JobSpec::parse(&deep) {
            Err(CampaignError::Spec(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("expected CampaignError::Spec, got {other:?}"),
        }
    }
}

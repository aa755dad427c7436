//! Differential test of the sharer directory: `MemorySystem` snoops only
//! the L1Ds its directory lists, and must match, access for access, a
//! reference model that probes every other core's L1D on every data
//! access (the O(cores) scan the directory replaced).
//!
//! A tiny L1D (2 sets x 2 ways) keeps conflict evictions, clean and
//! dirty, on nearly every miss, so the directory's victim bookkeeping is
//! exercised as hard as its fill and invalidation paths.

use flexstep_mem::cache::{Cache, CacheConfig};
use flexstep_mem::hierarchy::{LatencyConfig, MemoryConfig, MemorySystem};
use flexstep_mem::LineState;
use proptest::prelude::*;

const LINE: u64 = 64;

fn tiny_config() -> MemoryConfig {
    let l1 = CacheConfig {
        size_bytes: 2 * 2 * LINE as usize,
        ways: 2,
        line_bytes: LINE as usize,
    };
    MemoryConfig {
        l1i: l1,
        l1d: l1,
        l2: CacheConfig {
            size_bytes: 4 * 2 * LINE as usize,
            ways: 2,
            line_bytes: LINE as usize,
        },
        latency: LatencyConfig::paper(),
    }
}

/// The reference: per-core L1s and a shared L2 with the coherence scan
/// that probes every other core's L1D, then invalidates or downgrades.
struct ScanOracle {
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Cache,
    latency: LatencyConfig,
    snoops: u64,
}

impl ScanOracle {
    fn new(cores: usize, config: MemoryConfig) -> Self {
        let cache = |c| Cache::new(c).expect("geometry");
        ScanOracle {
            l1i: (0..cores).map(|_| cache(config.l1i)).collect(),
            l1d: (0..cores).map(|_| cache(config.l1d)).collect(),
            l2: cache(config.l2),
            latency: config.latency,
            snoops: 0,
        }
    }

    fn coherence_actions(&mut self, core: usize, addr: u64, write: bool) -> u64 {
        let mut cycles = 0;
        for (i, other) in self.l1d.iter_mut().enumerate() {
            if i == core {
                continue;
            }
            if write {
                if other.probe(addr) != LineState::Invalid {
                    other.invalidate(addr);
                    self.snoops += 1;
                    cycles += self.latency.snoop;
                }
            } else if other.probe(addr) == LineState::Modified {
                other.downgrade(addr);
                self.snoops += 1;
                cycles += self.latency.snoop;
            }
        }
        cycles
    }

    fn access(&mut self, core: usize, addr: u64, op: Op) -> u64 {
        let write = matches!(op, Op::Write | Op::Amo);
        let mut cycles = self.latency.l1_hit;
        let l1_out = if op == Op::Fetch {
            self.l1i[core].access(addr, false)
        } else {
            cycles += self.coherence_actions(core, addr, write);
            self.l1d[core].access(addr, write)
        };
        if l1_out.hit {
            return cycles;
        }
        let l2_out = self.l2.access(addr, write);
        cycles += self.latency.l2_hit;
        if !l2_out.hit {
            cycles += self.latency.dram;
        }
        if l1_out.writeback {
            cycles += self.latency.l2_hit;
        }
        if l2_out.writeback {
            cycles += self.latency.dram;
        }
        cycles
    }

    fn flush_all(&mut self) {
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            c.flush_all();
        }
        self.l2.flush_all();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Fetch,
    Read,
    Write,
    Amo,
    FlushAll,
}

/// Six lines over the L1D's two sets (three per set, so every set
/// overflows), each addressed at one of its eight words.
fn addr_of(line: u64, word: u64) -> u64 {
    0x8000 + line * LINE + word * 8
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Fetch),
        6 => Just(Op::Read),
        5 => Just(Op::Write),
        2 => Just(Op::Amo),
        1 => Just(Op::FlushAll),
    ]
}

/// One access: the op, a core pick, a line and a word within it.
fn step() -> impl Strategy<Value = (Op, u64, u64, u64)> {
    (op(), any::<u64>(), 0u64..6, 0u64..8)
}

/// Maps a raw pick onto a core: half the time uniform, half the time one
/// of a few hot cores (including both ends of a second bitmask word at
/// 65 cores), so lines are genuinely shared across many cores.
fn core_of(pick: u64, cores: usize) -> usize {
    let n = (pick >> 1) as usize;
    if pick & 1 == 0 {
        n % cores
    } else {
        [0, 1, cores / 2, cores - 1][n % 4] % cores
    }
}

fn check_against_oracle(cores: usize, steps: &[(Op, u64, u64, u64)]) -> Result<(), TestCaseError> {
    let mut mem = MemorySystem::new(cores, tiny_config()).expect("geometry");
    let mut oracle = ScanOracle::new(cores, tiny_config());
    for (i, &(op, pick, line, word)) in steps.iter().enumerate() {
        let core = core_of(pick, cores);
        let addr = addr_of(line, word);
        let (got, want) = match op {
            Op::Fetch => (mem.fetch(core, addr).1, oracle.access(core, addr, op)),
            Op::Read => (mem.read(core, addr, 8).1, oracle.access(core, addr, op)),
            Op::Write => (
                mem.write(core, addr, i as u64, 8),
                oracle.access(core, addr, op),
            ),
            Op::Amo => (
                mem.amo(core, addr, 8, |v| v + 1).1,
                oracle.access(core, addr, op),
            ),
            Op::FlushAll => {
                mem.flush_all();
                oracle.flush_all();
                (0, 0)
            }
        };
        prop_assert_eq!(
            got,
            want,
            "cycles of step {} ({:?} core {} at {:#x})",
            i,
            op,
            core,
            addr
        );
        prop_assert_eq!(mem.snoop_count(), oracle.snoops, "snoops after step {}", i);
        prop_assert_eq!(
            mem.l2_stats(),
            oracle.l2.stats(),
            "L2 stats after step {}",
            i
        );
        for c in 0..cores {
            prop_assert_eq!(
                mem.l1i_stats(c),
                oracle.l1i[c].stats(),
                "L1I {} step {}",
                c,
                i
            );
            prop_assert_eq!(
                mem.l1d_stats(c),
                oracle.l1d[c].stats(),
                "L1D {} step {}",
                c,
                i
            );
        }
        // The directory invariant, over every line in play: a core is
        // listed exactly when its L1D holds the line.
        for line in 0..6 {
            let addr = addr_of(line, 0);
            let sharers = mem.l1d_sharers(addr);
            for c in 0..cores {
                let state = mem.l1d_state(c, addr);
                prop_assert_eq!(
                    state,
                    oracle.l1d[c].probe(addr),
                    "L1D {} state of {:#x}",
                    c,
                    addr
                );
                prop_assert_eq!(
                    sharers.contains(&c),
                    state != LineState::Invalid,
                    "directory entry of {:#x} disagrees with core {}'s L1D ({:?}) after step {}",
                    addr,
                    c,
                    state,
                    i
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn directory_matches_scan_on_1_core(steps in proptest::collection::vec(step(), 1..200)) {
        check_against_oracle(1, &steps)?;
    }

    #[test]
    fn directory_matches_scan_on_2_cores(steps in proptest::collection::vec(step(), 1..200)) {
        check_against_oracle(2, &steps)?;
    }

    #[test]
    fn directory_matches_scan_on_16_cores(steps in proptest::collection::vec(step(), 1..200)) {
        check_against_oracle(16, &steps)?;
    }

    #[test]
    fn directory_matches_scan_on_65_cores(steps in proptest::collection::vec(step(), 1..200)) {
        check_against_oracle(65, &steps)?;
    }
}

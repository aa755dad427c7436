//! # flexstep-mem
//!
//! Memory-hierarchy substrate for the FlexStep reproduction: sparse
//! physical memory, set-associative cache timing models with MSI coherence
//! state, and a [`MemorySystem`] combining per-core L1s with a shared L2 at
//! the latencies of Tab. II of the paper.
//!
//! Functional data lives in [`PhysMem`]; caches model *timing and
//! coherence*, which is what the FlexStep experiments measure (slowdown,
//! backpressure, detection latency).
//!
//! ## Example
//!
//! ```
//! use flexstep_mem::{MemoryConfig, MemorySystem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = MemorySystem::new(4, MemoryConfig::paper())?;
//! mem.phys_mut().load_words(0x1000, &[0x0000_0013]); // nop
//! let (word, cycles) = mem.fetch(0, 0x1000);
//! assert_eq!(word, 0x13);
//! assert!(cycles >= 2); // L1 latency per Tab. II
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
mod directory;
pub mod hierarchy;
pub mod phys;

pub use cache::{Cache, CacheConfig, CacheStats, LineState};
pub use hierarchy::{AccessKind, LatencyConfig, MemoryConfig, MemorySystem};
pub use phys::PhysMem;

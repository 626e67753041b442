//! Transaction-level DRAM timing model for stacked-DRAM cache studies.
//!
//! This crate implements the memory substrate used by the Bi-Modal DRAM
//! cache reproduction: a configurable DRAM module (channels, ranks, banks,
//! row buffers) with open-page policy, refresh, and data-bus occupancy;
//! each request is serviced on arrival against the open-row state, plus an off-chip main-memory wrapper with
//! row-rank-bank-mc-column address interleaving.
//!
//! The model is *transaction level*: each request is resolved into a
//! completion time by walking the bank/bus resource state (precharge,
//! activate, column access, burst transfer), rather than by simulating
//! individual DDR commands on a cycle-by-cycle wheel. This is the same
//! abstraction the paper's own trace-driven design-space simulator uses and
//! it faithfully reproduces row-buffer-hit-rate, bank-conflict and
//! bandwidth effects.
//!
//! # Example
//!
//! ```
//! use bimodal_dram::{DramConfig, DramModule, Location, Op, Request};
//!
//! // A stacked-DRAM stack: 2 channels x 8 banks, 2 KB pages, 128-bit bus.
//! let config = DramConfig::stacked(2, 8);
//! let mut dram = DramModule::new(config);
//! let loc = Location::new(0, 0, 3, 42);
//! let first = dram.access(Request::read(loc, 64, 1000));
//! let second = dram.access(Request::read(loc, 64, first.done));
//! // The second access hits the open row, so it is strictly faster.
//! assert!(second.done - second.arrival < first.done - first.arrival);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod backend;
mod bank;
mod config;
mod controller;
mod deferred;
mod mainmem;
mod request;
mod stats;
mod system;
mod timing;

pub use address::{AddressMapping, DecodedAddress};
pub use backend::{BackendKind, Ddr5, Hbm2, MemBackend, Paper2014, PcmFar, Tdram};
pub use bank::{Bank, RowEvent};
pub use config::{DramConfig, PagePolicy};
pub use controller::{DramModule, OpenRowOutcome};
pub use deferred::{DeferredOp, DeferredQueue};
pub use mainmem::MainMemory;
pub use request::{Completion, Location, Op, Request};
pub use stats::{BankStats, DramStats};
pub use system::MemorySystem;
pub use timing::{Cycle, TimingParams};

// Re-exported so schemes can tag their traffic without depending on
// `bimodal-obs` directly.
pub use bimodal_obs::{BandwidthTracker, QueueDepthStats, TrafficClass};

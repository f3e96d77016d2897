//! # wormdsm-coherence — directory-based coherence substrate
//!
//! The passive building blocks of the paper's DSM node: addresses and home
//! mapping, every node's processor cache in one table (MSI, direct-mapped,
//! write-back), the fully-mapped directory with column-organized
//! presence-bit views, protocol message definitions, the controller/memory
//! cost model, and the writeback buffer that closes the fetch/writeback
//! race window.
//!
//! The *active* protocol engine (transaction FSMs, the invalidation
//! schemes, sequential-consistency stalling) lives in `wormdsm-core`, which
//! drives these structures against the `wormdsm-mesh` network.

#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod cost;
pub mod directory;
pub mod msg;
pub mod wb;

pub use addr::{Addr, BlockId, MemGeometry};
pub use cache::{Caches, Evicted, LineState};
pub use cost::{CostModel, MsgSizes};
pub use directory::{DirEntry, DirState, Directory, QueuedReq};
pub use msg::{MsgTable, ProtoMsg};
pub use wb::WbBuffer;

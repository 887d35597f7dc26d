//! # panda-core — distributed kd-tree construction and exact KNN querying
//!
//! Rust reproduction of the PANDA algorithm (Patwary et al., *"PANDA:
//! Extreme Scale Parallel K-Nearest Neighbor on Distributed
//! Architectures"*, IPDPS 2016): a two-level (global + local) kd-tree with
//! sampled-histogram median splits, variance-based split dimensions,
//! SIMD-packed leaf buckets, and a batched, pipelined distributed query
//! protocol with radius-based remote pruning.
//!
//! One **session API** fronts every engine ([`engine`]): build any
//! backend, describe a batch with a validated [`engine::QueryRequest`],
//! and get a structured [`engine::QueryResponse`] whose neighbor storage
//! is the flat CSR [`engine::NeighborTable`].
//!
//! * Single-node usage: [`knn::KnnIndex`] (implements
//!   [`engine::NnBackend`]).
//! * Distributed usage: [`engine::ShardedIndex`], same trait — a
//!   `Send + Sync` front handle over long-lived shard worker threads,
//!   each owning its local tree and `panda-comm` endpoint. SPMD callers
//!   (virtual-time scaling studies) drive
//!   [`build_distributed::build_distributed`] +
//!   [`query_distributed::query_distributed`] directly under
//!   `run_cluster`.
//!
//! All querying is **exact**: results are verified bit-identical to brute
//! force throughout the test suite (`BoundMode::Exact`, the default).
//!
//! ## The local query hot path
//!
//! Three layers make the single-node path fast. The kernels bench
//! (`cargo bench -p panda-bench --bench kernels`) races the fused leaf
//! kernel against the scalar two-pass reference, and Input against
//! Morton order:
//!
//! * **Fused scan-and-offer leaf kernel**
//!   ([`local_tree::PackedLeaves::scan_and_offer`]) — squared distances
//!   are computed dimension-major over the lane-padded bucket layout and
//!   compared against the candidate heap's bound *in-register*; the heap
//!   is touched only for surviving lanes. No intermediate distance
//!   buffer, no second pass. Runtime dispatch selects an AVX2
//!   `std::arch` implementation when the CPU supports it (probed once per
//!   process; `PANDA_NO_AVX2=1` forces the portable kernel) with a
//!   portable unrolled fallback, both specialized for the paper's
//!   dimensionalities (2/3/10/15) and bit-identical to the scalar
//!   reference — no FMA, same accumulation order.
//! * **Zero-copy traversal stack** ([`local_tree::QueryWorkspace`]) — the
//!   Arya–Mount side-offset state lives in **one** array per workspace;
//!   stack entries carry a 20-byte `(dim, offset, undo-checkpoint)`
//!   record instead of a 64-byte side-array copy, and popping rewinds an
//!   undo log to restore the exact path state. Workspaces are fully
//!   reusable across queries and trees.
//! * **Locality-aware batching** ([`knn::KnnIndex::query_session`]) — a
//!   batch can be executed in Morton (Z-order) order
//!   ([`config::QueryOrder`], or per-request via
//!   [`engine::QueryRequest::with_order`]) so consecutive queries share
//!   tree paths and warm leaf buckets, dispatched in contiguous chunks
//!   with a minimum chunk length; results land in a flat CSR
//!   [`engine::NeighborTable`] in input order — workers fill chunk-local
//!   arenas that are spliced, so the hot path allocates no per-query
//!   `Vec`.
//!
//! The distributed query pipeline and the baselines inherit the kernel
//! through [`local_tree::LocalKdTree::query_into`]. Kernel-level work is
//! observable via [`counters::QueryCounters::leaf_kernel_calls`] and
//! [`counters::QueryCounters::kernel_blocks_pruned`].
//!
//! ```
//! use panda_core::knn::KnnIndex;
//! use panda_core::{PointSet, TreeConfig};
//!
//! // four points on a line
//! let points = PointSet::from_coords(1, vec![0.0, 1.0, 2.0, 10.0])?;
//! let index = KnnIndex::build(&points, &TreeConfig::default())?;
//! let nearest = index.query(&[1.2], 2)?;
//! assert_eq!(nearest[0].id, 1); // x = 1.0
//! assert_eq!(nearest[1].id, 2); // x = 2.0
//! # Ok::<(), panda_core::PandaError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build_distributed;
pub mod checksum;
pub mod classify;
pub mod config;
pub mod counters;
pub mod engine;
pub mod error;
pub mod faultpoint;
pub mod global_tree;
pub mod heap;
pub mod hist;
pub mod knn;
pub mod local_tree;
pub mod morton;
pub mod partition;
pub mod point;
pub mod query_distributed;
pub mod radius;
pub mod rng;
pub mod split;
pub mod supervise;
pub mod timers;

pub use config::{
    BoundMode, DistConfig, HistScan, QueryOrder, SplitDimStrategy, SplitValueStrategy, TreeConfig,
};
pub use counters::{BuildCounters, QueryCounters};
pub use engine::{NeighborTable, NnBackend, QueryRequest, QueryResponse, ShardedIndex};
pub use error::{PandaError, Result};
pub use heap::{KnnHeap, Neighbor};
pub use local_tree::{LocalKdTree, QueryWorkspace, TreeStats};
pub use point::{BoundingBox, PointSet, MAX_DIMS};

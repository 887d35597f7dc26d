//! The unified query-session API (§V's "one pipeline, many scenarios").
//!
//! Three pieces make every nearest-neighbor engine in the workspace
//! interchangeable:
//!
//! * [`NnBackend`] — an object-safe trait over build + batch query,
//!   implemented by [`crate::knn::KnnIndex`], [`ShardedIndex`], and the
//!   four baselines in `panda-baselines`;
//! * [`QueryRequest`] — a validated builder unifying `k`, optional
//!   radius, execution order, bound mode, and distributed knobs;
//! * [`QueryResponse`] — a structured result whose neighbor storage is
//!   the flat CSR [`NeighborTable`] (one offsets array + one contiguous
//!   arena) instead of a `Vec<Vec<Neighbor>>`.
//!
//! ```
//! use panda_core::engine::{NnBackend, QueryRequest};
//! use panda_core::knn::KnnIndex;
//! use panda_core::{PointSet, TreeConfig};
//!
//! let points = PointSet::from_coords(1, vec![0.0, 1.0, 2.0, 10.0])?;
//! let queries = PointSet::from_coords(1, vec![1.2])?;
//! let index = KnnIndex::build(&points, &TreeConfig::default())?;
//! let backend: &dyn NnBackend = &index;
//! let res = backend.query(&QueryRequest::knn(&queries, 2))?;
//! assert_eq!(res.neighbors.row(0)[0].id, 1); // x = 1.0
//! # Ok::<(), panda_core::PandaError>(())
//! ```

mod backend;
mod request;
mod response;
mod sharded;

pub use backend::NnBackend;
pub(crate) use request::check_radius;
pub use request::QueryRequest;
pub use response::{NeighborTable, QueryResponse};
pub use sharded::ShardedIndex;

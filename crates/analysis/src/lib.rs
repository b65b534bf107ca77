//! The paper's theorems: statistical bounds on per-session backlog and
//! delay under GPS, for a single server and for networks.
//!
//! # Single server (Sections 3–5)
//!
//! * [`single_node::Theorem7`] — independent E.B.B. sources, bounds along
//!   a feasible ordering (paper Theorem 7);
//! * [`single_node::Theorem8`] — dependent sources via Hölder (Theorem 8);
//! * [`partition_bounds::theorem10`] — sessions of the first feasible-
//!   partition class `H_1`, simple Lemma-5 bounds (Theorem 10);
//! * [`partition_bounds::Theorem11`] — sessions of any class `H_k`,
//!   aggregating the lower classes (Theorem 11), and its Hölder variant
//!   (Theorem 12);
//!
//! Every theorem yields a *family* of [`gps_ebb::TailBound`]s indexed by
//! the Chernoff parameter `θ`; [`theta_opt`] finds the tightest member at a
//! given threshold.
//!
//! # Networks (Section 6)
//!
//! * [`network`] — per-node feasible partitions, **CRST** (Consistent
//!   Relative Session Treatment) detection via the strict-preference
//!   digraph, and the class-recursive propagation that proves Theorem 13
//!   (stability);
//! * [`rpps`] — **Rate Proportional Processor Sharing** networks: the
//!   closed-form Theorem 15 bounds (continuous), their discrete-time
//!   versions (Eqs. 66–67) used in the paper's numerical example, and the
//!   "improved" variant that plugs in any sharper bound on `δ_i(t)`
//!   (Remark 3 / Figure 4);
//! * [`e2e`] — end-to-end delay bounds by convolving per-node E.B. bounds
//!   (used for non-RPPS CRST networks, where no closed form exists);
//! * [`admission`] — admission-control utilities built on the bounds (the
//!   paper's motivating application);
//! * [`engine`] — the online admission-control service: memoized bound
//!   certificates and warm-started searches.

pub mod admission;
pub mod class_based;
pub mod e2e;
pub mod engine;
pub mod network;
pub mod partition_bounds;
pub mod rho_selection;
pub mod rpps;
pub mod single_node;
pub mod theta_opt;

pub use admission::{
    max_rpps_sessions, max_rpps_sessions_from, rpps_admits, QosTarget, RPPS_SESSION_CAP,
};
pub use class_based::{ClassBasedGps, TrafficClass};
pub use engine::{
    AdmissionEngine, CacheStats, CertBackend, ClassSpec, Decision, EngineError, EngineStats,
    RegionRow, Request, RequestKind,
};
pub use network::{CrstAnalysis, NetworkSession};
pub use partition_bounds::{theorem10, Theorem11};
pub use rho_selection::{best_rho_for_delay, max_sessions_optimized_rho, rho_tradeoff, RhoPoint};
pub use rpps::RppsNetworkBounds;
pub use single_node::{SessionBounds, Theorem7, Theorem8};
pub use theta_opt::{optimize_tail, try_optimize_tail, try_optimize_tail_seeded, THETA_PROBES};

//! Simulation harness for the P2DRM evaluation.
//!
//! The paper (a workshop protocol paper) published no quantitative
//! evaluation; this crate provides everything the repository's
//! experiments (the `experiments` binary's arms) need:
//!
//! * [`workload`] — Zipf content popularity;
//! * [`metrics`] — log-bucketed latency histograms and summaries;
//! * [`runner`] — multi-threaded wire/TCP purchase throughput against one
//!   shared `&self` provider, with a private metrics registry (E14);
//! * [`adversary`] — the honest-but-curious provider trying to profile
//!   users from its own purchase log (E7);
//! * [`chaos`] — seeded fault-injection drills with invariant checks
//!   (E15);
//! * [`report`] — ASCII tables + JSON series under `results/`.
//!
//! The `experiments` binary (`cargo run -p p2drm-sim --bin experiments`)
//! regenerates every table/figure artifact. Performance is measured by
//! the repository's benchmark, `perfbench/` (see `BENCHMARK.json`).

#![forbid(unsafe_code)]

pub mod adversary;
pub mod chaos;
pub mod json;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod workload;

pub use adversary::{linkability_experiment, LinkabilityReport};
pub use metrics::{Histogram, Summary};
pub use report::Table;
pub use runner::{
    purchase_throughput, DispatchMode, StoreBackend, ThroughputConfig, ThroughputResult,
};
pub use workload::Zipf;

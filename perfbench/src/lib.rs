//! The repository's benchmark, as a library so its pieces can be tested.
//!
//! `perfbench --workload <checkout|playback> --seed <n> --seconds
//! <s> --trace <0|1>` boots the real system (1024-bit keys, provider on a
//! WAL store under `SyncEach`), serves it with `DrmServer` on loopback
//! TCP, drives it open-loop from pre-built inputs, checks every output,
//! and prints one JSON line of results last.

pub mod gate;
pub mod gen;
pub mod kv;
pub mod layers;
pub mod setup;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;

//! Wire-to-verdict benchmark for regmon.
//!
//! Seeded PC-sample traffic is generated and encoded as wire-v2 frames
//! before any clock starts; the timed window covers only the system's
//! public entry points (`Server::new` → `handle_io` → `finish`, or
//! `run_fleet`). A separate traced run replays the same traffic through
//! each layer's public functions and derives per-layer self time from
//! the spans it records. See `README.md` in this directory.

#![deny(unsafe_code)]

pub mod metrics;
pub mod run;
pub mod stats;
pub mod steady;
pub mod sys;
pub mod trace;
pub mod traffic;

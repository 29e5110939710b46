//! Out-of-process ingestion for regmon: wire protocol, snapshots,
//! journals, replay and the serve-mode server.
//!
//! The paper's monitoring pipeline runs inside the profiled process;
//! this crate lets it run *outside* one. A producer samples (or
//! records) PC-sample intervals and streams them as `regmon-wire-v2`
//! frames — length-prefixed, CRC-checked, versioned — over a unix
//! socket, TCP connection or file. Three consumers understand the
//! stream and agree byte-identically:
//!
//! * [`server::Server`] (`regmon serve`) — demultiplexes N concurrent
//!   producer connections into [`regmon_fleet::FleetEngine`] shard
//!   workers; on unix its socket listeners serve every connection from
//!   one fixed pool of `poll(2)` workers ([`event_loop`]);
//! * [`replay::replay`] (`regmon replay`) — feeds a journal file through
//!   the server's own connection state machine on a one-shard
//!   in-process [`server::Server`], optionally checkpointing
//!   mid-stream;
//! * [`journal::read_journal`] — plain decoding for tooling.
//!
//! Checkpointing rides on [`regmon::SessionSnapshot`]: the
//! [`snapshot`] module serializes the full session state (regions,
//! histograms, detector state machines, UCR timeline, pruner streaks)
//! with floats as raw bit patterns, so a session can be saved on one
//! `serve` process, moved, restored on another and *continue
//! byte-identically*.
//!
//! # Example
//!
//! ```
//! use regmon::{MonitoringSession, SessionConfig};
//! use regmon_serve::journal::record_run;
//! use regmon_serve::replay::{replay, ReplayOptions};
//! use regmon_workload::suite;
//!
//! let w = suite::by_name("181.mcf").unwrap();
//! let config = SessionConfig::new(450_000);
//! let dir = std::env::temp_dir();
//! let path = dir.join(format!("doc-{}.rgj", std::process::id()));
//!
//! // Record 10 intervals, then replay them.
//! record_run(&path, &w, &config, 10).unwrap();
//! let outcome = replay(&path, &ReplayOptions::default()).unwrap();
//! std::fs::remove_file(&path).ok();
//!
//! // The replay is byte-identical to the in-process run.
//! let direct = MonitoringSession::run_limited(&w, &config, 10);
//! assert_eq!(
//!     format!("{:?}", outcome.tenants[0].summary),
//!     format!("{direct:?}"),
//! );
//! ```

// `deny` rather than `forbid`: the crate has two scoped
// `allow(unsafe_code)` modules, `event_loop::sys` (direct `poll(2)`
// declarations against libc, so the workspace needs no external crate)
// and `crc::fold_x86` (the PCLMULQDQ checksum fold, behind runtime
// feature detection).
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod crc;
pub mod durable;
pub mod error;
#[cfg(unix)]
pub mod event_loop;
pub mod fault;
pub mod journal;
pub mod replay;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use client::{send_plan, ClientError, RetryPolicy, SendOutcome, SendPlan, SessionStream};
pub use durable::{parse_wal, read_wal, DurableOptions, FsyncPolicy, WalRecovery};
pub use error::ServeError;
pub use fault::{Fault, FaultKind, FaultPlan};
pub use journal::{read_journal, record_run, JournalWriter};
pub use replay::{replay, ReplayOptions, ReplayOutcome, ReplayTenant};
pub use server::{ServeOptions, ServeReport, ServedSession, Server};
pub use snapshot::{load_snapshot, save_snapshot};
pub use wire::{
    read_frame, write_frame, AdmitFrame, Checksummed, Frame, FrameParser, FrameReader,
    SnapshotFrame, WireError, WIRE_VERSION,
};

#[cfg(unix)]
pub use server::{serve_tcp, serve_unix};

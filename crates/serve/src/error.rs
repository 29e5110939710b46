//! The serve layer's error type: wire failures plus stream-level
//! protocol violations the frame codec cannot see.

use std::fmt;
use std::io;

use regmon::RegionOutsideImage;

use crate::wire::WireError;

/// Why ingesting a wire stream (live or journaled) failed.
#[derive(Debug)]
pub enum ServeError {
    /// The frame layer rejected the stream.
    Wire(WireError),
    /// The frames were individually valid but violated the stream
    /// protocol (e.g. `Batch` before `Admit`, missing `Hello`,
    /// duplicate tenant id).
    Protocol(String),
    /// An `Admit` frame named a workload the suite does not contain.
    UnknownWorkload(String),
    /// A snapshot to restore (a migration `Snapshot` frame, a WAL
    /// opener, `replay --resume`) holds a region outside the tenant's
    /// program image. Rejected before admission.
    BadSnapshot {
        /// The tenant's name.
        tenant: String,
        /// The offending region.
        error: RegionOutsideImage,
    },
    /// A connection blew a read/idle deadline, or a drain barrier
    /// missed its shutdown deadline.
    Timeout(String),
    /// A filesystem or socket operation failed.
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "{e}"),
            Self::Protocol(what) => write!(f, "protocol violation: {what}"),
            Self::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            Self::BadSnapshot { tenant, error } => {
                write!(f, "snapshot for tenant {tenant:?} rejected: {error}")
            }
            Self::Timeout(what) => write!(f, "timeout: {what}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            Self::Io(e) => Some(e),
            Self::BadSnapshot { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

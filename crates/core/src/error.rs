//! Error type shared across the LIBRA framework.

use std::error::Error;
use std::fmt;

use libra_solver::SolverError;

/// Errors produced by the LIBRA framework.
#[derive(Debug, Clone, PartialEq)]
pub enum LibraError {
    /// A network-shape string could not be parsed.
    ParseNetwork {
        /// The offending input.
        input: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A workload file could not be parsed.
    ParseWorkload {
        /// 1-based line number, 0 for file-level errors.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A parallel group (e.g. TP-6 on a `RI(4)` dimension) cannot be mapped
    /// onto the network dimensions.
    GroupMapping {
        /// Requested group size.
        group: u64,
        /// The network's NPU layout.
        dims: Vec<u64>,
        /// Reason the decomposition failed.
        reason: String,
    },
    /// The optimizer was configured inconsistently (e.g. a constraint
    /// references a dimension the network does not have).
    BadRequest(String),
    /// A solve-cache file could not be read or written, or was written
    /// by an incompatible version (see [`crate::store`]).
    Cache {
        /// The cache file.
        path: std::path::PathBuf,
        /// What went wrong.
        reason: String,
    },
    /// A JSON-lines record stream is malformed: a line that does not
    /// parse, or is not a record, run header or summary where it stands,
    /// or records that do not cover or match the scenario's grid (see
    /// [`crate::scenario::records_from_jsonl`]).
    RecordStream(String),
    /// A bounded wait ran out of time (e.g. a service client's deadline
    /// expired while a job was still queued or running). Typed so
    /// callers can tell "the server is slow" from "the request was
    /// rejected" without string matching.
    Timeout {
        /// What was being waited on.
        what: String,
        /// The deadline that expired, in milliseconds.
        after_ms: u64,
    },
    /// The underlying convex solver failed.
    Solver(SolverError),
}

impl fmt::Display for LibraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraError::ParseNetwork { input, reason } => {
                write!(f, "invalid network shape {input:?}: {reason}")
            }
            LibraError::ParseWorkload { line, reason } => {
                write!(f, "invalid workload file (line {line}): {reason}")
            }
            LibraError::GroupMapping { group, dims, reason } => {
                write!(f, "cannot map a {group}-NPU group onto dims {dims:?}: {reason}")
            }
            LibraError::BadRequest(what) => write!(f, "invalid design request: {what}"),
            LibraError::Cache { path, reason } => {
                write!(f, "solve cache {}: {reason}", path.display())
            }
            LibraError::RecordStream(what) => write!(f, "malformed record stream: {what}"),
            LibraError::Timeout { what, after_ms } => {
                write!(f, "timed out after {after_ms} ms waiting for {what}")
            }
            LibraError::Solver(e) => write!(f, "solver: {e}"),
        }
    }
}

impl Error for LibraError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LibraError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolverError> for LibraError {
    fn from(e: SolverError) -> Self {
        LibraError::Solver(e)
    }
}

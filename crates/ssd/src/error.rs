//! SSD-level errors.

use assasin_flash::PhysPageAddr;
use assasin_ftl::{FtlError, Lpa};
use std::error::Error;
use std::fmt;

/// Errors surfaced by SSD operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SsdError {
    /// The FTL rejected an access.
    Ftl(FtlError),
    /// An uncorrectable media error: the page's raw bit errors exceeded
    /// ECC + read-retry capability, and SSD-level re-reads with backoff
    /// did not recover it either. Carries the full physical-address
    /// context for diagnostics; the device degrades gracefully instead of
    /// panicking.
    Media {
        /// The logical page, when the failing path knows it (FTL-mediated
        /// reads do; physical plan reads don't).
        lpa: Option<Lpa>,
        /// The physical page that could not be read.
        addr: PhysPageAddr,
        /// Raw bit errors on the final retry level.
        errors: u32,
    },
    /// A compute engine hit a model error (a kernel/embedding bug).
    CoreWedged(String),
    /// The request was malformed (empty streams, mismatched lengths,
    /// misaligned granularity).
    BadRequest(String),
    /// A simulation invariant failed (e.g. no forward progress).
    Stuck(String),
    /// A request-path state invariant was violated mid-flight (missing
    /// DRAM window, out-of-range output cursor). A hostile or buggy request program can drive these, so
    /// they fail the request with a typed error instead of aborting the
    /// process — a long-lived server degrades instead of dying.
    Invariant(String),
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::Ftl(e) => write!(f, "ftl error: {e}"),
            SsdError::Media { lpa, addr, errors } => {
                write!(f, "uncorrectable media error at {addr}")?;
                if let Some(lpa) = lpa {
                    write!(f, " ({lpa})")?;
                }
                write!(f, ": {errors} raw bit errors after read-retry and re-reads")
            }
            SsdError::CoreWedged(m) => write!(f, "compute engine wedged: {m}"),
            SsdError::BadRequest(m) => write!(f, "malformed scomp request: {m}"),
            SsdError::Stuck(m) => write!(f, "simulation made no progress: {m}"),
            SsdError::Invariant(m) => write!(f, "request-path invariant violated: {m}"),
        }
    }
}

impl Error for SsdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SsdError::Ftl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FtlError> for SsdError {
    fn from(e: FtlError) -> Self {
        match e {
            FtlError::Uncorrectable { lpa, addr, errors } => SsdError::Media {
                lpa: Some(lpa),
                addr,
                errors,
            },
            other => SsdError::Ftl(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<SsdError>();
    }
}

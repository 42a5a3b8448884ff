//! Error type for the scheduling layer.

use s2c2_coding::CodingError;
use std::fmt;

/// Errors produced by S²C² scheduling and job execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S2c2Error {
    /// Fewer live workers than the recovery threshold — no assignment can
    /// reach `k` coverage.
    NotEnoughWorkers {
        /// Workers with positive predicted speed.
        alive: usize,
        /// Recovery threshold required.
        need: usize,
    },
    /// Invalid configuration (zero dimensions, mismatched cluster size…).
    InvalidConfig(String),
    /// The codec failed to encode or decode.
    Coding(CodingError),
    /// An iteration could not complete (e.g. every worker failed).
    IterationFailed(String),
}

impl fmt::Display for S2c2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S2c2Error::NotEnoughWorkers { alive, need } => {
                write!(f, "only {alive} live workers but {need} needed for decode")
            }
            S2c2Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            S2c2Error::Coding(e) => write!(f, "coding error: {e}"),
            S2c2Error::IterationFailed(msg) => write!(f, "iteration failed: {msg}"),
        }
    }
}

impl std::error::Error for S2c2Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            S2c2Error::Coding(e) => Some(e),
            S2c2Error::NotEnoughWorkers { .. }
            | S2c2Error::InvalidConfig(_)
            | S2c2Error::IterationFailed(_) => None,
        }
    }
}

impl From<CodingError> for S2c2Error {
    fn from(e: CodingError) -> Self {
        S2c2Error::Coding(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(S2c2Error::NotEnoughWorkers { alive: 1, need: 3 }
            .to_string()
            .contains("1 live workers"));
        assert!(S2c2Error::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
        assert!(S2c2Error::IterationFailed("x".into())
            .to_string()
            .contains("x"));
    }

    #[test]
    fn coding_error_wraps_with_source() {
        use std::error::Error;
        let e: S2c2Error = CodingError::DecodeSingular { chunk: 1 }.into();
        assert!(e.to_string().contains("coding error"));
        assert!(e.source().is_some());
    }
}

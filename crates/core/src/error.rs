//! Error types for HyperMinHash operations.

use crate::params::HmhParams;

/// Errors from constructing or combining HyperMinHash sketches.
#[derive(Debug, Clone, PartialEq)]
pub enum HmhError {
    /// Parameters fail validation (see [`HmhParams::new`]).
    InvalidParams {
        /// Why validation failed.
        reason: String,
    },
    /// Two sketches have different `(p, q, r)` and cannot be combined.
    ParameterMismatch {
        /// Left operand parameters.
        left: HmhParams,
        /// Right operand parameters.
        right: HmhParams,
    },
    /// Two sketches were built with different random oracles.
    OracleMismatch,
    /// Algorithm 6 cannot approximate expected collisions at this
    /// cardinality ("cardinality too large for approximation").
    CardinalityTooLarge {
        /// The offending cardinality.
        n: f64,
        /// The validity ceiling `2^{p + cap − 1}`.
        limit: f64,
    },
}

impl std::fmt::Display for HmhError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParams { reason } => {
                write!(f, "invalid HyperMinHash parameters: {reason}")
            }
            Self::ParameterMismatch { left, right } => {
                write!(f, "HyperMinHash parameter mismatch: {left} vs {right}")
            }
            Self::OracleMismatch => write!(f, "HyperMinHash sketches use different random oracles"),
            Self::CardinalityTooLarge { n, limit } => write!(
                f,
                "cardinality {n:.3e} too large for the collision approximation (limit {limit:.3e})"
            ),
        }
    }
}

impl std::error::Error for HmhError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        // All variants are leaves today; the explicit impl keeps the
        // chain contract visible (and `FormatError`/`StoreError` above
        // this layer report `HmhError` itself as their source).
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = HmhError::InvalidParams { reason: "p too big".into() };
        assert!(e.to_string().contains("p too big"));
        let e = HmhError::CardinalityTooLarge { n: 1e30, limit: 1e26 };
        assert!(e.to_string().contains("1e30") || e.to_string().contains("1.000e30"));
    }
}

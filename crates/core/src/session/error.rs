//! Errors on the user-facing tuning path.
//!
//! Every way a tuning session can fail is a [`TuningError`]
//! variant, so bad inputs surface as values, not aborts. Calling the
//! stages out of order does not compile, so it needs no variant.

use std::fmt;

/// Why a tuning session could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TuningError {
    /// A significant region reported by `readex-dyn-detect` has no
    /// counterpart in the benchmark specification.
    UnknownRegion {
        /// The application being tuned.
        application: String,
        /// The region name that failed to resolve.
        region: String,
    },
    /// A tuning stage was handed an empty candidate set.
    EmptyCandidates {
        /// Which stage ran out of candidates.
        stage: &'static str,
    },
    /// The selected search strategy needs a trained energy model, but the
    /// session was built without one.
    MissingModel {
        /// The strategy that required the model.
        strategy: &'static str,
    },
}

impl fmt::Display for TuningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuningError::UnknownRegion {
                application,
                region,
            } => {
                write!(
                    f,
                    "application `{application}`: significant region `{region}` \
                     does not exist in the benchmark specification"
                )
            }
            TuningError::EmptyCandidates { stage } => {
                write!(f, "tuning stage `{stage}`: empty candidate set")
            }
            TuningError::MissingModel { strategy } => {
                write!(
                    f,
                    "search strategy `{strategy}` requires a trained energy model; \
                     build the session with `.with_model(..)`"
                )
            }
        }
    }
}

impl std::error::Error for TuningError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_condition() {
        let e = TuningError::UnknownRegion {
            application: "Lulesh".into(),
            region: "nope".into(),
        };
        assert!(e.to_string().contains("Lulesh") && e.to_string().contains("nope"));
        let e = TuningError::EmptyCandidates {
            stage: "thread tuning",
        };
        assert!(e.to_string().contains("thread tuning"));
        let e = TuningError::MissingModel {
            strategy: "model-based-neighbourhood",
        };
        assert!(e.to_string().contains("with_model"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&TuningError::EmptyCandidates { stage: "x" });
    }
}

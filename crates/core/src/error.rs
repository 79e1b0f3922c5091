//! Error type of the staged pipeline API.

use std::fmt;

use pe_datasets::DatasetError;

use crate::progress::StageKind;

/// Everything that can go wrong while building or running a pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// Dataset generation, validation or splitting failed.
    Dataset(DatasetError),
    /// Cooperative cancellation was observed while running `stage`.
    Cancelled {
        /// The stage that observed the cancellation.
        stage: StageKind,
    },
    /// The builder rejected the study configuration.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A search engine failed for an engine-specific reason.
    Engine {
        /// The engine's [`name`](crate::engine::SearchEngine::name).
        engine: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The design store could not be opened, read or written
    /// (see [`pe_store::StoreError`]).
    Store {
        /// Human-readable reason (the underlying store error).
        reason: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Dataset(e) => write!(f, "dataset error: {e}"),
            FlowError::Cancelled { stage } => write!(f, "cancelled during the {stage} stage"),
            FlowError::InvalidConfig { reason } => write!(f, "invalid study config: {reason}"),
            FlowError::Engine { engine, reason } => {
                write!(f, "search engine {engine:?} failed: {reason}")
            }
            FlowError::Store { reason } => write!(f, "design store error: {reason}"),
        }
    }
}

impl FlowError {
    /// The [`FlowError::Engine`] of a panic in `engine`'s worker.
    pub(crate) fn panicked(engine: &str, panic: &pe_nsga::WorkerPanic) -> Self {
        FlowError::Engine {
            engine: engine.to_owned(),
            reason: format!("worker panicked: {}", panic.message),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatasetError> for FlowError {
    fn from(e: DatasetError) -> Self {
        FlowError::Dataset(e)
    }
}

impl From<pe_store::StoreError> for FlowError {
    fn from(e: pe_store::StoreError) -> Self {
        FlowError::Store {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_failing_part() {
        let e = FlowError::Cancelled {
            stage: StageKind::Searched,
        };
        assert!(e.to_string().contains("searched"));
        let e = FlowError::Engine {
            engine: "tc23".into(),
            reason: "boom".into(),
        };
        assert!(e.to_string().contains("tc23") && e.to_string().contains("boom"));
        let e: FlowError = DatasetError::NoClasses.into();
        assert!(e.to_string().contains("class"));
        let e: FlowError = pe_store::StoreError::Corrupt {
            path: "designs.jsonl".into(),
            line: 3,
            reason: "bad json".into(),
        }
        .into();
        assert!(
            e.to_string().contains("design store")
                && e.to_string().contains("line 3")
                && e.to_string().contains("bad json"),
            "{e}"
        );
    }
}

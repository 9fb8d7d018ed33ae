//! Runtime error type.
//!
//! The Sweeper runtime degrades rather than aborts: a host that fails
//! to come up reports [`SweeperError`] to its caller (the community
//! campaign skips it; a single bad host must not take the fleet down),
//! and a missing analysis tool downgrades the produced antibody instead
//! of panicking mid-recovery.

use std::fmt;

use svm::SvmError;

/// Errors surfaced by the Sweeper runtime.
#[derive(Debug)]
pub enum SweeperError {
    /// The underlying virtual machine failed to boot or run.
    Vm(SvmError),
    /// A required instrumentation tool could not be attached or
    /// retrieved. Carries the tool name for diagnostics.
    ToolUnavailable {
        /// Human-readable tool name.
        tool: &'static str,
    },
    /// A received antibody bundle failed to decode (truncation or
    /// corruption in transit). The runtime skips deployment and keeps
    /// recovering; the error is surfaced on the timeline.
    CorruptAntibody(antibody::BundleError),
}

impl fmt::Display for SweeperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweeperError::Vm(e) => write!(f, "vm error: {e}"),
            SweeperError::ToolUnavailable { tool } => {
                write!(f, "instrumentation tool unavailable: {tool}")
            }
            SweeperError::CorruptAntibody(e) => write!(f, "corrupt antibody bundle: {e}"),
        }
    }
}

impl std::error::Error for SweeperError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweeperError::Vm(e) => Some(e),
            SweeperError::ToolUnavailable { .. } => None,
            SweeperError::CorruptAntibody(e) => Some(e),
        }
    }
}

impl From<SvmError> for SweeperError {
    fn from(e: SvmError) -> SweeperError {
        SweeperError::Vm(e)
    }
}

impl From<antibody::BundleError> for SweeperError {
    fn from(e: antibody::BundleError) -> SweeperError {
        SweeperError::CorruptAntibody(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SweeperError::ToolUnavailable { tool: "taint" };
        assert!(e.to_string().contains("taint"));
    }
}

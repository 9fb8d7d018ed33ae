//! # antibody — VSEFs, input signatures, and antibody distribution
//!
//! Paper §3.3: after analysis, Sweeper derives two kinds of antibodies —
//! [`vsef::VsefSpec`] vulnerability-specific execution filters (the same
//! checks the heavyweight tools perform, but pinned to the handful of
//! instructions the analysis implicated, so cheap enough for production)
//! and [`signature::Signature`] input filters (exact-match first, with
//! substring and Polygraph-style token-sequence generalizations).
//!
//! [`bundle::Antibody`] packages them for piecemeal distribution (each
//! analysis stage's result is released as soon as it exists) together
//! with the exploit-triggering input, and [`bundle::verify`] implements
//! consumer-side sandboxed verification. VSEF addresses are distributed
//! normalized to the nominal layout and rebased per-host
//! ([`vsef::VsefSpec::rebase`]) because every host randomizes its own
//! address space.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bundle;
pub mod certify;
pub mod signature;
pub mod vsef;
pub mod wire;

pub use bundle::{verify, Antibody, AntibodyItem, Release, Verification};
pub use certify::{verify_with_sandbox, CertifiedBundle, CertifyError};
pub use signature::{
    exact_from, substring_from_taint, tokens_from_samples, Signature, SignatureSet,
};
pub use vsef::{rebase_addr, Detection, VsefRuntime, VsefSpec};
pub use wire::BundleError;

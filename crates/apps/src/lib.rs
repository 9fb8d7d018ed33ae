//! # apps — the vulnerable guest servers (Table 1 analogues)
//!
//! Three server applications written in SVM assembly, carrying four real
//! (re-created) memory-safety vulnerabilities with the same bug classes,
//! crash-site attribution, and exploit mechanics as the CVEs the paper
//! evaluates:
//!
//! | App | Stands for | CVE | Bug |
//! |-----|------------|-----|-----|
//! | [`httpd1`] | Apache 1.3.27 | CVE-2003-0542 | stack smashing |
//! | [`httpd2`] | Apache 1.3.12 | CVE-2003-1054 | NULL pointer deref |
//! | [`cvs`] | cvs 1.11.4 | CVE-2003-0015 | double free |
//! | [`squid`] | squid 2.3 | CVE-2002-0068 | heap buffer overflow |
//!
//! Each module exports the assembled [`common::App`], benign request
//! builders, and exploit builders (a layout-independent crash variant,
//! polymorphic variants, and — where the bug admits code execution — a
//! layout-dependent compromise variant that runs marker shellcode).
//! [`workload`] provides deterministic benign traffic for the overhead
//! experiments.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod common;
pub mod cvs;
pub mod httpd1;
pub mod httpd2;
pub mod squid;
pub mod workload;

pub use common::{is_compromised, shellcode, App, BugType, Exploit, PWNED_MARKER};

/// All four apps, in Table 1 order.
pub fn all_apps() -> Result<Vec<App>, svm::SvmError> {
    Ok(vec![
        httpd1::app()?,
        httpd2::app()?,
        cvs::app()?,
        squid::app()?,
    ])
}

/// The canonical crash exploit for each app, in Table 1 order.
pub fn all_crash_exploits() -> Result<Vec<(App, Exploit)>, svm::SvmError> {
    Ok(vec![
        (httpd1::app()?, httpd1::exploit_crash(&httpd1::app()?)),
        (httpd2::app()?, httpd2::exploit_crash(&httpd2::app()?)),
        (cvs::app()?, cvs::exploit_crash(&cvs::app()?)),
        (squid::app()?, squid::exploit_crash(&squid::app()?)),
    ])
}

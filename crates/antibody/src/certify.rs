//! Certified antibody bundles: what actually travels over the (lossy,
//! adversarial) distribution network.
//!
//! The §6 community model originally assumed antibody sharing is free
//! and perfect. Real dissemination is a P2P problem where the alert
//! channel itself is an attack surface (cf. Phagocytes): a worm that has
//! compromised a producer can flood the community with *forged*
//! antibodies — corrupt payloads, valid-looking bundles whose evidence
//! does not match, or filters that do nothing. A consumer therefore
//! never deploys what it receives; it deploys what it can **verify**.
//!
//! A [`CertifiedBundle`] packages three things:
//!
//! 1. the antibody in its PR-4 wire encoding ([`Antibody::to_bytes`],
//!    carried as an opaque, independently versioned payload),
//! 2. the minimized exploit **evidence** (the input that must trip the
//!    antibody when replayed), and
//! 3. a keyed integrity [`tag`](CertifiedBundle::tag) over the whole
//!    content, bound to the producer identity and sequence number.
//!
//! Verification is layered, cheapest first:
//!
//! * [`CertifiedBundle::verify`] — deterministic, sandbox-free: checks
//!   the tag, decodes the antibody fail-closed through the PR-4 wire
//!   decoder, and requires the attached evidence to equal the antibody's
//!   own exploit input. This is the per-delivery check the §6 community
//!   simulation runs on every received bundle.
//! * [`verify_with_sandbox`] — additionally replays the evidence against
//!   the bundle's VSEFs/signatures in a fresh randomized `svm` sandbox
//!   ([`crate::bundle::verify`]); the bundle is accepted only if a
//!   deployed filter actually catches the evidence. This is the check a
//!   real consumer host ([`Sweeper::receive_certified`]) runs before
//!   deploying, and what defeats an *insider* Byzantine producer that
//!   knows the community key and can mint valid tags.
//!
//! The tag is a keyed splitmix-style hash — an integrity check against
//! in-flight corruption and lazy forgeries, **not** a cryptographic
//! signature. The threat model deliberately includes key-holding
//! Byzantine producers, which is why the sandbox replay (untrusting
//! re-verification, as the paper's §3.3 suggests) is the real gate.
//!
//! # Wire format (version [`CERT_VERSION`], little-endian)
//!
//! ```text
//! "SWCB" | version u8 | producer u32 | seq u64 | tag u64
//!        | antibody bytes | evidence bytes
//! bytes := len u32 | len raw bytes
//! ```
//!
//! [`Sweeper::receive_certified`]: https://docs.rs/sweeper

use crate::bundle::{verify as sandbox_verify, Antibody, Verification};
use crate::wire::BundleError;
use svm::asm::Program;

/// Current certified-bundle wire-format version (byte at offset 4).
///
/// Independent of the inner antibody payload's
/// [`crate::wire::WIRE_VERSION`]; the payload is carried opaquely.
pub const CERT_VERSION: u8 = 1;

/// Why a certified bundle was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// The buffer ends before the structure it promises.
    Truncated {
        /// Byte offset where more data was required.
        at: usize,
    },
    /// The buffer does not start with the `SWCB` magic.
    BadMagic,
    /// Unknown certified-bundle version.
    BadVersion(u8),
    /// The keyed integrity tag does not match the content (in-flight
    /// corruption, or a forger without the community key).
    TagMismatch,
    /// The tag checked out but the inner antibody payload failed the
    /// fail-closed PR-4 wire decoder.
    CorruptAntibody(BundleError),
    /// The attached evidence is not the antibody's own exploit input
    /// (a mismatched-evidence forgery).
    EvidenceMismatch,
    /// The bundle carries no evidence at all — nothing to verify, so
    /// nothing to deploy.
    NoEvidence,
    /// Sandbox replay did not confirm the antibody: the evidence failed
    /// to trip any deployed VSEF or signature.
    SandboxRejected {
        /// What the sandbox observed instead (e.g. `"crash-only"`,
        /// `"no-detection"`).
        observed: &'static str,
    },
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Truncated { at } => {
                write!(f, "certified bundle truncated at offset {at}")
            }
            CertifyError::BadMagic => write!(f, "certified bundle: bad magic"),
            CertifyError::BadVersion(v) => {
                write!(f, "certified bundle: unknown version {v}")
            }
            CertifyError::TagMismatch => write!(f, "certified bundle: integrity tag mismatch"),
            CertifyError::CorruptAntibody(e) => {
                write!(f, "certified bundle: corrupt antibody payload: {e}")
            }
            CertifyError::EvidenceMismatch => {
                write!(f, "certified bundle: evidence does not match antibody")
            }
            CertifyError::NoEvidence => write!(f, "certified bundle: no evidence attached"),
            CertifyError::SandboxRejected { observed } => {
                write!(f, "certified bundle: sandbox replay rejected ({observed})")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// splitmix64 finalizer: the same bijective mixer the epidemic PRNG and
/// the PR-3 ASLR reseed use.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Keyed tag over (producer, seq, antibody bytes, evidence bytes).
///
/// Length-prefixed absorption so `(ab="AB", ev="")` and `(ab="A",
/// ev="B")` hash differently.
fn keyed_tag(key: u64, producer: u32, seq: u64, antibody_bytes: &[u8], evidence: &[u8]) -> u64 {
    // Domain separation: "SWCBtag".
    let mut h = mix64(key ^ 0x0053_5743_4274_6167);
    h = mix64(h ^ u64::from(producer));
    h = mix64(h ^ seq);
    for part in [antibody_bytes, evidence] {
        h = mix64(h ^ part.len() as u64);
        for chunk in part.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            h = mix64(h ^ u64::from_le_bytes(b));
        }
    }
    h
}

/// A certified antibody bundle: the unit of antibody distribution.
///
/// Built by a producer with [`CertifiedBundle::seal`]; consumers check
/// it with [`CertifiedBundle::verify`] (cheap, deterministic) and/or
/// [`verify_with_sandbox`] (full replay) before deploying anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedBundle {
    /// Producer host identity the tag is bound to.
    pub producer: u32,
    /// Producer-local sequence number (anti-replay / retry bookkeeping).
    pub seq: u64,
    /// The antibody in PR-4 wire encoding, carried opaquely.
    pub antibody_bytes: Vec<u8>,
    /// Minimized exploit evidence: the input that must trip the antibody.
    pub evidence: Vec<u8>,
    /// Keyed integrity tag over all of the above.
    pub tag: u64,
}

/// The `N` bytes at `off`, or `Truncated` when the buffer ends first.
fn field<const N: usize>(bytes: &[u8], off: usize) -> Result<[u8; N], CertifyError> {
    off.checked_add(N)
        .and_then(|end| bytes.get(off..end))
        .and_then(|b| b.try_into().ok())
        .ok_or(CertifyError::Truncated { at: off })
}

impl CertifiedBundle {
    /// Seal an antibody into a certified bundle under the community key.
    ///
    /// The evidence is taken from the antibody's own exploit-input
    /// release; returns `None` if the antibody carries no exploit input
    /// (nothing a consumer could verify, so nothing worth shipping).
    pub fn seal(producer: u32, seq: u64, antibody: &Antibody, key: u64) -> Option<CertifiedBundle> {
        let evidence = antibody.exploit_input()?.to_vec();
        let antibody_bytes = antibody.to_bytes();
        let tag = keyed_tag(key, producer, seq, &antibody_bytes, &evidence);
        Some(CertifiedBundle {
            producer,
            seq,
            antibody_bytes,
            evidence,
            tag,
        })
    }

    /// Cheap deterministic verification: tag, fail-closed payload
    /// decode, and evidence consistency. Returns the decoded antibody
    /// on success — the *only* way to get a deployable antibody out of
    /// a bundle, which is what makes "deploy unverified" unconstructible
    /// for honest consumers (chaos invariant I8).
    pub fn verify(&self, key: u64) -> Result<Antibody, CertifyError> {
        let want = keyed_tag(
            key,
            self.producer,
            self.seq,
            &self.antibody_bytes,
            &self.evidence,
        );
        if want != self.tag {
            return Err(CertifyError::TagMismatch);
        }
        let antibody =
            Antibody::from_bytes(&self.antibody_bytes).map_err(CertifyError::CorruptAntibody)?;
        match antibody.exploit_input() {
            None => return Err(CertifyError::NoEvidence),
            Some(input) if input != self.evidence.as_slice() => {
                return Err(CertifyError::EvidenceMismatch)
            }
            Some(_) => {}
        }
        Ok(antibody)
    }

    /// Serialize to the certified-bundle wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SWCB");
        out.push(CERT_VERSION);
        out.extend_from_slice(&self.producer.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        for part in [&self.antibody_bytes, &self.evidence] {
            out.extend_from_slice(&(part.len() as u32).to_le_bytes());
            out.extend_from_slice(part);
        }
        out
    }

    /// Decode from untrusted wire bytes. Fails closed: truncation, bad
    /// magic, unknown versions and lying length prefixes all error;
    /// never panics. (The integrity tag is *not* checked here — that is
    /// [`CertifiedBundle::verify`]'s job, which needs the key.)
    pub fn from_bytes(bytes: &[u8]) -> Result<CertifiedBundle, CertifyError> {
        let need = |off: usize, n: usize| -> Result<usize, CertifyError> {
            off.checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or(CertifyError::Truncated { at: off })
        };
        let mut off = 0usize;
        let end = need(off, 4)?;
        if &bytes[off..end] != b"SWCB" {
            return Err(CertifyError::BadMagic);
        }
        off = end;
        let end = need(off, 1)?;
        let version = bytes[off];
        if version != CERT_VERSION {
            return Err(CertifyError::BadVersion(version));
        }
        off = end;
        let producer = u32::from_le_bytes(field(bytes, off)?);
        off += 4;
        let seq = u64::from_le_bytes(field(bytes, off)?);
        off += 8;
        let tag = u64::from_le_bytes(field(bytes, off)?);
        off += 8;
        let mut parts: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
        for slot in &mut parts {
            let len = u32::from_le_bytes(field(bytes, off)?) as usize;
            off += 4;
            let end = need(off, len)?;
            *slot = bytes[off..end].to_vec();
            off = end;
        }
        let [antibody_bytes, evidence] = parts;
        Ok(CertifiedBundle {
            producer,
            seq,
            antibody_bytes,
            evidence,
            tag,
        })
    }

    /// A forgery with a flipped integrity tag (models a forger without
    /// the community key, or tag corruption in transit). Rejected by the
    /// cheap tag check.
    pub fn forged_bad_tag(&self) -> CertifiedBundle {
        let mut f = self.clone();
        f.tag ^= 0x1;
        f
    }

    /// A forgery whose antibody payload was corrupted *and* re-tagged
    /// with the community key (models an insider Byzantine producer).
    /// Survives the tag check; rejected by the fail-closed payload
    /// decoder or the evidence-consistency check.
    pub fn forged_corrupt_payload(&self, key: u64, flip_at: usize) -> CertifiedBundle {
        let mut f = self.clone();
        if !f.antibody_bytes.is_empty() {
            let at = flip_at % f.antibody_bytes.len();
            f.antibody_bytes[at] ^= 0xff;
        }
        f.tag = keyed_tag(key, f.producer, f.seq, &f.antibody_bytes, &f.evidence);
        f
    }

    /// A forgery whose evidence was swapped for `fake` and re-tagged
    /// (insider Byzantine producer shipping benign "evidence" so the
    /// antibody can never be confirmed). Survives the tag check;
    /// rejected by the evidence-consistency check or sandbox replay.
    pub fn forged_mismatched_evidence(&self, key: u64, fake: Vec<u8>) -> CertifiedBundle {
        let mut f = self.clone();
        f.evidence = fake;
        f.tag = keyed_tag(key, f.producer, f.seq, &f.antibody_bytes, &f.evidence);
        f
    }
}

/// Full consumer-side verification: the cheap checks of
/// [`CertifiedBundle::verify`] *plus* a sandboxed `svm` replay of the
/// evidence against the bundle's own VSEFs/signatures.
///
/// The bundle is accepted only if a deployed filter actually catches
/// the evidence ([`Verification::VsefDetected`] or
/// [`Verification::SignatureMatched`]). A crash without detection means
/// the evidence is hostile but the antibody does not filter it — a
/// useless (or malicious) filter, rejected with
/// [`CertifyError::SandboxRejected`].
pub fn verify_with_sandbox(
    program: &Program,
    bundle: &CertifiedBundle,
    key: u64,
    sandbox_seed: u64,
) -> Result<Antibody, CertifyError> {
    let antibody = bundle.verify(key)?;
    match sandbox_verify(program, &antibody, sandbox_seed) {
        Verification::VsefDetected { .. } | Verification::SignatureMatched => Ok(antibody),
        Verification::CrashOnly => Err(CertifyError::SandboxRejected {
            observed: "crash-only",
        }),
        Verification::Failed => Err(CertifyError::SandboxRejected {
            observed: "no-detection",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::AntibodyItem;
    use crate::signature::exact_from;
    use crate::vsef::VsefSpec;

    const KEY: u64 = 0x1234_5678_9abc_def0;

    fn sample_antibody() -> Antibody {
        let mut ab = Antibody::new();
        ab.push(
            AntibodyItem::Vsef(VsefSpec::RetAddrGuard {
                func: 0x40,
                func_name: "victim".into(),
            }),
            40.0,
        );
        ab.push(AntibodyItem::Signature(exact_from(b"evil")), 9000.0);
        ab.push(AntibodyItem::ExploitInput(b"evil".to_vec()), 9500.0);
        ab
    }

    fn sealed() -> CertifiedBundle {
        CertifiedBundle::seal(7, 3, &sample_antibody(), KEY).expect("seal")
    }

    #[test]
    fn seal_verify_roundtrip() {
        let b = sealed();
        let ab = b.verify(KEY).expect("verify");
        assert_eq!(ab.exploit_input(), Some(b"evil".as_slice()));
        assert_eq!(ab.releases.len(), 3);
    }

    #[test]
    fn seal_requires_evidence() {
        let mut ab = Antibody::new();
        ab.push(AntibodyItem::Signature(exact_from(b"x")), 1.0);
        assert!(CertifiedBundle::seal(0, 0, &ab, KEY).is_none());
    }

    #[test]
    fn wrong_key_rejected() {
        let b = sealed();
        assert_eq!(b.verify(KEY ^ 1), Err(CertifyError::TagMismatch));
    }

    #[test]
    fn wire_roundtrip_is_lossless() {
        let b = sealed();
        let bytes = b.to_bytes();
        let back = CertifiedBundle::from_bytes(&bytes).expect("decode");
        assert_eq!(back, b);
        assert!(back.verify(KEY).is_ok());
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = sealed().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CertifiedBundle::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn unknown_cert_version_is_rejected() {
        let mut bytes = sealed().to_bytes();
        assert_eq!(bytes[4], CERT_VERSION);
        bytes[4] = CERT_VERSION + 1;
        assert_eq!(
            CertifiedBundle::from_bytes(&bytes),
            Err(CertifyError::BadVersion(CERT_VERSION + 1))
        );
    }

    #[test]
    fn single_bit_flips_never_verify() {
        // Flip any single bit of the wire image: either the decode
        // fails, or the decoded bundle fails verification. Never does a
        // tampered image yield a verified antibody, and never a panic.
        let b = sealed();
        let bytes = b.to_bytes();
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x10;
            if let Ok(decoded) = CertifiedBundle::from_bytes(&m) {
                assert!(
                    decoded.verify(KEY).is_err(),
                    "bit flip at byte {i} must not verify"
                );
            }
        }
    }

    #[test]
    fn forgeries_are_rejected_in_layers() {
        let b = sealed();
        // Outsider forgery: bad tag, caught immediately.
        assert_eq!(
            b.forged_bad_tag().verify(KEY),
            Err(CertifyError::TagMismatch)
        );
        // Insider forgery: corrupt payload with a valid tag — tag check
        // passes, so the payload decoder / evidence check must catch it.
        for at in 0..b.antibody_bytes.len() {
            let f = b.forged_corrupt_payload(KEY, at);
            let want = keyed_tag(KEY, f.producer, f.seq, &f.antibody_bytes, &f.evidence);
            assert_eq!(f.tag, want, "insider forgery has a valid tag");
            match f.verify(KEY) {
                Err(
                    CertifyError::CorruptAntibody(_)
                    | CertifyError::EvidenceMismatch
                    | CertifyError::NoEvidence,
                ) => {}
                Ok(ab) => {
                    // A byte flip may land in "don't care" bits (e.g.
                    // inside an at_ms float) and decode to a consistent
                    // antibody; that is corruption the cheap layer can't
                    // see, but the evidence must still match.
                    assert_eq!(ab.exploit_input(), Some(f.evidence.as_slice()));
                }
                Err(e) => panic!("unexpected rejection {e:?} for flip at {at}"),
            }
        }
        // Insider forgery: mismatched evidence with a valid tag.
        let f = b.forged_mismatched_evidence(KEY, b"benign".to_vec());
        assert_eq!(f.verify(KEY), Err(CertifyError::EvidenceMismatch));
    }

    #[test]
    fn tag_is_deterministic_and_binds_identity() {
        let ab = sample_antibody();
        let a = CertifiedBundle::seal(7, 3, &ab, KEY).unwrap();
        let b = CertifiedBundle::seal(7, 3, &ab, KEY).unwrap();
        assert_eq!(a.tag, b.tag, "sealing is deterministic");
        let other_producer = CertifiedBundle::seal(8, 3, &ab, KEY).unwrap();
        assert_ne!(a.tag, other_producer.tag, "tag binds producer id");
        let other_seq = CertifiedBundle::seal(7, 4, &ab, KEY).unwrap();
        assert_ne!(a.tag, other_seq.tag, "tag binds sequence number");
    }
}

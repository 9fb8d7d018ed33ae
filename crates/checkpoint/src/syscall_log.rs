//! Flashback-style syscall logging for replay-consistency verification
//! (paper §4.1).
//!
//! Rx-style recovery can silently diverge when execution depends on
//! nondeterministic inputs; the paper's alternative is Flashback's
//! approach: "log all of the system calls made by the process, in order
//! to allow deterministic re-execution ... Sweeper can compare the
//! re-execution's calls to `write()` to the previous results Flashback
//! recorded; if they match, we know that we have been successful."
//!
//! [`SyscallLog`] is a hook that records every syscall's `(pc, number,
//! args, result)`; [`divergence`] compares a live log against a replay
//! log and reports the first mismatch. Our VM is deterministic given the
//! same inputs, so matching logs certify that a recovery replay really
//! did re-execute the same computation — and a mismatch pinpoints where
//! a drop-the-attack replay started to differ.

use svm::isa::{Op, Syscall};
use svm::{Hook, Machine};

/// One recorded syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallRecord {
    /// Program counter of the `sys` instruction.
    pub pc: u32,
    /// Syscall performed.
    pub syscall: Syscall,
    /// Argument registers r0..r3 at entry.
    pub args: [u32; 4],
    /// Result placed in r0.
    pub ret: u32,
}

/// A recording hook (attach to any run via `Pair` or directly).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyscallLog {
    records: Vec<SyscallRecord>,
}

impl SyscallLog {
    /// An empty log.
    pub fn new() -> SyscallLog {
        SyscallLog::default()
    }

    /// Recorded syscalls in execution order.
    pub fn records(&self) -> &[SyscallRecord] {
        &self.records
    }

    /// Append a record (used when reconstructing logs outside a hook,
    /// e.g. in verifiers and test fixtures).
    pub fn push(&mut self, rec: SyscallRecord) {
        self.records.push(rec);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Only the `write` records (the §4.1 output-consistency subset).
    pub fn writes(&self) -> Vec<&SyscallRecord> {
        self.records
            .iter()
            .filter(|r| r.syscall == Syscall::Write)
            .collect()
    }

    /// Serialize the log to a flat byte buffer (magic `SWSL`, version 1,
    /// record count, then fixed-width little-endian records).
    ///
    /// A persisted Flashback log survives the process it describes; the
    /// chaos harness truncates and bit-flips these buffers to prove the
    /// decoder ([`SyscallLog::from_bytes`]) fails closed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.records.len() * 26);
        out.extend_from_slice(b"SWSL");
        out.push(1); // version
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.pc.to_le_bytes());
            out.push(r.syscall.num());
            for a in r.args {
                out.extend_from_slice(&a.to_le_bytes());
            }
            out.extend_from_slice(&r.ret.to_le_bytes());
        }
        out
    }

    /// Decode a buffer produced by [`SyscallLog::to_bytes`].
    ///
    /// Every read is bounds-checked: truncated buffers, bad magic,
    /// unknown versions, impossible record counts and invalid syscall
    /// numbers all return a [`SyscallLogError`] — never a panic. This is
    /// the seam the chaos harness' truncated/corrupted-log fault family
    /// exercises.
    pub fn from_bytes(bytes: &[u8]) -> Result<SyscallLog, SyscallLogError> {
        let header = bytes.get(..9).ok_or(SyscallLogError::Truncated {
            at: bytes.len(),
            need: 9,
        })?;
        if &header[..4] != b"SWSL" {
            return Err(SyscallLogError::BadMagic);
        }
        if header[4] != 1 {
            return Err(SyscallLogError::BadVersion(header[4]));
        }
        let count = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
        const REC: usize = 4 + 1 + 16 + 4;
        let need = 9 + count.saturating_mul(REC);
        if bytes.len() < need {
            return Err(SyscallLogError::Truncated {
                at: bytes.len(),
                need,
            });
        }
        let mut records = Vec::with_capacity(count.min(1 << 16));
        let mut off = 9usize;
        let word = |b: &[u8], o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
        for _ in 0..count {
            let pc = word(bytes, off);
            let sc = bytes[off + 4];
            let syscall = Syscall::from_num(sc).ok_or(SyscallLogError::BadSyscall {
                offset: off + 4,
                num: sc,
            })?;
            let args = [
                word(bytes, off + 5),
                word(bytes, off + 9),
                word(bytes, off + 13),
                word(bytes, off + 17),
            ];
            let ret = word(bytes, off + 21);
            records.push(SyscallRecord {
                pc,
                syscall,
                args,
                ret,
            });
            off += REC;
        }
        Ok(SyscallLog { records })
    }
}

/// Why a serialized syscall log failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallLogError {
    /// The buffer ends before the structure it promises (`need` bytes
    /// required, only `at` present). Truncated logs land here.
    Truncated {
        /// Actual buffer length.
        at: usize,
        /// Bytes the declared structure requires.
        need: usize,
    },
    /// The buffer does not start with the `SWSL` magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// A record carries an invalid syscall number (corruption).
    BadSyscall {
        /// Byte offset of the bad value.
        offset: usize,
        /// The invalid syscall number found.
        num: u8,
    },
}

impl std::fmt::Display for SyscallLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyscallLogError::Truncated { at, need } => {
                write!(f, "syscall log truncated: {at} bytes, need {need}")
            }
            SyscallLogError::BadMagic => write!(f, "syscall log: bad magic"),
            SyscallLogError::BadVersion(v) => write!(f, "syscall log: unknown version {v}"),
            SyscallLogError::BadSyscall { offset, num } => {
                write!(f, "syscall log: invalid syscall {num} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for SyscallLogError {}

impl Hook for SyscallLog {
    fn on_syscall(&mut self, _m: &Machine, pc: u32, sc: Syscall, args: [u32; 4], ret: u32) {
        self.records.push(SyscallRecord {
            pc,
            syscall: sc,
            args,
            ret,
        });
    }
    fn on_insn(&mut self, _m: &Machine, _pc: u32, _op: &Op) {}
}

/// The first point where two syscall logs diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Logs are identical over the compared prefix.
    None,
    /// Record `index` differs.
    At {
        /// Index of the first differing record.
        index: usize,
        /// The original record (if present).
        original: Option<SyscallRecord>,
        /// The replayed record (if present).
        replayed: Option<SyscallRecord>,
    },
}

/// Compare an original log against a replay log.
///
/// `writes_only` restricts the comparison to `write` syscalls, which is
/// the §4.1 criterion (a recovery replay legitimately *omits* the
/// dropped attack's reads, but committed output must not change).
pub fn divergence(original: &SyscallLog, replayed: &SyscallLog, writes_only: bool) -> Divergence {
    let a: Vec<&SyscallRecord> = if writes_only {
        original.writes()
    } else {
        original.records().iter().collect()
    };
    let b: Vec<&SyscallRecord> = if writes_only {
        replayed.writes()
    } else {
        replayed.records().iter().collect()
    };
    let n = a.len().min(b.len());
    for i in 0..n {
        if a[i] != b[i] {
            return Divergence::At {
                index: i,
                original: Some(*a[i]),
                replayed: Some(*b[i]),
            };
        }
    }
    if a.len() != b.len() {
        return Divergence::At {
            index: n,
            original: a.get(n).map(|r| **r),
            replayed: b.get(n).map(|r| **r),
        };
    }
    Divergence::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::CheckpointManager;
    use crate::proxy::Proxy;
    use crate::replay::{NoFault, ReplaySession};
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::stdlib::LIB_ASM;
    use svm::{Machine, NopHook};

    fn echo_server() -> Machine {
        let src = format!(
            "
.text
main:
    sys accept
    mov r10, r0
    mov r0, r10
    movi r1, buf
    movi r2, 64
    sys read
    mov r3, r0
    mov r0, r10
    movi r1, buf
    mov r2, r3
    sys write
    mov r0, r10
    sys close
    jmp main
.data
buf: .space 64
{LIB_ASM}
"
        );
        Machine::boot(&assemble(&src).expect("asm"), Aslr::off()).expect("boot")
    }

    #[test]
    fn log_records_syscalls_in_order() {
        let mut m = echo_server();
        m.net.push_connection(b"ping".to_vec());
        let mut log = SyscallLog::new();
        m.run(&mut log, 50_000_000);
        let kinds: Vec<Syscall> = log.records().iter().map(|r| r.syscall).collect();
        assert_eq!(
            kinds,
            vec![
                Syscall::Accept,
                Syscall::Read,
                Syscall::Write,
                Syscall::Close
            ],
            "one request's syscall sequence"
        );
        assert_eq!(log.writes().len(), 1);
        assert_eq!(log.records()[1].ret, 4, "read returned 4 bytes");
    }

    #[test]
    fn identical_replay_has_no_divergence() {
        let mut m = echo_server();
        let mut mgr = CheckpointManager::new(0, 4);
        let mut proxy = Proxy::new();
        m.run(&mut NopHook, 50_000_000);
        let ck = mgr.take(&mut m);
        // Live run with logging.
        let mut live_log = SyscallLog::new();
        proxy.offer(&mut m, b"hello".to_vec(), &[]);
        m.run(&mut live_log, 50_000_000);
        // Replay the same inputs with logging.
        let mut replay_log = SyscallLog::new();
        ReplaySession::new(&mgr, &proxy, ck)
            .expect("session")
            .run(&mut replay_log, &mut NoFault);
        assert_eq!(divergence(&live_log, &replay_log, false), Divergence::None);
        assert_eq!(divergence(&live_log, &replay_log, true), Divergence::None);
    }

    #[test]
    fn dropped_input_diverges_fully_but_not_on_earlier_writes() {
        let mut m = echo_server();
        let mut mgr = CheckpointManager::new(0, 4);
        let mut proxy = Proxy::new();
        m.run(&mut NopHook, 50_000_000);
        let ck = mgr.take(&mut m);
        let mut live_log = SyscallLog::new();
        proxy.offer(&mut m, b"first".to_vec(), &[]);
        m.run(&mut live_log, 50_000_000);
        proxy.offer(&mut m, b"evil!".to_vec(), &[]);
        m.run(&mut live_log, 50_000_000);
        // Replay without the second ("attack") connection.
        let mut replay_log = SyscallLog::new();
        ReplaySession::new(&mgr, &proxy, ck)
            .expect("session")
            .dropping(&[1])
            .run(&mut replay_log, &mut NoFault);
        // Full comparison diverges (the attack's syscalls are missing)...
        assert!(matches!(
            divergence(&live_log, &replay_log, false),
            Divergence::At { .. }
        ));
        // ...and the writes-only comparison flags exactly the missing
        // second write, while the first request's write matched.
        match divergence(&live_log, &replay_log, true) {
            Divergence::At {
                index: 1,
                original: Some(_),
                replayed: None,
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wire_roundtrip_is_lossless() {
        let mut m = echo_server();
        m.net.push_connection(b"ping".to_vec());
        let mut log = SyscallLog::new();
        m.run(&mut NopHook, 1_000_000); // park on accept first
        m.run(&mut log, 50_000_000);
        let bytes = log.to_bytes();
        let back = SyscallLog::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.records(), log.records());
    }

    #[test]
    fn truncated_and_corrupt_logs_fail_closed() {
        let mut log = SyscallLog::new();
        log.records.push(SyscallRecord {
            pc: 0x40,
            syscall: Syscall::Write,
            args: [1, 2, 3, 4],
            ret: 4,
        });
        let bytes = log.to_bytes();
        // Every truncation point decodes to Err, never panics.
        for cut in 0..bytes.len() {
            let r = SyscallLog::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
        // A count claiming more records than the buffer holds is caught.
        let mut lying = bytes.clone();
        lying[5] = 0xff;
        lying[6] = 0xff;
        assert!(matches!(
            SyscallLog::from_bytes(&lying),
            Err(SyscallLogError::Truncated { .. })
        ));
        // Bad magic and version.
        let mut nomagic = bytes.clone();
        nomagic[0] = b'X';
        assert_eq!(
            SyscallLog::from_bytes(&nomagic),
            Err(SyscallLogError::BadMagic)
        );
        let mut badver = bytes.clone();
        badver[4] = 9;
        assert_eq!(
            SyscallLog::from_bytes(&badver),
            Err(SyscallLogError::BadVersion(9))
        );
        // An invalid syscall number inside a record is corruption.
        let mut badsc = bytes;
        badsc[9 + 4] = 0x7f;
        assert!(matches!(
            SyscallLog::from_bytes(&badsc),
            Err(SyscallLogError::BadSyscall { num: 0x7f, .. })
        ));
    }

    #[test]
    fn changed_output_is_pinpointed() {
        let mut a = SyscallLog::new();
        let mut b = SyscallLog::new();
        let rec = |ret| SyscallRecord {
            pc: 0x100,
            syscall: Syscall::Write,
            args: [0, 0x2000, 4, 0],
            ret,
        };
        a.records.push(rec(4));
        b.records.push(rec(3));
        match divergence(&a, &b, true) {
            Divergence::At {
                index: 0,
                original: Some(o),
                replayed: Some(r),
            } => {
                assert_ne!(o.ret, r.ret);
            }
            other => panic!("{other:?}"),
        }
    }
}

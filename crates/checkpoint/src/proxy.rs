//! The network proxy: input logging, filtering, and replay injection.
//!
//! Paper §3.1: "Network state is logged by a separate proxy process; this
//! proxy facilitates replaying messages for re-execution and can also
//! implement signature-based input filtering." The proxy sits between
//! clients and the protected machine: every connection is logged with its
//! virtual arrival time, deployed input signatures can drop connections
//! before the server sees them, and on replay the proxy re-injects the
//! post-checkpoint connections (optionally excluding the attack).

use svm::Machine;

/// Verdict-producing input filter (implemented by antibody signatures).
pub trait InputFilter {
    /// Whether this input must be dropped before reaching the server.
    fn blocks(&self, input: &[u8]) -> bool;

    /// Filter name for logging.
    fn name(&self) -> &str {
        "filter"
    }
}

/// A logged client connection.
#[derive(Debug, Clone)]
pub struct LoggedConn {
    /// Index in the proxy log (== guest connection id when delivered
    /// undropped in order, which the proxy guarantees for live traffic).
    pub log_id: usize,
    /// Full input bytes.
    pub input: Vec<u8>,
    /// Virtual cycle count of the protected machine at arrival.
    pub arrival_cycles: u64,
    /// Whether this connection is excluded from delivery, replay and
    /// output accounting — either blocked by a deployed filter up front
    /// (never delivered) or retroactively dropped during recovery.
    pub filtered: bool,
    /// Whether the exclusion was a *retroactive* drop (`mark_dropped`):
    /// the connection **was** delivered to the guest and later identified
    /// as an attack. Always implies `filtered`. Distinguishing the two
    /// keeps recovery accounting honest — dropped connections represent
    /// real replay work excluded, not traffic that never existed.
    pub dropped: bool,
    /// Server output bytes already released to the client (the output
    /// commit point; replays must neither duplicate nor contradict them).
    pub released: Vec<u8>,
    /// Rollback domain this connection's guest-state writes are
    /// attributed to (per-connection by default: the log id). Partial
    /// recovery rolls back only the attacked connection's domain; see
    /// [`crate::domains`].
    pub domain: u32,
}

/// The logging/filtering proxy.
#[derive(Debug, Default)]
pub struct Proxy {
    log: Vec<LoggedConn>,
    /// Count of connections dropped by filters (statistics).
    pub filtered_total: u64,
    /// Count of connections retroactively dropped during recovery.
    pub dropped_total: u64,
    /// Position of the first entry the live machine has seen: entries
    /// before it were logged for an instance that a restart replaced
    /// ([`Proxy::restart`]).
    base: usize,
    /// Unfiltered entries from `base` on: the guest connection count of
    /// a live machine in step with the log.
    delivered: usize,
    /// Where [`Proxy::release_outputs`] resumes: a log position and the
    /// guest connection id it maps to, past a prefix of entries that are
    /// settled — filtered, or closed with every output byte released —
    /// and so can release nothing more.
    release_from: (usize, usize),
    /// Log entries [`Proxy::release_outputs`] has looked at, over the
    /// proxy's lifetime.
    release_visits: u64,
}

impl Proxy {
    /// An empty proxy.
    pub fn new() -> Proxy {
        Proxy::default()
    }

    /// Offer a new client connection: logs it, applies `filters`, and (if
    /// not blocked) delivers it to the live machine. Returns the log id
    /// and whether it was delivered.
    pub fn offer(
        &mut self,
        m: &mut Machine,
        input: Vec<u8>,
        filters: &[&dyn InputFilter],
    ) -> (usize, bool) {
        let log_id = self.log.len();
        let blocked = filters.iter().any(|f| f.blocks(&input));
        self.log.push(LoggedConn {
            log_id,
            input: input.clone(),
            arrival_cycles: m.clock.cycles(),
            filtered: blocked,
            dropped: false,
            released: Vec::new(),
            domain: log_id as u32,
        });
        if blocked {
            self.filtered_total += 1;
            return (log_id, false);
        }
        self.delivered += 1;
        m.net.push_connection(input);
        m.unblock();
        (log_id, true)
    }

    /// The full connection log, including entries logged before the
    /// last restart.
    pub fn log(&self) -> &[LoggedConn] {
        &self.log
    }

    /// The entries logged since the live machine booted (the last
    /// [`Proxy::restart`]): its guest connections are their unfiltered
    /// entries, in order.
    pub fn live_log(&self) -> &[LoggedConn] {
        &self.log[self.base..]
    }

    /// The live machine was replaced by a fresh boot: every entry logged
    /// so far belongs to the old instance, and the next one offered is
    /// the fresh machine's connection 0. Release, replay and recovery
    /// ignore the old entries from now on; [`Proxy::log`] keeps them.
    pub fn restart(&mut self) {
        self.base = self.log.len();
        self.delivered = 0;
        self.release_from = (self.base, 0);
    }

    /// A logged connection by id.
    pub fn get(&self, log_id: usize) -> Option<&LoggedConn> {
        self.log.get(log_id)
    }

    /// Retroactively drop a logged connection (identified as an attack):
    /// it will be excluded from future replays and output accounting.
    ///
    /// Unlike filter-time blocking, the connection *was* delivered;
    /// `LoggedConn::dropped` records that distinction so recovery can
    /// report dropped-attack work separately from never-delivered traffic.
    ///
    /// A drop shifts the guest id of every later entry, so the next
    /// [`Proxy::release_outputs`] walks the live log from its start.
    pub fn mark_dropped(&mut self, log_id: usize) {
        if let Some(c) = self.log.get_mut(log_id) {
            if !c.dropped {
                c.dropped = true;
                self.dropped_total += 1;
            }
            if !c.filtered {
                c.filtered = true;
                if log_id >= self.base {
                    self.delivered -= 1;
                }
            }
        }
        self.rewind_release();
    }

    /// Log entries [`Proxy::release_outputs`] has looked at so far.
    pub fn release_visits(&self) -> u64 {
        self.release_visits
    }

    /// Export proxy counters into an [`obs::MetricsRegistry`] under the
    /// `proxy.` prefix. Absolute mirrors — safe to re-export.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.set_counter("proxy.conns_logged", self.log.len() as u64);
        reg.set_counter("proxy.filtered_total", self.filtered_total);
        reg.set_counter("proxy.dropped_total", self.dropped_total);
        let released: usize = self.log.iter().map(|c| c.released.len()).sum();
        reg.set_counter("proxy.released_bytes", released as u64);
    }

    /// Release all pending output of the live machine, committing it.
    ///
    /// Returns the newly released `(log_id, bytes)` pairs. The mapping
    /// from guest connection id to log id assumes in-order undropped
    /// delivery; filtered connections never exist guest-side, so the
    /// proxy tracks the correspondence explicitly, from the first entry
    /// of the [`live_log`](Self::live_log).
    ///
    /// The walk resumes past the settled prefix of the log, so a served
    /// request visits O(1) entries however long the log grows. A closed
    /// connection's output cannot grow on the same machine; when `m` is
    /// not in step with the log (a rollback rewound the connection
    /// table) the walk starts over, and so does it after
    /// [`Proxy::mark_dropped`] or a full recovery — the result is always
    /// that of a walk from the first live entry.
    pub fn release_outputs(&mut self, m: &Machine) -> Vec<(usize, Vec<u8>)> {
        if m.net.conns().len() != self.delivered {
            self.rewind_release();
        }
        let (start, mut guest_idx) = self.release_from;
        let mut released = Vec::new();
        let mut settled = true;
        for (pos, lc) in self.log.iter_mut().enumerate().skip(start) {
            self.release_visits += 1;
            if !lc.filtered {
                let Some(conn) = m.net.conn(guest_idx as u32) else {
                    break;
                };
                guest_idx += 1;
                if conn.output.len() > lc.released.len() {
                    let new = conn.output[lc.released.len()..].to_vec();
                    lc.released.extend_from_slice(&new);
                    released.push((lc.log_id, new));
                }
                settled &= conn.closed && conn.output.len() == lc.released.len();
            }
            if settled {
                self.release_from = (pos + 1, guest_idx);
            }
        }
        released
    }

    /// Forget the release cursor: the live machine was replaced.
    pub(crate) fn rewind_release(&mut self) {
        self.release_from = (self.base, 0);
    }

    /// Connections that arrived *after* the machine had `conns_at`
    /// delivered connections — the ones a replay from that checkpoint must
    /// re-inject (in arrival order), excluding filtered ones and any log
    /// ids in `drop`.
    pub fn replay_set(&self, conns_at: usize, drop: &[usize]) -> Vec<&LoggedConn> {
        self.live_log()
            .iter()
            .filter(|c| !c.filtered)
            .skip(conns_at)
            .filter(|c| !drop.contains(&c.log_id))
            .collect()
    }

    /// The log id of every guest connection of a machine replayed from a
    /// checkpoint taken at `conns_at` delivered connections, indexed by
    /// guest connection id: the first `conns_at` unfiltered live entries,
    /// then [`replay_set`](Self::replay_set)`(conns_at, drop)`.
    ///
    /// The prefix is shorter than `conns_at` only when later drops
    /// shrank the unfiltered log below it, and then the replay set is
    /// empty, so the prefix length is always `conns_at.min(len)`.
    pub fn guest_to_log(&self, conns_at: usize, drop: &[usize]) -> Vec<usize> {
        self.live_log()
            .iter()
            .filter(|c| !c.filtered)
            .take(conns_at)
            .chain(self.replay_set(conns_at, drop))
            .map(|c| c.log_id)
            .collect()
    }

    /// The log id of the most recent delivered (unfiltered) connection at
    /// or before the given cycle count — the usual attack suspect.
    pub fn last_delivered_before(&self, cycles: u64) -> Option<usize> {
        self.log
            .iter()
            .rev()
            .find(|c| !c.filtered && c.arrival_cycles <= cycles)
            .map(|c| c.log_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm::asm::assemble;
    use svm::loader::Aslr;

    struct Contains(&'static [u8]);
    impl InputFilter for Contains {
        fn blocks(&self, input: &[u8]) -> bool {
            input.windows(self.0.len()).any(|w| w == self.0)
        }
    }

    fn idle_machine() -> Machine {
        let prog = assemble(".text\nmain:\n jmp main\n").expect("asm");
        Machine::boot(&prog, Aslr::off()).expect("boot")
    }

    #[test]
    fn offer_logs_and_delivers() {
        let mut m = idle_machine();
        let mut p = Proxy::new();
        let (id, delivered) = p.offer(&mut m, b"hello".to_vec(), &[]);
        assert!(delivered);
        assert_eq!(id, 0);
        assert_eq!(m.net.conns().len(), 1);
        assert_eq!(p.log()[0].input, b"hello");
    }

    #[test]
    fn filters_block_before_delivery() {
        let mut m = idle_machine();
        let mut p = Proxy::new();
        let f = Contains(b"evil");
        let (_, d1) = p.offer(&mut m, b"benign".to_vec(), &[&f]);
        let (_, d2) = p.offer(&mut m, b"very evil input".to_vec(), &[&f]);
        assert!(d1);
        assert!(!d2);
        assert_eq!(
            m.net.conns().len(),
            1,
            "blocked input never reaches the guest"
        );
        assert_eq!(p.filtered_total, 1);
        assert!(p.log()[1].filtered);
    }

    #[test]
    fn replay_set_skips_pre_checkpoint_filtered_and_dropped() {
        let mut m = idle_machine();
        let mut p = Proxy::new();
        let f = Contains(b"evil");
        p.offer(&mut m, b"a".to_vec(), &[&f]); // id 0, pre-checkpoint
        let conns_at = m.net.conns().len();
        p.offer(&mut m, b"b".to_vec(), &[&f]); // id 1
        p.offer(&mut m, b"evil".to_vec(), &[&f]); // id 2, filtered
        p.offer(&mut m, b"c".to_vec(), &[&f]); // id 3
        p.offer(&mut m, b"d".to_vec(), &[&f]); // id 4
        let rs = p.replay_set(conns_at, &[3]);
        let inputs: Vec<&[u8]> = rs.iter().map(|c| c.input.as_slice()).collect();
        assert_eq!(inputs, vec![b"b".as_slice(), b"d".as_slice()]);
        // Guest ids of the replayed machine: the pre-checkpoint prefix,
        // then the replay set.
        assert_eq!(p.guest_to_log(conns_at, &[3]), vec![0, 1, 4]);
        // Drops that shrink the unfiltered log below `conns_at` leave a
        // short prefix and no replay set.
        for id in [0, 1, 3, 4] {
            p.mark_dropped(id);
        }
        assert!(p.guest_to_log(conns_at, &[]).is_empty());
    }

    #[test]
    fn output_commit_tracks_released_bytes() {
        let mut m = idle_machine();
        let mut p = Proxy::new();
        p.offer(&mut m, b"req".to_vec(), &[]);
        m.net.write(0, b"partial").expect("w");
        let rel = p.release_outputs(&m);
        assert_eq!(rel, vec![(0, b"partial".to_vec())]);
        // No double release.
        assert!(p.release_outputs(&m).is_empty());
        m.net.write(0, b"+more").expect("w");
        let rel2 = p.release_outputs(&m);
        assert_eq!(rel2, vec![(0, b"+more".to_vec())]);
        assert_eq!(p.get(0).expect("c").released, b"partial+more");
    }

    #[test]
    fn open_connections_hold_the_release_cursor_back() {
        let mut m = idle_machine();
        let mut p = Proxy::new();
        p.offer(&mut m, b"a".to_vec(), &[]);
        m.net.write(0, b"head").expect("w");
        assert_eq!(p.release_outputs(&m), vec![(0, b"head".to_vec())]);
        // A later connection settles while the first is still open.
        p.offer(&mut m, b"b".to_vec(), &[]);
        m.net.write(1, b"done").expect("w");
        m.net.close(1).expect("close");
        assert_eq!(p.release_outputs(&m), vec![(1, b"done".to_vec())]);
        // The open connection's later output is still found.
        m.net.write(0, b"+tail").expect("w");
        m.net.close(0).expect("close");
        assert_eq!(p.release_outputs(&m), vec![(0, b"+tail".to_vec())]);
        // Both settled: the next call looks at nothing.
        let visits = p.release_visits();
        assert!(p.release_outputs(&m).is_empty());
        assert_eq!(p.release_visits(), visits);
    }

    #[test]
    fn a_drop_restarts_the_release_walk() {
        let mut m = idle_machine();
        let mut p = Proxy::new();
        for (i, out) in [&b"A"[..], b"B"].into_iter().enumerate() {
            p.offer(&mut m, out.to_vec(), &[]);
            m.net.write(i as u32, out).expect("w");
            m.net.close(i as u32).expect("close");
        }
        assert_eq!(p.release_outputs(&m).len(), 2);
        // Dropping the first entry makes the second guest connection 0
        // of a machine rebuilt without it, whose replay wrote more.
        p.mark_dropped(0);
        let mut rebuilt = idle_machine();
        rebuilt.net.push_connection(b"B".to_vec());
        rebuilt.net.write(0, b"B+").expect("w");
        rebuilt.net.close(0).expect("close");
        assert_eq!(p.release_outputs(&rebuilt), vec![(1, b"+".to_vec())]);
    }

    #[test]
    fn a_restart_starts_the_live_log_at_the_next_entry() {
        let mut m = idle_machine();
        let mut p = Proxy::new();
        p.offer(&mut m, b"old".to_vec(), &[]);
        p.offer(&mut m, b"atk".to_vec(), &[]);
        let mut fresh = idle_machine();
        p.restart();
        // Dropping an entry the old instance saw leaves the fresh
        // machine's connection count alone.
        p.mark_dropped(1);
        p.offer(&mut fresh, b"new".to_vec(), &[]);
        assert_eq!(p.log().len(), 3);
        assert_eq!(p.live_log().len(), 1);
        assert_eq!(p.guest_to_log(0, &[]), vec![2]);
        let replay: Vec<usize> = p.replay_set(0, &[]).iter().map(|c| c.log_id).collect();
        assert_eq!(replay, vec![2]);
        fresh.net.write(0, b"reply").expect("w");
        assert_eq!(p.release_outputs(&fresh), vec![(2, b"reply".to_vec())]);
        assert!(p.get(0).expect("c").released.is_empty());
    }

    #[test]
    fn last_delivered_before_finds_suspect() {
        let mut m = idle_machine();
        let mut p = Proxy::new();
        p.offer(&mut m, b"a".to_vec(), &[]);
        m.clock.tick(1000);
        p.offer(&mut m, b"b".to_vec(), &[]);
        assert_eq!(p.last_delivered_before(m.clock.cycles()), Some(1));
        assert_eq!(p.last_delivered_before(500), Some(0));
    }
}

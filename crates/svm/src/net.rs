//! Guest-visible networking: connections, input queues, output capture.
//!
//! The host (Sweeper's network proxy) enqueues whole connections; the guest
//! `accept`s, `read`s, and `write`s them. Every byte read is tagged with
//! its offset in the connection's input stream so that instrumentation
//! (taint analysis) can map sink violations back to the responsible input
//! bytes — the paper's route from exploit to input signature.

use std::collections::VecDeque;

/// A single guest connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conn {
    /// Connection id as seen by the guest.
    pub id: u32,
    /// Full input stream supplied by the proxy.
    pub input: Vec<u8>,
    /// How many input bytes the guest has consumed.
    pub read_pos: usize,
    /// Whether the client half is closed (EOF after `input` drains).
    pub eof: bool,
    /// Bytes the guest has written back.
    pub output: Vec<u8>,
    /// Whether the guest closed the connection.
    pub closed: bool,
}

/// What a blocked guest is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// `accept` with no pending connection.
    Accept,
    /// `read` on a connection with no data yet (and no EOF).
    Read {
        /// The connection being read.
        conn: u32,
    },
}

/// Host-side network endpoint state.
#[derive(Debug, Clone, Default)]
pub struct NetState {
    conns: Vec<Conn>,
    pending_accept: VecDeque<u32>,
    /// Captured `log` syscall output (host diagnostics channel).
    pub log: Vec<u8>,
}

impl NetState {
    /// An endpoint with no connections.
    pub fn new() -> NetState {
        NetState::default()
    }

    /// Enqueue a new client connection carrying `input`; returns its id.
    pub fn push_connection(&mut self, input: Vec<u8>) -> u32 {
        let id = self.conns.len() as u32;
        self.conns.push(Conn {
            id,
            input,
            read_pos: 0,
            eof: true,
            output: Vec::new(),
            closed: false,
        });
        self.pending_accept.push_back(id);
        id
    }

    /// Enqueue a connection that stays open (more data may be appended).
    pub fn push_streaming_connection(&mut self, input: Vec<u8>) -> u32 {
        let id = self.push_connection(input);
        self.conns[id as usize].eof = false;
        id
    }

    /// Append data to an open streaming connection.
    pub fn append_input(&mut self, conn: u32, data: &[u8]) -> Result<(), String> {
        let c = self.conn_mut(conn)?;
        if c.eof {
            return Err(format!("connection {conn} already at EOF"));
        }
        c.input.extend_from_slice(data);
        Ok(())
    }

    /// Mark a streaming connection's client half closed.
    pub fn shutdown_input(&mut self, conn: u32) -> Result<(), String> {
        self.conn_mut(conn)?.eof = true;
        Ok(())
    }

    /// Guest `accept`: the next pending connection id, if any.
    pub fn accept(&mut self) -> Option<u32> {
        self.pending_accept.pop_front()
    }

    /// Guest `read`: up to `len` bytes. `Ok(None)` means would-block.
    ///
    /// Returns the data along with the stream offset of its first byte.
    pub fn read(&mut self, conn: u32, len: usize) -> Result<Option<(usize, Vec<u8>)>, String> {
        let c = self.conn_mut(conn)?;
        if c.closed {
            return Err(format!("read on closed connection {conn}"));
        }
        let avail = c.input.len() - c.read_pos;
        if avail == 0 {
            return if c.eof {
                Ok(Some((c.read_pos, Vec::new())))
            } else {
                Ok(None)
            };
        }
        let n = avail.min(len);
        let off = c.read_pos;
        let data = c.input[off..off + n].to_vec();
        c.read_pos += n;
        Ok(Some((off, data)))
    }

    /// Guest `write`: append to the connection's output capture.
    pub fn write(&mut self, conn: u32, data: &[u8]) -> Result<usize, String> {
        let c = self.conn_mut(conn)?;
        if c.closed {
            return Err(format!("write on closed connection {conn}"));
        }
        c.output.extend_from_slice(data);
        Ok(data.len())
    }

    /// Guest `close`.
    pub fn close(&mut self, conn: u32) -> Result<(), String> {
        self.conn_mut(conn)?.closed = true;
        Ok(())
    }

    /// Inspect a connection.
    pub fn conn(&self, conn: u32) -> Option<&Conn> {
        self.conns.get(conn as usize)
    }

    /// All connections.
    pub fn conns(&self) -> &[Conn] {
        &self.conns
    }

    /// Drop every connection with id >= `len`, including any still
    /// waiting in the accept queue. Rollback-domain recovery uses this
    /// to truncate the endpoint back to a service boundary without
    /// disturbing the (already-served) earlier connections.
    pub fn truncate_conns(&mut self, len: usize) {
        self.conns.truncate(len);
        self.pending_accept.retain(|&id| (id as usize) < len);
    }

    /// Total bytes written by the guest across all connections.
    pub fn total_output(&self) -> usize {
        self.conns.iter().map(|c| c.output.len()).sum()
    }

    fn conn_mut(&mut self, conn: u32) -> Result<&mut Conn, String> {
        self.conns
            .get_mut(conn as usize)
            .ok_or_else(|| format!("bad connection id {conn}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_fifo_order() {
        let mut n = NetState::new();
        let a = n.push_connection(b"a".to_vec());
        let b = n.push_connection(b"b".to_vec());
        assert_eq!(n.accept(), Some(a));
        assert_eq!(n.accept(), Some(b));
        assert_eq!(n.accept(), None);
    }

    #[test]
    fn read_tracks_stream_offsets() {
        let mut n = NetState::new();
        let c = n.push_connection(b"hello world".to_vec());
        let (off1, d1) = n.read(c, 5).expect("ok").expect("data");
        assert_eq!((off1, d1.as_slice()), (0, b"hello".as_slice()));
        let (off2, d2) = n.read(c, 100).expect("ok").expect("data");
        assert_eq!((off2, d2.as_slice()), (5, b" world".as_slice()));
        // EOF: empty read.
        let (_, d3) = n.read(c, 10).expect("ok").expect("eof");
        assert!(d3.is_empty());
    }

    #[test]
    fn streaming_connection_blocks_then_delivers() {
        let mut n = NetState::new();
        let c = n.push_streaming_connection(Vec::new());
        assert_eq!(n.read(c, 10).expect("ok"), None, "would block");
        n.append_input(c, b"xy").expect("append");
        let (_, d) = n.read(c, 10).expect("ok").expect("data");
        assert_eq!(d, b"xy");
        n.shutdown_input(c).expect("shutdown");
        let (_, d2) = n.read(c, 10).expect("ok").expect("eof");
        assert!(d2.is_empty());
        assert!(n.append_input(c, b"z").is_err(), "no append after EOF");
    }

    #[test]
    fn closed_connection_rejects_io() {
        let mut n = NetState::new();
        let c = n.push_connection(b"x".to_vec());
        n.write(c, b"resp").expect("write");
        n.close(c).expect("close");
        assert!(n.read(c, 1).is_err());
        assert!(n.write(c, b"y").is_err());
        assert_eq!(n.conn(c).expect("conn").output, b"resp");
        assert_eq!(n.total_output(), 4);
    }

    #[test]
    fn bad_ids_are_errors() {
        let mut n = NetState::new();
        assert!(n.read(9, 1).is_err());
        assert!(n.write(9, b"").is_err());
        assert!(n.close(9).is_err());
    }
}

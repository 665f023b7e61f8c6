//! Frame-level I/O for the TCP board wire protocol: length-prefix
//! framing, vectored writes, and a buffered poll-aware frame reader.
//!
//! Every frame on the wire is a `u32` little-endian length followed by
//! that many body bytes (first body byte = opcode; see [`op`]). This
//! module owns the byte-level mechanics shared by the client and
//! server in [`crate::tcp`]:
//!
//! - [`write_frame`] emits one frame with a single vectored write
//!   (header + body in one syscall on the happy path, no copy into a
//!   combined buffer);
//! - [`append_frame`] stages a frame into an outbound coalescing
//!   buffer, so a pipelining client packs many small frames into one
//!   `write` syscall;
//! - [`FrameReader`] reads frames through one **reusable** buffer
//!   (zero steady-state allocation, multiple buffered frames are
//!   drained without further syscalls) and owns the connection's idle
//!   policy: the read timeout escalates 25ms → 200ms across
//!   consecutive idle polls, then the connection **parks** in a
//!   blocking read — an idle fleet burns no wakeups at all, and the
//!   server wakes parked connections explicitly at shutdown (socket
//!   shutdown from the accept loop).
//!
//! A timeout before the first byte of a frame is [`FrameRead::Idle`]
//! (the caller re-checks its shutdown flag); a timeout *mid-frame*
//! resumes the partial read, with a stall budget of
//! [`MAX_MIDFRAME_STALL_TICKS`] consecutive empty ticks before the
//! peer is declared dead.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
// lint:allow(determinism): `Duration` here configures socket read
// timeouts and idle-backoff ticks only — no wall-clock value is ever
// read or enters the posting log, so transcripts stay time-independent.
use std::time::Duration;

use crate::transport::BoardError;

/// Frames larger than this are rejected (corrupt length prefix guard).
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Wire opcodes. Every request gets exactly one response frame except
/// `POST_PIPE`: those frames are **not** individually acknowledged, a
/// later `POST_SYNC` collects one coalesced [`op::RESP_OK_N`] for the
/// whole window. `0x01` (the retired per-frame-acknowledged post) and
/// `0x08` (the retired one-record-per-posting `POST_PIPE` body) are
/// unassigned.
pub(crate) mod op {
    /// Tick the round clock; replies [`RESP_VALUE`] (new round).
    pub const ADVANCE_ROUND: u8 = 0x02;
    /// Read the current round; replies [`RESP_VALUE`].
    pub const GET_ROUND: u8 = 0x03;
    /// Read the posting count; replies [`RESP_VALUE`].
    pub const GET_LEN: u8 = 0x04;
    /// Read one round's postings; replies [`RESP_POSTINGS`].
    pub const READ_ROUND: u8 = 0x05;
    /// Read postings from a cursor; replies [`RESP_POSTINGS`].
    pub const READ_FROM: u8 = 0x06;
    /// Ask the server to stop; replies [`RESP_OK`].
    pub const SHUTDOWN: u8 = 0x07;
    /// Append a frame of posting runs **without** an individual ack;
    /// the connection's next [`POST_SYNC`] acknowledges the whole
    /// window.
    pub const POST_PIPE: u8 = 0x0B;
    /// Barrier for pipelined posting: replies [`RESP_OK_N`] carrying
    /// the number of `POST_PIPE` frames appended since the last sync.
    pub const POST_SYNC: u8 = 0x09;
    /// Read the server's wire/throughput counters; replies
    /// [`RESP_STATS`].
    pub const GET_STATS: u8 = 0x0A;
    /// Read the per-phase communication table folded over the log;
    /// the body is the opcode alone. Replies [`RESP_PHASES`].
    pub const GET_PHASES: u8 = 0x0C;

    /// Bare success.
    pub const RESP_OK: u8 = 0x80;
    /// A `u64` value.
    pub const RESP_VALUE: u8 = 0x81;
    /// A posting list (`u32` count, then encoded postings).
    pub const RESP_POSTINGS: u8 = 0x82;
    /// Coalesced ack: `u64` count of pipelined frames acknowledged.
    pub const RESP_OK_N: u8 = 0x83;
    /// Server counters: `u32` field count, then that many `u64`s.
    pub const RESP_STATS: u8 = 0x84;
    /// Per-phase stats: `u32` row count, then per row the phase str and
    /// elements, bytes, messages (`u64` each), in label order.
    pub const RESP_PHASES: u8 = 0x85;
    /// An error string.
    pub const RESP_ERR: u8 = 0xEE;
}

pub(crate) fn io_err(context: &str, e: &std::io::Error) -> BoardError {
    BoardError::Io(format!("{context}: {e}"))
}

/// Whether an I/O error is a socket read-timeout expiry. On Unix a
/// `SO_RCVTIMEO` expiry surfaces as `WouldBlock` ("Resource temporarily
/// unavailable"), on Windows as `TimedOut` — match the [`std::io::ErrorKind`],
/// never the display string.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Validates a frame body length against the `u32` prefix and the
/// server frame cap.
fn frame_len(body: &[u8]) -> Result<u32, BoardError> {
    if body.len() > MAX_FRAME {
        return Err(BoardError::Protocol(format!(
            "frame body of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
            body.len()
        )));
    }
    u32::try_from(body.len()).map_err(|_| {
        BoardError::Protocol(format!(
            "frame body of {} bytes exceeds the u32 length prefix",
            body.len()
        ))
    })
}

/// Writes one length-prefixed frame with a vectored write: the 4-byte
/// header and the body go down in one syscall when the socket accepts
/// them, with a partial-write loop for short writes.
pub(crate) fn write_frame(stream: &mut TcpStream, body: &[u8]) -> Result<(), BoardError> {
    let len = frame_len(body)?;
    let header = len.to_le_bytes();
    let mut done = 0usize; // bytes of header+body already written
    let total = header.len() + body.len();
    while done < total {
        let bufs = if done < header.len() {
            [IoSlice::new(&header[done..]), IoSlice::new(body)]
        } else {
            [IoSlice::new(&body[done - header.len()..]), IoSlice::new(&[])]
        };
        match stream.write_vectored(&bufs) {
            Ok(0) => {
                return Err(BoardError::Io("socket accepted zero bytes mid-frame".into()))
            }
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("write frame", &e)),
        }
    }
    stream.flush().map_err(|e| io_err("flush frame", &e))
}

/// Stages one length-prefixed frame into an outbound coalescing
/// buffer (see [`flush_wire`]): the pipelined client path packs many
/// frames per `write` syscall instead of one syscall pair per frame.
pub(crate) fn append_frame(out: &mut Vec<u8>, body: &[u8]) -> Result<(), BoardError> {
    let len = frame_len(body)?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(body);
    Ok(())
}

/// Writes and clears an outbound coalescing buffer filled by
/// [`append_frame`].
pub(crate) fn flush_wire(stream: &mut TcpStream, wire: &mut Vec<u8>) -> Result<(), BoardError> {
    if wire.is_empty() {
        return Ok(());
    }
    stream.write_all(wire).map_err(|e| io_err("write pipelined frames", &e))?;
    stream.flush().map_err(|e| io_err("flush pipelined frames", &e))?;
    wire.clear();
    Ok(())
}

/// Reads one frame into a reusable buffer (client side: a read timeout
/// here is a hard error — the caller drops and reconnects, so partial
/// reads cannot desync the stream). Returns `false` when the peer
/// closed the connection cleanly before a new frame began.
pub(crate) fn read_frame_into(
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
) -> Result<bool, BoardError> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(io_err("read frame length", &e)),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(BoardError::Protocol(format!("frame of {len} bytes exceeds cap")));
    }
    out.clear();
    out.resize(len, 0);
    stream.read_exact(out).map_err(|e| io_err("read frame body", &e))?;
    Ok(true)
}

/// Outcome of one poll-aware server-side frame read.
pub(crate) enum FrameRead<'a> {
    /// A complete frame body (borrowed from the reader's buffer; valid
    /// until the next [`FrameReader::next_frame`] call).
    Frame(&'a [u8]),
    /// The poll timeout expired before any byte of the next frame
    /// arrived — the connection is idle, not broken.
    Idle,
    /// The peer closed the connection cleanly between frames.
    Closed,
}

/// Consecutive idle-poll ticks tolerated *mid-frame* before the
/// connection is declared dead (300 × 200ms = 60s without a byte).
pub(crate) const MAX_MIDFRAME_STALL_TICKS: u32 = 300;

/// The fixed poll tick while a frame is partially received: short
/// enough to enforce the stall budget, long enough not to spin.
const MIDFRAME_TICK: Duration = Duration::from_millis(200);

/// Idle polls (at the capped 200ms tick) before the connection parks
/// in a fully blocking read. With the 25→50→100→200ms escalation this
/// parks after roughly 1.2s of silence.
const PARK_AFTER_IDLE_POLLS: u32 = 8;

/// The adaptive idle schedule: short ticks right after activity (fast
/// shutdown notice while a driver is mid-burst), escalating to the
/// ~200ms cap, then `None` — park in a blocking read until data
/// arrives or the server shuts the socket down.
fn idle_timeout(idle_polls: u32) -> Option<Duration> {
    match idle_polls {
        0 => Some(Duration::from_millis(25)),
        1 => Some(Duration::from_millis(50)),
        2 => Some(Duration::from_millis(100)),
        n if n < PARK_AFTER_IDLE_POLLS => Some(Duration::from_millis(200)),
        _ => None,
    }
}

/// Internal outcome of the buffer-filling loop, slice-free so the
/// frame slice can be taken in one place (the borrow checker rejects
/// conditionally returning a borrow from inside the fill loop).
enum Step {
    Frame { start: usize, len: usize },
    Idle,
    Closed,
}

/// A buffered frame reader bound to one server-side connection.
///
/// All reads land in one growable buffer that is reused for the life
/// of the connection: the steady state allocates nothing, compaction
/// only copies the (usually tiny) partial tail, and a burst of
/// pipelined frames arriving in one read is drained frame-by-frame
/// without further syscalls. The reader also owns the socket's read
/// timeout (see [`idle_timeout`]); callers never touch
/// `set_read_timeout` themselves.
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix: `buf[start..end]` is unconsumed wire data.
    start: usize,
    /// Filled extent of `buf`.
    end: usize,
    idle_polls: u32,
    stalled: u32,
    /// Last timeout applied to the socket (`None` = not yet set), so
    /// the active path skips the `setsockopt` syscall entirely.
    timeout: Option<Option<Duration>>,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        FrameReader {
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
            idle_polls: 0,
            stalled: 0,
            timeout: None,
        }
    }

    fn set_timeout(&mut self, stream: &TcpStream, t: Option<Duration>) {
        if self.timeout != Some(t) {
            let _ = stream.set_read_timeout(t);
            self.timeout = Some(t);
        }
    }

    /// Unconsumed bytes currently buffered (a partial or complete
    /// frame tail).
    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Makes room to read at least one more byte, and — when the next
    /// frame's total size is known — room for that whole frame
    /// starting at `self.start`.
    fn make_room(&mut self, frame_total: Option<usize>) {
        let need = frame_total.unwrap_or(0);
        if self.start > 0 && (self.start + need > self.buf.len() || self.end == self.buf.len()) {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        }
        if self.end == self.buf.len() {
            let grown = (self.buf.len() * 2).max(64 * 1024);
            self.buf.resize(grown, 0);
        }
    }

    /// Reads the next frame. Returns buffered frames without touching
    /// the socket; otherwise blocks per the adaptive idle schedule.
    pub(crate) fn next_frame<'a>(
        &'a mut self,
        stream: &mut TcpStream,
    ) -> Result<FrameRead<'a>, BoardError> {
        match self.fill(stream)? {
            Step::Frame { start, len } => Ok(FrameRead::Frame(&self.buf[start..start + len])),
            Step::Idle => Ok(FrameRead::Idle),
            Step::Closed => Ok(FrameRead::Closed),
        }
    }

    fn fill(&mut self, stream: &mut TcpStream) -> Result<Step, BoardError> {
        loop {
            // Drain a complete buffered frame without a syscall.
            if self.buffered() >= 4 {
                let mut len_buf = [0u8; 4];
                len_buf.copy_from_slice(&self.buf[self.start..self.start + 4]);
                let len = u32::from_le_bytes(len_buf) as usize;
                if len > MAX_FRAME {
                    return Err(BoardError::Protocol(format!(
                        "frame of {len} bytes exceeds cap"
                    )));
                }
                if self.buffered() >= 4 + len {
                    let start = self.start + 4;
                    self.start += 4 + len;
                    self.idle_polls = 0;
                    self.stalled = 0;
                    return Ok(Step::Frame { start, len });
                }
                self.make_room(Some(4 + len));
            } else {
                self.make_room(None);
            }
            let partial = self.buffered() > 0;
            let timeout =
                if partial { Some(MIDFRAME_TICK) } else { idle_timeout(self.idle_polls) };
            self.set_timeout(stream, timeout);
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return if partial {
                        Err(BoardError::Protocol("peer closed mid-frame".into()))
                    } else {
                        Ok(Step::Closed)
                    };
                }
                Ok(n) => {
                    self.end += n;
                    self.stalled = 0;
                    self.idle_polls = 0;
                }
                Err(e) if is_timeout(&e) => {
                    if partial {
                        self.stalled += 1;
                        if self.stalled > MAX_MIDFRAME_STALL_TICKS {
                            return Err(io_err("read frame (peer stalled mid-frame)", &e));
                        }
                    } else {
                        self.idle_polls = self.idle_polls.saturating_add(1);
                        return Ok(Step::Idle);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err("read frame", &e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn coalesced_frames_drain_without_extra_reads() {
        let (mut client, mut server) = pair();
        let mut wire = Vec::new();
        append_frame(&mut wire, &[1, 2, 3]).unwrap();
        append_frame(&mut wire, &[4]).unwrap();
        append_frame(&mut wire, &[]).unwrap();
        flush_wire(&mut client, &mut wire).unwrap();
        assert!(wire.is_empty());
        let mut reader = FrameReader::new();
        match reader.next_frame(&mut server).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, &[1, 2, 3]),
            _ => panic!("expected frame"),
        }
        match reader.next_frame(&mut server).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, &[4]),
            _ => panic!("expected frame"),
        }
        match reader.next_frame(&mut server).unwrap() {
            FrameRead::Frame(b) => assert!(b.is_empty()),
            _ => panic!("expected frame"),
        }
        drop(client);
        assert!(matches!(reader.next_frame(&mut server).unwrap(), FrameRead::Closed));
    }

    #[test]
    fn reader_grows_for_frames_larger_than_initial_buffer() {
        let (client, mut server) = pair();
        let big = vec![0xAB; 200 * 1024];
        let big2 = big.clone();
        let writer = std::thread::spawn(move || {
            let mut c = client;
            write_frame(&mut c, &big2).unwrap();
            c
        });
        let mut reader = FrameReader::new();
        loop {
            match reader.next_frame(&mut server).unwrap() {
                FrameRead::Frame(b) => {
                    assert_eq!(b.len(), big.len());
                    assert!(b.iter().all(|&x| x == 0xAB));
                    break;
                }
                FrameRead::Idle => continue,
                FrameRead::Closed => panic!("closed early"),
            }
        }
        drop(writer.join().unwrap());
    }

    #[test]
    fn idle_polls_escalate_then_reset_on_traffic() {
        let (mut client, mut server) = pair();
        let mut reader = FrameReader::new();
        // Two idle polls (25ms + 50ms), then traffic resets the streak.
        assert!(matches!(reader.next_frame(&mut server).unwrap(), FrameRead::Idle));
        assert!(matches!(reader.next_frame(&mut server).unwrap(), FrameRead::Idle));
        assert_eq!(reader.idle_polls, 2);
        write_frame(&mut client, &[9]).unwrap();
        match reader.next_frame(&mut server).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, &[9]),
            _ => panic!("expected frame"),
        }
        assert_eq!(reader.idle_polls, 0);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let (mut client, mut server) = pair();
        use std::io::Write as _;
        client.write_all(&u32::MAX.to_le_bytes()).unwrap();
        client.flush().unwrap();
        let mut reader = FrameReader::new();
        let err = loop {
            match reader.next_frame(&mut server) {
                Ok(FrameRead::Idle) => continue,
                Ok(_) => panic!("expected error"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("exceeds cap"));
    }
}

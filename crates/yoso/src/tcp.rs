//! TCP bulletin-board backend: a length-prefix-framed client/server
//! pair so committee drivers and auditors run as separate OS
//! processes.
//!
//! # Wire protocol
//!
//! Every frame is `u32` little-endian length followed by that many
//! body bytes; the first body byte is an opcode. Requests:
//!
//! | op   | name          | body                                        |
//! |------|---------------|---------------------------------------------|
//! | 0x02 | `AdvanceRound`| —                                           |
//! | 0x03 | `GetRound`    | —                                           |
//! | 0x04 | `GetLen`      | —                                           |
//! | 0x05 | `ReadRound`   | round `u64`                                 |
//! | 0x06 | `ReadFrom`    | cursor `u64`                                |
//! | 0x07 | `Shutdown`    | —                                           |
//! | 0x09 | `PostSync`    | — (collects one coalesced ack for the window) |
//! | 0x0A | `GetStats`    | —                                           |
//! | 0x0B | `PostPipe`    | `u32` run count, then per run: committee str, phase str, elements `u64`, bytes `u64`, payload bytes, `u32` member count, that many `u32` member indices; **no** per-frame ack |
//! | 0x0C | `GetPhases`   | — (anything after the opcode draws `RESP_ERR`) |
//!
//! Responses: `0x80` ok, `0x81` value (`u64`), `0x82` postings
//! (`u32` count, then per posting: round `u64`, committee str, index
//! `u64`, phase str, elements `u64`, bytes `u64`, payload bytes),
//! `0x83` coalesced ack (`u64` frames acknowledged), `0x84` stats
//! (`u32` field count, then `u64` fields), `0x85` phases (`u32` row
//! count, then per row: phase str, elements `u64`, bytes `u64`,
//! messages `u64`, in label order), `0xEE` error (str).
//! Strings and byte strings are `u32`-length prefixed. Opcodes `0x01`
//! (the retired per-frame-acknowledged `PostBatch`) and `0x08` (the
//! retired `PostPipe` body, one full record per posting) are unassigned
//! and answered with `RESP_ERR` like any other unknown opcode. A
//! `ReadRound`/`ReadFrom` whose postings would not fit one frame is
//! answered with `RESP_ERR` naming the response size and the cap; the
//! connection stays open.
//!
//! # Posting
//!
//! There is one posting path, one encoder and one ack discipline. The
//! unit on the wire is the **run** — a committee step: what its
//! postings share (committee, phase, metered size, message payload) is
//! sent once, followed by one `u32` per posting member — and both
//! client entry points feed the same encoder: `post_run` hands it runs,
//! `post_stream` folds consecutive records whose shared part encodes to
//! the same bytes into runs. A client streams
//! a **window** of up to `PIPELINE_WINDOW` (32) `PostPipe` frames
//! back-to-back (coalesced into large socket writes) and then sends
//! one `PostSync`, which the server answers with `RESP_OK_N` carrying
//! the count of frames appended since the previous sync. The client
//! checks that count against what it sent, so a flush returns only
//! after every one of its frames is sequenced. If a frame fails, the
//! server replies `RESP_ERR` naming the offending frame's index within
//! the unacknowledged run and **closes the connection**, so no later
//! buffered frame can append after a hole (silent transcript
//! divergence is impossible). It shuts its write half first and drains
//! the client's unread input, so the close reaches the client as the
//! error frame and then EOF, never as a reset.
//!
//! # Sequencing = determinism
//!
//! The server appends each post frame **atomically** in frame-arrival
//! order, tagging records with the current round — the same
//! total-order contract as the in-process backend's single write lock,
//! because the server's log **is** an in-process backend: an
//! [`InProcessTransport`] whose messages are opaque payload bytes. A
//! driver posting from one logical thread (the engine's coordinator,
//! which already serializes the parallel workers' buffers in item
//! order) therefore produces a byte-identical posting log over TCP and
//! in-process; the transport-parity suite in `yoso-core` asserts
//! exactly that. Message payloads cross the wire via the deterministic
//! [`WireMessage`] codec, never a `Debug` format. `GetPhases` answers
//! from that same log's run fold, so a client's per-phase table costs
//! one round trip, not a read of the whole history.
//!
//! A logical batch whose encoding exceeds [`TcpOptions::max_post_frame_bytes`]
//! is split client-side into several consecutive post frames sent
//! back-to-back on the one connection (the lock is held across all
//! chunks) — between runs, or inside a run at a member boundary, the
//! next frame repeating the run's shared part — so arbitrarily large
//! buffer flushes stay under the server's frame cap without
//! reordering; each frame is still appended atomically, but
//! whole-batch atomicity is relaxed to per-frame for oversized batches.
//!
//! The server validates a whole frame before it appends any of it,
//! then appends its runs as they came: each run's payload is copied
//! once and its members are stored as index spans, so the server's
//! log, like the in-process one, grows with runs and spans, not with
//! postings — a committee step posted in halves by two workers is one
//! run and one span. The server never decodes a payload, so one
//! `board-server` binary serves any protocol. Clients retry connects
//! (the server may still be starting) and idempotent reads; posts and
//! round advances are never retried blindly, so a hard failure
//! surfaces as [`BoardError::Io`] instead of a duplicated posting.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
// lint:allow(determinism): `Duration` is used only for socket
// timeouts and retry backoff — no wall-clock value is ever read or
// enters the posting log, so the transcript stays time-independent.
use std::time::Duration;

use parking_lot::Mutex;

use crate::board::Posting;
use crate::frame::{
    append_frame, flush_wire, io_err, op, read_frame_into, write_frame, FrameRead, FrameReader,
    MAX_FRAME,
};
use crate::metrics::PhaseStats;
use crate::role::RoleId;
use crate::transport::{
    put_bytes, put_str, put_u32, put_u64, BoardError, BoardTransport, InProcessTransport,
    PostRecord, PostRun, Speakers, WireCursor, WireMessage,
};

/// Post frames kept in flight between `PostSync` barriers: a flush
/// streams this many `PostPipe` frames before blocking on one
/// coalesced ack.
const PIPELINE_WINDOW: u64 = 32;

/// Outbound coalescing threshold for pipelined post frames: staged
/// frames are flushed to the socket once this many bytes accumulate
/// (or at a sync point), so many small frames share one `write`.
const WIRE_COALESCE_BYTES: usize = 128 * 1024;

/// A run's message as the server stores it: the run's payload bytes,
/// copied out of the frame once per run and never decoded, so one
/// `board-server` binary serves any protocol.
type Payload = Arc<[u8]>;

fn encode_posting(out: &mut Vec<u8>, p: &Posting<Payload>) -> Result<(), BoardError> {
    put_u64(out, p.round);
    put_str(out, &p.from.committee)?;
    put_u64(out, p.from.index as u64);
    put_str(out, &p.phase)?;
    put_u64(out, p.elements);
    put_u64(out, p.bytes);
    put_bytes(out, &p.message)
}

/// Rebuilds a `RESP_ERR` body carrying `msg` in a reusable buffer.
fn write_err(out: &mut Vec<u8>, msg: &str) {
    out.clear();
    out.push(op::RESP_ERR);
    if put_str(out, msg).is_err() {
        // An error string over u32::MAX bytes cannot occur in practice;
        // keep the frame well-formed if it somehow does.
        out.truncate(1);
        let _ = put_str(out, "error message too large");
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// One run of a post frame, decoded but not yet appended.
struct DecodedRun<'a> {
    committee: Arc<str>,
    phase: &'a str,
    elements: u64,
    bytes: u64,
    payload: Payload,
    members: Speakers,
}

/// Per-connection server state: the reusable response buffer, the
/// pipelined-frame ack counter and the last committee label. Nothing
/// here is shared — each connection handler owns one.
#[derive(Debug, Default)]
struct Conn {
    resp: Vec<u8>,
    /// `PostPipe` frames appended since the last `PostSync`.
    pending: u64,
    /// The committee label of the last run decoded: frames repeat a
    /// committee for many runs, so it is allocated once per change.
    committee: Option<Arc<str>>,
}

/// What the connection loop should do with the dispatch result.
enum Action {
    /// Send `conn.resp` and keep serving.
    Reply,
    /// Nothing to send (a pipelined post frame).
    NoReply,
    /// Send `conn.resp`, then close the connection.
    ReplyClose,
    /// Send `conn.resp`, then set the shutdown flag (the ack must be
    /// on the wire before the accept loop starts tearing sockets down).
    ReplyShutdown,
}

/// Server wire/throughput counters, served by `GetStats`.
#[derive(Debug, Default)]
struct ServerStats {
    frames: AtomicU64,
    post_frames: AtomicU64,
    postings: AtomicU64,
    payload_bytes: AtomicU64,
    sync_acks: AtomicU64,
    acked_frames: AtomicU64,
    max_window: AtomicU64,
    reads: AtomicU64,
}

impl ServerStats {
    fn note_window(&self, pending: u64) {
        self.max_window.fetch_max(pending, Ordering::Relaxed);
    }
}

/// A snapshot of the server's wire counters (`GetStats`), decoded
/// client-side. All counters are since server start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerWireStats {
    /// Request frames received, all opcodes.
    pub frames: u64,
    /// `PostPipe` frames received.
    pub post_frames: u64,
    /// Postings appended.
    pub postings: u64,
    /// Payload bytes received: one message encoding per run, without
    /// headers or member indices.
    pub payload_bytes: u64,
    /// `PostSync` round trips answered (coalesced acks sent).
    pub sync_acks: u64,
    /// Pipelined frames acknowledged through coalesced acks.
    pub acked_frames: u64,
    /// Largest run of unacknowledged pipelined frames any connection
    /// reached (the effective client window).
    pub max_window: u64,
    /// Posting reads served (`ReadRound` + `ReadFrom`).
    pub reads: u64,
}

/// State shared between the accept loop and connection handlers.
#[derive(Debug)]
struct ServerShared {
    log: InProcessTransport<Payload>,
    shutdown: AtomicBool,
    /// Registered connections (clone of each accepted stream), used to
    /// wake handlers parked in blocking reads when the server stops.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
    stats: ServerStats,
    /// Largest read response served: [`MAX_FRAME`], lower only in
    /// tests.
    response_cap: usize,
}

impl ServerShared {
    fn new(response_cap: usize) -> Self {
        ServerShared {
            log: InProcessTransport::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::default(),
            next_conn: AtomicU64::new(0),
            stats: ServerStats::default(),
            response_cap,
        }
    }

    /// Handles one decoded request body. The response (if any) is left
    /// in `conn.resp`; the returned [`Action`] tells the connection
    /// loop whether to send it and whether to keep the connection.
    fn dispatch(&self, conn: &mut Conn, body: &[u8]) -> Action {
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        let Some(&opcode) = body.first() else {
            write_err(&mut conn.resp, "empty request frame");
            return Action::ReplyClose;
        };
        // A run of unacknowledged pipelined frames may only continue or
        // sync: anything else indicates a desynced client, and serving
        // it could interleave reads with half-acknowledged appends.
        if conn.pending > 0 && !matches!(opcode, op::POST_PIPE | op::POST_SYNC) {
            write_err(
                &mut conn.resp,
                &format!(
                    "request opcode {opcode:#x} while {} pipelined frames are unacknowledged",
                    conn.pending
                ),
            );
            return Action::ReplyClose;
        }
        match opcode {
            op::POST_PIPE => match self.append_post_frame(conn, body) {
                Ok(()) => {
                    conn.pending += 1;
                    self.stats.note_window(conn.pending);
                    Action::NoReply
                }
                // Name the offending frame's index within the unacked
                // run, then close: later frames are already buffered on
                // the socket, and appending any of them after a failed
                // frame would silently fork the transcript.
                Err(e) => {
                    write_err(
                        &mut conn.resp,
                        &format!("pipelined frame {} rejected: {e}", conn.pending),
                    );
                    Action::ReplyClose
                }
            },
            op::POST_SYNC => {
                let acked = conn.pending;
                conn.pending = 0;
                self.stats.sync_acks.fetch_add(1, Ordering::Relaxed);
                self.stats.acked_frames.fetch_add(acked, Ordering::Relaxed);
                conn.resp.clear();
                conn.resp.push(op::RESP_OK_N);
                put_u64(&mut conn.resp, acked);
                Action::Reply
            }
            op::ADVANCE_ROUND => self.value_reply(conn, self.log.advance_round()),
            op::GET_ROUND => self.value_reply(conn, self.log.round()),
            op::GET_LEN => self.value_reply(conn, self.log.len().map(|n| n as u64)),
            op::READ_ROUND | op::READ_FROM => {
                self.stats.reads.fetch_add(1, Ordering::Relaxed);
                let encoded = self.encode_read(&mut conn.resp, body);
                if let Err(e) = encoded.and_then(|()| self.check_response_size(conn)) {
                    write_err(&mut conn.resp, &e.to_string());
                }
                Action::Reply
            }
            op::GET_STATS => {
                let s = &self.stats;
                let fields = [
                    s.frames.load(Ordering::Relaxed),
                    s.post_frames.load(Ordering::Relaxed),
                    s.postings.load(Ordering::Relaxed),
                    s.payload_bytes.load(Ordering::Relaxed),
                    s.sync_acks.load(Ordering::Relaxed),
                    s.acked_frames.load(Ordering::Relaxed),
                    s.max_window.load(Ordering::Relaxed),
                    s.reads.load(Ordering::Relaxed),
                ];
                conn.resp.clear();
                conn.resp.push(op::RESP_STATS);
                put_u32(&mut conn.resp, fields.len() as u32);
                for f in fields {
                    put_u64(&mut conn.resp, f);
                }
                Action::Reply
            }
            op::GET_PHASES => {
                if let Err(e) = self.encode_phases(&mut conn.resp, body) {
                    write_err(&mut conn.resp, &e.to_string());
                }
                Action::Reply
            }
            op::SHUTDOWN => {
                conn.resp.clear();
                conn.resp.push(op::RESP_OK);
                Action::ReplyShutdown
            }
            other => {
                write_err(&mut conn.resp, &format!("unknown opcode {other:#x}"));
                Action::Reply
            }
        }
    }

    /// Encodes the answer to a `GetPhases` — the log's per-phase table
    /// — into `resp`. The request is the opcode alone.
    fn encode_phases(&self, resp: &mut Vec<u8>, body: &[u8]) -> Result<(), BoardError> {
        if body.len() > 1 {
            return Err(BoardError::Protocol(format!(
                "GetPhases (opcode {:#x}) takes no body, got {} trailing bytes",
                op::GET_PHASES,
                body.len() - 1
            )));
        }
        let phases = self.log.phases()?;
        resp.clear();
        resp.push(op::RESP_PHASES);
        put_u32(resp, phases.len() as u32);
        for (phase, s) in &phases {
            put_str(resp, phase)?;
            put_u64(resp, s.elements);
            put_u64(resp, s.bytes);
            put_u64(resp, s.messages);
        }
        Ok(())
    }

    fn value_reply(&self, conn: &mut Conn, v: Result<u64, BoardError>) -> Action {
        match v {
            Ok(v) => {
                conn.resp.clear();
                conn.resp.push(op::RESP_VALUE);
                put_u64(&mut conn.resp, v);
            }
            Err(e) => write_err(&mut conn.resp, &e.to_string()),
        }
        Action::Reply
    }

    /// Validates and appends one `PostPipe` frame. The whole frame is
    /// decoded **before** the log is touched — a malformed run rejects
    /// the frame without appending a prefix of it, and a member count
    /// is checked against the bytes actually present before anything is
    /// sized by it — then all of its runs are appended in one
    /// [`BoardTransport::post_run`] call, atomically. Each run's payload
    /// is copied once and its members become [`Speakers`] spans.
    fn append_post_frame(&self, conn: &mut Conn, body: &[u8]) -> Result<(), BoardError> {
        let mut cur = WireCursor::new(body);
        let _opcode = cur.u8()?;
        let run_count = cur.u32()?;
        let mut decoded = Vec::new();
        for _ in 0..run_count {
            let committee = intern_cached(&mut conn.committee, cur.str()?);
            let phase = cur.str()?;
            let elements = cur.u64()?;
            let bytes = cur.u64()?;
            let payload = Payload::from(cur.bytes()?);
            // Checked against the bytes present, so a lying count
            // fails here before it sizes anything.
            let member_count = cur.u32()? as usize;
            let members = cur
                .take(member_count.saturating_mul(4))?
                .chunks_exact(4)
                .map(|i| u32::from_le_bytes([i[0], i[1], i[2], i[3]]) as usize)
                .collect();
            decoded.push(DecodedRun { committee, phase, elements, bytes, payload, members });
        }
        if cur.remaining() > 0 {
            return Err(BoardError::Protocol(format!(
                "{} trailing bytes after the frame's {run_count} runs",
                cur.remaining()
            )));
        }
        let runs: Vec<PostRun<'_, Payload>> = decoded
            .iter()
            .map(|r| PostRun {
                committee: &r.committee,
                phase: r.phase,
                message: &r.payload,
                elements: r.elements,
                bytes: r.bytes,
                members: &r.members,
            })
            .collect();
        self.log.post_run(&runs)?;
        let postings: usize = decoded.iter().map(|r| r.members.len()).sum();
        let payload_bytes: usize = decoded.iter().map(|r| r.payload.len()).sum();
        self.stats.post_frames.fetch_add(1, Ordering::Relaxed);
        self.stats.postings.fetch_add(postings as u64, Ordering::Relaxed);
        self.stats.payload_bytes.fetch_add(payload_bytes as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Refuses a read response no frame can carry. The client gets the
    /// size and the cap in a `RESP_ERR` on a connection that stays
    /// usable, where sending the frame would fail and drop it.
    fn check_response_size(&self, conn: &mut Conn) -> Result<(), BoardError> {
        let len = conn.resp.len();
        if len <= self.response_cap {
            return Ok(());
        }
        conn.resp = Vec::new(); // do not keep the oversized buffer for the connection's life
        Err(BoardError::Protocol(format!(
            "read response of {len} bytes exceeds the {}-byte frame cap; \
             read by round or from a later cursor",
            self.response_cap
        )))
    }

    /// Encodes the answer to a `ReadRound` (that round's postings) or
    /// a `ReadFrom` (every posting from the cursor on) into `resp`.
    fn encode_read(&self, resp: &mut Vec<u8>, body: &[u8]) -> Result<(), BoardError> {
        let mut cur = WireCursor::new(body);
        let opcode = cur.u8()?;
        let at = cur.u64()?;
        resp.clear();
        resp.push(op::RESP_POSTINGS);
        put_u32(resp, 0); // patched below
        let (mut n, mut encoded) = (0u64, Ok(()));
        let mut encode = |p: &Posting<Payload>| {
            n += 1;
            if encoded.is_ok() {
                encoded = encode_posting(resp, p);
            }
        };
        if opcode == op::READ_ROUND {
            self.log.for_each_in_round(at, &mut encode)?;
        } else {
            self.log.visit_from(usize::try_from(at).unwrap_or(usize::MAX), &mut encode);
        }
        encoded?;
        let count = u32::try_from(n)
            .map_err(|_| BoardError::Protocol(format!("{n} postings exceed the u32 count prefix")))?;
        resp[1..5].copy_from_slice(&count.to_le_bytes());
        Ok(())
    }
}

fn handle_connection(shared: &ServerShared, mut stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    // The reader owns the socket's read-timeout policy: short idle
    // polls right after traffic (fast shutdown notice), escalating to
    // the ~200ms cap, then a parked blocking read — an idle fleet
    // burns no wakeups, and the accept loop wakes parked handlers via
    // the connection registry when the server stops.
    let mut reader = FrameReader::new();
    let mut conn = Conn::default();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.next_frame(&mut stream) {
            Ok(FrameRead::Frame(body)) => match shared.dispatch(&mut conn, body) {
                Action::Reply => {
                    if write_frame(&mut stream, &conn.resp).is_err() {
                        break;
                    }
                }
                Action::NoReply => {}
                Action::ReplyClose => {
                    let _ = write_frame(&mut stream, &conn.resp);
                    close_draining(&mut stream);
                    break;
                }
                Action::ReplyShutdown => {
                    // Ack first, then raise the flag: the accept loop
                    // tears sockets down once it sees the flag, and the
                    // requester must get its ok before that.
                    let _ = write_frame(&mut stream, &conn.resp);
                    shared.shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            },
            Ok(FrameRead::Idle) => continue, // re-check the shutdown flag
            Ok(FrameRead::Closed) => break,  // clean disconnect
            Err(e) => {
                // Framing violation or hard I/O error: the stream
                // position is no longer trustworthy, so the connection
                // must close — but name the cause first, so the
                // client's non-retried post surfaces the violation
                // instead of a generic "server closed the connection".
                write_err(&mut conn.resp, &e.to_string());
                let _ = write_frame(&mut stream, &conn.resp);
                close_draining(&mut stream);
                break;
            }
        }
    }
    shared.conns.lock().retain(|(id, _)| *id != conn_id);
}

/// Quiet period that ends a drain: a read waits this long for more
/// input before the socket is dropped.
const DRAIN_TICK: Duration = Duration::from_millis(50);

/// Reads a drain makes at most: each waits at most one tick, so a
/// drain ends within 3.2 s.
const DRAIN_READS: usize = 64;

/// Bytes one drain read takes at most, so a drain drops at most 16 MiB.
const DRAIN_CHUNK: usize = 256 * 1024;

/// Closes a connection the server gives up on, after the error frame
/// was written. Closing a socket with unread input makes the kernel
/// send a reset, which can destroy the error frame before the client
/// reads it; so the write half is shut first (the client sees the
/// error, then EOF), and input already on its way is read and dropped
/// until the client closes, a quiet tick passes or the budget is spent.
fn close_draining(stream: &mut TcpStream) {
    if stream.shutdown(std::net::Shutdown::Write).is_err()
        || stream.set_read_timeout(Some(DRAIN_TICK)).is_err()
    {
        return;
    }
    let mut sink = vec![0u8; DRAIN_CHUNK];
    for _ in 0..DRAIN_READS {
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

/// A board server bound to a TCP address, serving any number of
/// clients until shut down (via the wire opcode or [`ServerHandle`]).
#[derive(Debug)]
pub struct BoardServer {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl BoardServer {
    /// Binds the server socket (not yet accepting).
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Io`] if binding fails.
    pub fn bind(addr: SocketAddr) -> Result<Self, BoardError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err("bind", &e))?;
        listener.set_nonblocking(true).map_err(|e| io_err("set_nonblocking", &e))?;
        Ok(BoardServer { listener, shared: Arc::new(ServerShared::new(MAX_FRAME)) })
    }

    /// Lowers the read-response cap so a test can exceed it with a
    /// small log.
    #[cfg(test)]
    fn with_response_cap(self, response_cap: usize) -> Self {
        BoardServer { listener: self.listener, shared: Arc::new(ServerShared::new(response_cap)) }
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Io`] if the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr, BoardError> {
        self.listener.local_addr().map_err(|e| io_err("local_addr", &e))
    }

    /// Serves connections on the calling thread until a `Shutdown`
    /// frame arrives (or the process is killed).
    pub fn serve(self) {
        accept_loop(&self.listener, &self.shared);
    }

    /// Serves connections on a background thread; the returned handle
    /// stops the server when shut down or dropped.
    pub fn spawn(self) -> Result<ServerHandle, BoardError> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name("board-server".into())
            .spawn(move || self.serve())
            .map_err(|e| io_err("spawn server thread", &e))?;
        Ok(ServerHandle { addr, shared, thread: Some(thread) })
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut idle_sleep = Duration::from_millis(1);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                idle_sleep = Duration::from_millis(1);
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().push((conn_id, clone));
                }
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("board-conn".into())
                    .spawn(move || handle_connection(&shared, stream, conn_id));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(idle_sleep);
                idle_sleep = (idle_sleep * 2).min(Duration::from_millis(64));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Wake every parked connection handler: their blocking reads
    // return immediately once the socket is shut down, they observe
    // the flag and exit. Without this an idle connection could sit in
    // a parked read forever.
    for (_, s) in shared.conns.lock().iter() {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}

/// Handle to a background [`BoardServer`]; shuts the server down when
/// dropped.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Connection
    /// handlers are woken from parked reads via the connection
    /// registry; polling handlers notice the flag within their tick.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Client-side knobs: connect retry budget, I/O timeouts and frame
/// chunking.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Connection attempts before giving up (the server may still be
    /// starting when the committee process launches).
    pub connect_attempts: u32,
    /// Delay between connection attempts.
    pub retry_delay: Duration,
    /// Read/write timeout on the established stream.
    pub io_timeout: Duration,
    /// Extra attempts (with reconnect) for idempotent reads. Posts and
    /// round advances are never retried: a retry after a partially
    /// processed frame could duplicate a posting.
    pub read_retries: u32,
    /// Soft cap on one post frame body. A logical batch larger than
    /// this (a full parallel buffer flush can exceed the server's
    /// 64MB frame cap) is split into multiple frames, sent back-to-back
    /// on the single connection — see [`TcpTransport::post_stream`] for
    /// the atomicity contract. Clamped to the 64MiB frame cap.
    pub max_post_frame_bytes: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            connect_attempts: 50,
            retry_delay: Duration::from_millis(40),
            io_timeout: Duration::from_secs(10),
            read_retries: 3,
            max_post_frame_bytes: MAX_FRAME / 2,
        }
    }
}

/// Client-side wire counters (per transport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// `PostPipe` frames sent, i.e. how many chunks flushes were
    /// split into.
    pub post_frames: u64,
    /// `PostSync` round trips awaited.
    pub sync_round_trips: u64,
}

/// Reusable per-connection client buffers, all living under the one
/// connection lock: the steady state of a posting loop allocates
/// nothing.
#[derive(Debug, Default)]
struct ClientConn {
    stream: Option<TcpStream>,
    /// Outbound coalescing buffer for pipelined frames.
    wire: Vec<u8>,
    /// The post frame body under construction.
    body: Vec<u8>,
    /// The encoding of what one run's postings share.
    shared: Vec<u8>,
    /// One message's payload encoding.
    payload: Vec<u8>,
    /// The last response frame body.
    resp: Vec<u8>,
}

/// A [`BoardTransport`] over one TCP connection to a `board-server`.
///
/// All requests are serialized on the single connection (one mutex),
/// which is exactly the ordering the determinism argument needs: the
/// posting order the server sees is the order this process issued.
#[derive(Debug)]
pub struct TcpTransport<M> {
    addr: SocketAddr,
    /// Backend label: `"loopback-tcp"` when `addr` is a loopback
    /// address, `"tcp"` for a genuinely remote server — diagnostics and
    /// bench tables should name the actual deployment shape.
    label: &'static str,
    opts: TcpOptions,
    conn: Mutex<ClientConn>,
    sent_post_frames: AtomicU64,
    sent_syncs: AtomicU64,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M> TcpTransport<M> {
    /// Connects to `addr`, retrying per `opts` while the server comes
    /// up.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Io`] if every attempt fails.
    pub fn connect(addr: SocketAddr, opts: TcpOptions) -> Result<Self, BoardError> {
        let stream = connect_with_retry(addr, &opts)?;
        let label = if addr.ip().is_loopback() { "loopback-tcp" } else { "tcp" };
        Ok(TcpTransport {
            addr,
            label,
            opts,
            conn: Mutex::new(ClientConn { stream: Some(stream), ..ClientConn::default() }),
            sent_post_frames: AtomicU64::new(0),
            sent_syncs: AtomicU64::new(0),
            _marker: std::marker::PhantomData,
        })
    }

    /// The server address this transport talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The options this transport was connected with.
    pub fn options(&self) -> &TcpOptions {
        &self.opts
    }

    /// Snapshot of this transport's wire counters.
    pub fn wire_stats(&self) -> WireStats {
        WireStats {
            post_frames: self.sent_post_frames.load(Ordering::Relaxed),
            sync_round_trips: self.sent_syncs.load(Ordering::Relaxed),
        }
    }

    /// Fetches the server's wire/throughput counters (`GetStats`).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reaching the server.
    pub fn server_stats(&self) -> Result<ServerWireStats, BoardError> {
        let mut g = self.conn.lock();
        let c = &mut *g;
        request(self.addr, &self.opts, &mut c.stream, &mut c.resp, &[op::GET_STATS], true)?;
        expect_stats(&c.resp)
    }

    /// Asks the server to shut down (used by tests and single-owner
    /// deployments; multi-client deployments usually just kill the
    /// server process).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reaching the server.
    pub fn shutdown_server(&self) -> Result<(), BoardError> {
        let mut g = self.conn.lock();
        let c = &mut *g;
        request(self.addr, &self.opts, &mut c.stream, &mut c.resp, &[op::SHUTDOWN], false)?;
        if c.resp.first() != Some(&op::RESP_OK) {
            return Err(BoardError::Protocol("expected ok response to shutdown".into()));
        }
        Ok(())
    }
}

fn connect_with_retry(addr: SocketAddr, opts: &TcpOptions) -> Result<TcpStream, BoardError> {
    let mut last = None;
    for attempt in 0..opts.connect_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(opts.retry_delay);
        }
        match TcpStream::connect_timeout(&addr, opts.io_timeout) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(opts.io_timeout));
                let _ = stream.set_write_timeout(Some(opts.io_timeout));
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(BoardError::Io(format!(
        "could not connect to board server at {addr} after {} attempts: {}",
        opts.connect_attempts.max(1),
        last.map(|e| e.to_string()).unwrap_or_else(|| "no error".into())
    )))
}

/// Sends `body` and reads the response into `resp`. `idempotent`
/// requests are retried with a fresh connection on I/O failure; posts
/// and round advances are not (a blind retry could double-append).
fn request(
    addr: SocketAddr,
    opts: &TcpOptions,
    slot: &mut Option<TcpStream>,
    resp: &mut Vec<u8>,
    body: &[u8],
    idempotent: bool,
) -> Result<(), BoardError> {
    let attempts = 1 + if idempotent { opts.read_retries } else { 0 };
    let mut last_err = BoardError::Io("no attempt made".into());
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(opts.retry_delay);
        }
        if slot.is_none() {
            match connect_with_retry(addr, opts) {
                Ok(s) => *slot = Some(s),
                Err(e) => {
                    last_err = e;
                    continue;
                }
            }
        }
        let Some(stream) = slot.as_mut() else { continue };
        let result = write_frame(stream, body).and_then(|()| read_frame_into(stream, resp));
        match result {
            Ok(true) => return check_response(resp),
            Ok(false) => {
                last_err = BoardError::Io("server closed the connection".into());
                *slot = None;
            }
            Err(e) => {
                last_err = e;
                *slot = None;
            }
        }
    }
    Err(last_err)
}

/// Surfaces server-side errors carried in a response body as
/// [`BoardError::Protocol`].
fn check_response(resp: &[u8]) -> Result<(), BoardError> {
    match resp.first() {
        None => Err(BoardError::Protocol("empty response frame".into())),
        Some(&op::RESP_ERR) => {
            let mut cur = WireCursor::new(&resp[1..]);
            Err(BoardError::Protocol(format!("server error: {}", cur.str()?)))
        }
        Some(_) => Ok(()),
    }
}

fn expect_value(resp: &[u8]) -> Result<u64, BoardError> {
    let mut cur = WireCursor::new(resp);
    if cur.u8()? != op::RESP_VALUE {
        return Err(BoardError::Protocol("expected value response".into()));
    }
    cur.u64()
}

fn expect_stats(resp: &[u8]) -> Result<ServerWireStats, BoardError> {
    let mut cur = WireCursor::new(resp);
    if cur.u8()? != op::RESP_STATS {
        return Err(BoardError::Protocol("expected stats response".into()));
    }
    let count = cur.u32()? as usize;
    let mut fields = [0u64; 8];
    for i in 0..count {
        let v = cur.u64()?;
        if let Some(slot) = fields.get_mut(i) {
            *slot = v; // unknown trailing fields from newer servers are ignored
        }
    }
    Ok(ServerWireStats {
        frames: fields[0],
        post_frames: fields[1],
        postings: fields[2],
        payload_bytes: fields[3],
        sync_acks: fields[4],
        acked_frames: fields[5],
        max_window: fields[6],
        reads: fields[7],
    })
}

fn expect_phases(resp: &[u8]) -> Result<Vec<(String, PhaseStats)>, BoardError> {
    let mut cur = WireCursor::new(resp);
    if cur.u8()? != op::RESP_PHASES {
        return Err(BoardError::Protocol("expected phases response".into()));
    }
    (0..cur.u32()?)
        .map(|_| {
            let phase = cur.str()?.to_string();
            Ok((phase, PhaseStats { elements: cur.u64()?, bytes: cur.u64()?, messages: cur.u64()? }))
        })
        .collect()
}

fn expect_postings<M: WireMessage>(resp: &[u8]) -> Result<Vec<Posting<M>>, BoardError> {
    let mut cur = WireCursor::new(resp);
    if cur.u8()? != op::RESP_POSTINGS {
        return Err(BoardError::Protocol("expected postings response".into()));
    }
    let count = cur.u32()? as usize;
    let mut out = Vec::with_capacity(count);
    // Consecutive postings overwhelmingly repeat the same committee
    // and phase labels; reuse the previous `Arc` instead of allocating
    // a fresh string per posting.
    let mut last_committee: Option<Arc<str>> = None;
    let mut last_phase: Option<Arc<str>> = None;
    for _ in 0..count {
        let round = cur.u64()?;
        let committee = intern_cached(&mut last_committee, cur.str()?);
        let index = cur.u64()? as usize;
        let phase = intern_cached(&mut last_phase, cur.str()?);
        let elements = cur.u64()?;
        let bytes = cur.u64()?;
        let payload = cur.bytes()?;
        let mut pc = WireCursor::new(payload);
        let message = M::decode(&mut pc)?;
        out.push(Posting { round, from: RoleId { committee, index }, phase, message, elements, bytes });
    }
    Ok(out)
}

fn intern_cached(last: &mut Option<Arc<str>>, s: &str) -> Arc<str> {
    match last {
        Some(a) if &**a == s => Arc::clone(a),
        _ => {
            let a: Arc<str> = Arc::from(s);
            *last = Some(Arc::clone(&a));
            a
        }
    }
}

/// Encodes what the postings of one run share — committee, phase,
/// metered size, message payload — into `shared`, using `payload` as
/// the message-encoding scratch. Two postings belong to one run exactly
/// when these bytes are equal.
fn encode_shared<M: WireMessage>(
    shared: &mut Vec<u8>,
    payload: &mut Vec<u8>,
    committee: &str,
    phase: &str,
    elements: u64,
    bytes: u64,
    message: &M,
) -> Result<(), BoardError> {
    shared.clear();
    put_str(shared, committee)?;
    put_str(shared, phase)?;
    put_u64(shared, elements);
    put_u64(shared, bytes);
    payload.clear();
    message.encode(payload)?;
    put_bytes(shared, payload)
}

/// Bytes of a `PostPipe` body before its first run: opcode and run
/// count.
const FRAME_PREFIX: usize = 5;

/// The posting encoder of one flush: packs members into runs, runs
/// into `PostPipe` frames and frames into acknowledged windows, without
/// waiting for any response between syncs.
struct RunFrames<'a> {
    stream: &'a mut TcpStream,
    /// Outbound coalescing buffer: staged frames not yet written.
    wire: &'a mut Vec<u8>,
    /// The frame under construction.
    body: &'a mut Vec<u8>,
    resp: &'a mut Vec<u8>,
    chunk_cap: usize,
    /// The run still taking members: where its shared part starts in
    /// `body`, and where its member count (patched on close) follows.
    open: Option<(usize, usize)>,
    /// Runs in the frame under construction. A run is opened only for
    /// a member about to be written, so a counted run is never empty.
    runs: u32,
    /// Frames staged since the last sync.
    inflight: u64,
    sent_post_frames: &'a AtomicU64,
    sent_syncs: &'a AtomicU64,
}

impl RunFrames<'_> {
    /// Appends postings by `members`, in order, all sharing `shared`
    /// (see [`encode_shared`]): they extend the open run when its
    /// shared part is byte-equal, else they open the next run. A frame
    /// that reaches the chunk cap is staged and the run goes on in the
    /// next one, so a long run splits at a member boundary.
    fn push(
        &mut self,
        shared: &[u8],
        members: impl IntoIterator<Item = usize>,
    ) -> Result<(), BoardError> {
        let mut rest = members.into_iter().peekable();
        while rest.peek().is_some() {
            let mut continues =
                self.open.is_some_and(|(at, count_at)| self.body[at..count_at] == *shared);
            // What the next member takes: its index, preceded by a
            // shared part and a count unless the open run goes on.
            let need = if continues { 4 } else { shared.len() + 8 };
            if self.runs > 0 && self.body.len() + need > self.chunk_cap {
                self.stage_frame()?;
                if self.inflight >= PIPELINE_WINDOW {
                    self.sync()?;
                }
                continues = false;
            }
            if !continues {
                if FRAME_PREFIX + shared.len() + 8 > MAX_FRAME {
                    return Err(BoardError::Protocol(format!(
                        "single posting of {} encoded bytes exceeds the {MAX_FRAME}-byte frame cap",
                        shared.len()
                    )));
                }
                self.close_run();
                let at = self.body.len();
                self.body.extend_from_slice(shared);
                self.open = Some((at, self.body.len()));
                put_u32(self.body, 0);
                self.runs += 1;
            }
            // As many members as the frame has room for — at least
            // one, so a cap below one run's size still makes progress.
            let room = (self.chunk_cap.saturating_sub(self.body.len()) / 4).max(1);
            for index in rest.by_ref().take(room) {
                let index = u32::try_from(index).map_err(|_| {
                    BoardError::Protocol(format!(
                        "member index {index} exceeds the u32 wire index"
                    ))
                })?;
                put_u32(self.body, index);
            }
        }
        Ok(())
    }

    /// Writes the open run's member count, now that it is final.
    fn close_run(&mut self) {
        if let Some((_, count_at)) = self.open.take() {
            let count = ((self.body.len() - count_at - 4) / 4) as u32;
            self.body[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        }
    }

    /// Stages the frame under construction into the outbound
    /// coalescing buffer (flushing it to the socket past the
    /// coalescing threshold) and starts an empty one.
    fn stage_frame(&mut self) -> Result<(), BoardError> {
        self.close_run();
        self.body[1..FRAME_PREFIX].copy_from_slice(&self.runs.to_le_bytes());
        append_frame(self.wire, self.body)?;
        self.body.truncate(FRAME_PREFIX);
        self.runs = 0;
        self.inflight += 1;
        self.sent_post_frames.fetch_add(1, Ordering::Relaxed);
        if self.wire.len() >= WIRE_COALESCE_BYTES {
            flush_wire(self.stream, self.wire)?;
        }
        Ok(())
    }

    /// One `PostSync` round trip acknowledging every frame in flight.
    fn sync(&mut self) -> Result<(), BoardError> {
        pipeline_sync(self.stream, self.wire, self.resp, self.inflight)?;
        self.sent_syncs.fetch_add(1, Ordering::Relaxed);
        self.inflight = 0;
        Ok(())
    }

    /// Stages what is left and awaits the terminal barrier: the
    /// flush's contract is "returned ⇒ sequenced".
    fn finish(mut self) -> Result<(), BoardError> {
        if self.runs > 0 {
            self.stage_frame()?;
        }
        self.sync()
    }
}

/// Emits a `PostSync` barrier and blocks until the server's coalesced
/// ack arrives; `expected` is how many frames were staged since the
/// previous sync, and a mismatch (or a server `RESP_ERR` naming the
/// offending frame) fails the flush.
fn pipeline_sync(
    stream: &mut TcpStream,
    wire: &mut Vec<u8>,
    resp: &mut Vec<u8>,
    expected: u64,
) -> Result<(), BoardError> {
    append_frame(wire, &[op::POST_SYNC])?;
    flush_wire(stream, wire)?;
    if !read_frame_into(stream, resp)? {
        return Err(BoardError::Io(
            "server closed the connection during a pipelined flush".into(),
        ));
    }
    check_response(resp)?;
    let mut cur = WireCursor::new(resp);
    if cur.u8()? != op::RESP_OK_N {
        return Err(BoardError::Protocol("expected coalesced ack to post sync".into()));
    }
    let acked = cur.u64()?;
    if acked != expected {
        return Err(BoardError::Protocol(format!(
            "server acknowledged {acked} of {expected} pipelined frames"
        )));
    }
    Ok(())
}

/// After a failed pipelined write, the server has usually already sent
/// the `RESP_ERR` naming the offending frame (and closed the
/// connection, which is what broke the write). Drain it so the flush
/// fails with the named cause rather than a bare broken pipe.
fn surface_pipeline_error(stream: &mut TcpStream, resp: &mut Vec<u8>, orig: BoardError) -> BoardError {
    if matches!(orig, BoardError::Io(_)) {
        if let Ok(true) = read_frame_into(stream, resp) {
            if let Err(named) = check_response(resp) {
                return named;
            }
        }
    }
    orig
}

impl<M: WireMessage + Clone + Send + Sync> TcpTransport<M> {
    /// One flush: `feed` pushes postings into the encoder (it gets the
    /// two encoding scratch buffers too), which streams `PostPipe`
    /// frames, syncing every [`PIPELINE_WINDOW`] frames and once at the
    /// end, so the call returns only after the server sequenced
    /// everything — and any failure surfaces in **this** flush, never a
    /// later call.
    ///
    /// A flush whose encoding would exceed `max_post_frame_bytes` is
    /// split across several frames (the server's 64MB frame cap would
    /// otherwise reject a large parallel buffer flush). The connection
    /// lock is held across all of them, so they land contiguously in
    /// the server's arrival order; each frame is appended atomically,
    /// and a failure between frames can leave a prefix of the flush
    /// posted — the same "no blind retry" contract as a single lost
    /// post.
    fn flush_posts<R>(
        &self,
        feed: impl FnOnce(&mut RunFrames<'_>, &mut Vec<u8>, &mut Vec<u8>) -> Result<R, BoardError>,
    ) -> Result<R, BoardError> {
        let mut guard = self.conn.lock();
        let c = &mut *guard;
        let mut stream = match c.stream.take() {
            Some(s) => s,
            None => connect_with_retry(self.addr, &self.opts)?,
        };
        c.body.clear();
        c.body.extend_from_slice(&[op::POST_PIPE, 0, 0, 0, 0]);
        c.wire.clear();
        let mut frames = RunFrames {
            stream: &mut stream,
            wire: &mut c.wire,
            body: &mut c.body,
            resp: &mut c.resp,
            chunk_cap: self.opts.max_post_frame_bytes.min(MAX_FRAME),
            open: None,
            runs: 0,
            inflight: 0,
            sent_post_frames: &self.sent_post_frames,
            sent_syncs: &self.sent_syncs,
        };
        let result = feed(&mut frames, &mut c.shared, &mut c.payload)
            .and_then(|out| frames.finish().map(|()| out));
        match result {
            Ok(out) => {
                c.stream = Some(stream);
                Ok(out)
            }
            // The connection is not reusable after a failed flush (the
            // server closes it on pipelined errors; on client-side
            // failures its position is unknown) — drop it so the next
            // operation reconnects.
            Err(e) => Err(surface_pipeline_error(&mut stream, &mut c.resp, e)),
        }
    }
}

impl<M: WireMessage + Clone + Send + Sync> BoardTransport<M> for TcpTransport<M> {
    fn post_batch(&self, records: Vec<PostRecord<M>>) -> Result<(), BoardError> {
        self.post_stream(&mut records.into_iter()).map(|_| ())
    }

    fn post_stream(
        &self,
        records: &mut dyn Iterator<Item = PostRecord<M>>,
    ) -> Result<u64, BoardError> {
        // Consecutive records whose shared part encodes to the same
        // bytes fold into one run, so records and runs share the one
        // encoder and the one frame format.
        self.flush_posts(|frames, shared, payload| {
            let mut total = 0;
            for r in records {
                let (from, phase) = (&r.from, &r.phase);
                encode_shared(shared, payload, &from.committee, phase, r.elements, r.bytes, &r.message)?;
                frames.push(shared, [from.index])?;
                total += 1;
            }
            Ok(total)
        })
    }

    fn post_run(&self, runs: &[PostRun<'_, M>]) -> Result<(), BoardError> {
        self.flush_posts(|frames, shared, payload| {
            for run in runs {
                encode_shared(
                    shared,
                    payload,
                    run.committee,
                    run.phase,
                    run.elements,
                    run.bytes,
                    run.message,
                )?;
                frames.push(shared, run.members.iter())?;
            }
            Ok(())
        })
    }

    fn advance_round(&self) -> Result<u64, BoardError> {
        let mut g = self.conn.lock();
        let c = &mut *g;
        request(self.addr, &self.opts, &mut c.stream, &mut c.resp, &[op::ADVANCE_ROUND], false)?;
        expect_value(&c.resp)
    }

    fn round(&self) -> Result<u64, BoardError> {
        let mut g = self.conn.lock();
        let c = &mut *g;
        request(self.addr, &self.opts, &mut c.stream, &mut c.resp, &[op::GET_ROUND], true)?;
        expect_value(&c.resp)
    }

    fn len(&self) -> Result<usize, BoardError> {
        let mut g = self.conn.lock();
        let c = &mut *g;
        request(self.addr, &self.opts, &mut c.stream, &mut c.resp, &[op::GET_LEN], true)?;
        Ok(expect_value(&c.resp)? as usize)
    }

    fn read_round(&self, round: u64) -> Result<Vec<Posting<M>>, BoardError> {
        let mut body = vec![op::READ_ROUND];
        put_u64(&mut body, round);
        let mut g = self.conn.lock();
        let c = &mut *g;
        request(self.addr, &self.opts, &mut c.stream, &mut c.resp, &body, true)?;
        expect_postings(&c.resp)
    }

    fn read_from(&self, cursor: usize) -> Result<Vec<Posting<M>>, BoardError> {
        let mut body = vec![op::READ_FROM];
        put_u64(&mut body, cursor as u64);
        let mut g = self.conn.lock();
        let c = &mut *g;
        request(self.addr, &self.opts, &mut c.stream, &mut c.resp, &body, true)?;
        expect_postings(&c.resp)
    }

    fn phases(&self) -> Result<Vec<(String, PhaseStats)>, BoardError> {
        let mut g = self.conn.lock();
        let c = &mut *g;
        request(self.addr, &self.opts, &mut c.stream, &mut c.resp, &[op::GET_PHASES], true)?;
        expect_phases(&c.resp)
    }

    fn backend_name(&self) -> &'static str {
        self.label
    }
}

/// Spawns a board server on an ephemeral loopback port and connects a
/// board to it: the TCP stack exercised end-to-end inside one process
/// (tests, benches), no free port or second process required.
///
/// # Errors
///
/// Returns [`BoardError::Io`] if binding or connecting fails.
pub fn loopback<M: WireMessage + Clone + Send + Sync + 'static>(
) -> Result<(ServerHandle, crate::BulletinBoard<M>), BoardError> {
    let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
    let handle = server.spawn()?;
    let board = crate::BulletinBoard::connect_tcp(handle.addr())?;
    Ok((handle, board))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn loopback_post_and_read_roundtrip() {
        let (mut handle, board) = loopback::<String>().unwrap();
        board.post(RoleId::new("c1", 0), "hello".into(), "offline", 2, 16).unwrap();
        board.advance_round().unwrap();
        board
            .post_batch(RoleId::new("c1", 1), "online", &["a".to_string(), "b".to_string()], 1, 8)
            .unwrap();
        assert_eq!(board.len().unwrap(), 3);
        assert_eq!(board.round().unwrap(), 1);
        let r0 = board.postings_in_round(0).unwrap();
        assert_eq!(r0.len(), 1);
        assert_eq!(r0[0].message, "hello");
        assert_eq!(r0[0].elements, 2);
        assert_eq!(&*r0[0].phase, "offline");
        let r1 = board.postings_in_round(1).unwrap();
        assert_eq!(r1.len(), 2);
        assert_eq!(r1[1].message, "b");
        assert_eq!(r1[1].from, RoleId::new("c1", 1));
        handle.shutdown();
    }

    #[test]
    fn loopback_meter_rebuild() {
        let (mut handle, board) = loopback::<u64>().unwrap();
        let msgs: Vec<u64> = (0..10).collect();
        board.post_batch(RoleId::new("c", 0), "offline/x", &msgs, 3, 24).unwrap();
        // The server's fold equals what the posting metadata adds up to.
        let batch = board.postings().unwrap();
        let total: u64 = batch.iter().map(|p| p.elements).sum();
        assert_eq!(total, 30);
        let x = PhaseStats { elements: 30, bytes: 240, messages: 10 };
        assert_eq!(board.phases().unwrap(), vec![("offline/x".to_string(), x)]);
        handle.shutdown();
    }

    #[test]
    fn two_clients_share_one_server() {
        let (mut handle, board_a) = loopback::<u64>().unwrap();
        let board_b: crate::BulletinBoard<u64> =
            crate::BulletinBoard::connect_tcp(handle.addr()).unwrap();
        board_a.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        board_b.post(RoleId::new("c", 1), 2, "x", 1, 8).unwrap();
        // Both observe the same sequenced log.
        assert_eq!(board_a.len().unwrap(), 2);
        assert_eq!(board_b.len().unwrap(), 2);
        let log = board_b.postings().unwrap();
        assert_eq!(log[0].message, 1);
        assert_eq!(log[1].message, 2);
        handle.shutdown();
    }

    #[test]
    fn connect_to_dead_server_fails_after_retries() {
        let opts = TcpOptions {
            connect_attempts: 2,
            retry_delay: Duration::from_millis(5),
            ..TcpOptions::default()
        };
        // Bind-then-drop to get a port that is very likely unused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let res = TcpTransport::<u64>::connect(addr, opts);
        assert!(matches!(res, Err(BoardError::Io(_))));
    }

    fn read_raw_frame(s: &mut TcpStream) -> Vec<u8> {
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        s.read_exact(&mut body).unwrap();
        body
    }

    #[test]
    fn idle_client_survives_poll_timeouts() {
        // A driver computing for longer than the server's idle poll
        // schedule must not be disconnected: the tick is an idle
        // signal, not a deadline (SO_RCVTIMEO expiry is WouldBlock on
        // Unix).
        let (mut handle, board) = loopback::<u64>().unwrap();
        board.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        std::thread::sleep(Duration::from_millis(600));
        board.post(RoleId::new("c", 1), 2, "x", 1, 8).unwrap();
        assert_eq!(board.len().unwrap(), 2);
        handle.shutdown();
    }

    #[test]
    fn parked_idle_connection_still_accepts_posts() {
        // Past ~1.2s of silence the handler parks in a blocking read
        // (no more poll wakeups at all); arriving traffic must simply
        // unblock it.
        let (mut handle, board) = loopback::<u64>().unwrap();
        board.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        std::thread::sleep(Duration::from_millis(2000));
        board.post(RoleId::new("c", 1), 2, "x", 1, 8).unwrap();
        assert_eq!(board.len().unwrap(), 2);
        handle.shutdown();
    }

    #[test]
    fn shutdown_wakes_parked_connection() {
        // A handler parked in a blocking read must not wedge server
        // shutdown: the accept loop shuts the registered socket down,
        // the read returns, the handler exits.
        let (mut handle, board) = loopback::<u64>().unwrap();
        board.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        std::thread::sleep(Duration::from_millis(1500)); // past the park threshold
        handle.shutdown(); // must return promptly rather than hang
    }

    #[test]
    fn slow_mid_frame_write_is_not_treated_as_idle() {
        // Once a frame has started, poll-timeout expiries must continue
        // the read from the partial position instead of restarting the
        // frame (which would desync) or dropping the connection.
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(&1u32.to_le_bytes()).unwrap(); // length prefix only
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(500)); // > 2 poll ticks
        s.write_all(&[op::GET_ROUND]).unwrap(); // frame body, late
        s.flush().unwrap();
        let resp = read_raw_frame(&mut s);
        assert_eq!(resp.first(), Some(&op::RESP_VALUE));
        handle.shutdown();
    }

    #[test]
    fn oversized_frame_gets_named_error_before_close() {
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(&u32::MAX.to_le_bytes()).unwrap(); // ~4GiB "frame"
        s.flush().unwrap();
        let resp = read_raw_frame(&mut s);
        assert_eq!(resp.first(), Some(&op::RESP_ERR));
        let mut cur = WireCursor::new(&resp[1..]);
        assert!(cur.str().unwrap().contains("exceeds cap"));
        handle.shutdown();
    }

    #[test]
    fn oversized_read_response_gets_named_error_and_the_connection_survives() {
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
            .unwrap()
            .with_response_cap(256);
        let mut handle = server.spawn().unwrap();
        let t = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
        let phase: Arc<str> = Arc::from("x");
        assert_eq!(t.post_stream(&mut u64_records(2, &phase)).unwrap(), 2);
        assert_eq!(t.read_from(0).unwrap().len(), 2, "two postings fit under the cap");
        t.advance_round().unwrap();
        assert_eq!(t.post_stream(&mut u64_records(40, &phase)).unwrap(), 40);
        for err in [t.read_from(0).unwrap_err(), t.read_round(1).unwrap_err()] {
            let BoardError::Protocol(msg) = err else { panic!("untyped failure: {err:?}") };
            assert!(msg.contains("read response of"), "{msg}");
            assert!(msg.contains("exceeds the 256-byte frame cap"), "{msg}");
        }
        // Same connection, same server: narrower reads and posts go on.
        assert_eq!(t.read_round(0).unwrap().len(), 2);
        assert_eq!(t.read_from(40).unwrap().len(), 2);
        assert_eq!(t.post_stream(&mut u64_records(1, &phase)).unwrap(), 1);
        assert_eq!(t.len().unwrap(), 43);
        handle.shutdown();
    }

    #[test]
    fn large_batch_is_chunked_under_the_frame_cap() {
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let opts = TcpOptions { max_post_frame_bytes: 64, ..TcpOptions::default() };
        let t = TcpTransport::<u64>::connect(handle.addr(), opts).unwrap();
        let phase: Arc<str> = Arc::from("x");
        let n = t
            .post_stream(&mut (0..50u64).map(|m| PostRecord {
                from: RoleId::new("c", m as usize),
                phase: Arc::clone(&phase),
                message: m,
                elements: 1,
                bytes: 8,
            }))
            .unwrap();
        assert_eq!(n, 50);
        assert_eq!(t.len().unwrap(), 50);
        let all = t.read_from(0).unwrap();
        // Chunk boundaries must not reorder or drop records.
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.message, i as u64);
            assert_eq!(p.from, RoleId::new("c", i));
        }
        handle.shutdown();
    }

    #[test]
    fn server_survives_client_disconnect() {
        let (mut handle, board) = loopback::<u64>().unwrap();
        board.post(RoleId::new("c", 0), 7, "x", 1, 8).unwrap();
        drop(board);
        let board2: crate::BulletinBoard<u64> =
            crate::BulletinBoard::connect_tcp(handle.addr()).unwrap();
        assert_eq!(board2.len().unwrap(), 1);
        handle.shutdown();
    }

    /// The encoded size of what a run of `u64` messages from committee
    /// `"c"` shares: committee str (4+1) + phase str (4+len) + elements
    /// (8) + bytes (8) + payload (4+8).
    fn u64_shared_len(phase_len: usize) -> usize {
        4 + 1 + 4 + phase_len + 8 + 8 + 4 + 8
    }

    /// A whole run of `members` such postings on the wire: the shared
    /// part, the member count, one `u32` per member.
    fn u64_run_len(phase_len: usize, members: usize) -> usize {
        u64_shared_len(phase_len) + 4 + 4 * members
    }

    /// Records that differ in message and member, so each is a run of
    /// its own on the wire.
    fn u64_records(n: u64, phase: &Arc<str>) -> impl Iterator<Item = PostRecord<u64>> + '_ {
        (0..n).map(move |m| PostRecord {
            from: RoleId::new("c", m as usize),
            phase: Arc::clone(phase),
            message: m,
            elements: 1,
            bytes: 8,
        })
    }

    #[test]
    fn a_committee_step_costs_one_header_and_four_bytes_a_member() {
        // What the encoder puts on the wire for 64 members posting one
        // message: the frame prefix, the shared part and the count once,
        // then 4 bytes each — as a run, and as 64 records folded into it.
        let (mut handle, _board) = loopback::<u64>().unwrap();
        let committee = crate::Committee::honest("c", 64);
        let members: Vec<usize> = (0..64).collect();
        let speakers = Speakers::from(&members[..]);
        let run = PostRun {
            committee: &committee.name,
            phase: "offline/1-beaver",
            message: &7,
            elements: 2,
            bytes: 16,
            members: &speakers,
        };
        let header = FRAME_PREFIX + u64_shared_len(16) + 4;
        // One byte less than the step needs and it takes a second frame.
        for (cap, want_frames) in [(header + 4 * 64, 1u64), (header + 4 * 64 - 1, 2u64)] {
            let opts = TcpOptions { max_post_frame_bytes: cap, ..TcpOptions::default() };
            let t = TcpTransport::<u64>::connect(handle.addr(), opts).unwrap();
            t.post_run(std::slice::from_ref(&run)).unwrap();
            assert_eq!(t.wire_stats().post_frames, want_frames, "run, cap {cap}");
            let phase: Arc<str> = Arc::from(run.phase);
            let n = t
                .post_stream(&mut members.iter().map(|&i| PostRecord {
                    from: committee.role(i),
                    phase: Arc::clone(&phase),
                    message: 7,
                    elements: 2,
                    bytes: 16,
                }))
                .unwrap();
            assert_eq!(n, 64);
            assert_eq!(t.wire_stats().post_frames, 2 * want_frames, "records, cap {cap}");
        }
        let t = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
        let back = t.read_from(0).unwrap();
        assert_eq!(back.len(), 4 * 64);
        for (seq, p) in back.iter().enumerate() {
            assert_eq!((p.from.index, p.message, p.elements, p.bytes), (seq % 64, 7, 2, 16));
            assert_eq!((&*p.from.committee, &*p.phase), ("c", "offline/1-beaver"));
        }
        // The message crossed the wire once per run sent: 6 frames.
        assert_eq!(t.server_stats().unwrap().payload_bytes, 6 * 8);
        handle.shutdown();
    }

    #[test]
    fn chunking_splits_exactly_at_the_frame_cap_boundary() {
        // Boundary-value coverage for the chunking loop: with the cap
        // set to hold exactly K single-posting runs, N = 3K of them
        // must produce exactly 3 frames (no off-by-one slack), and one
        // byte less must tip it to 4. The same holds inside one long
        // run, which splits between members.
        let (mut handle, _board) = loopback::<u64>().unwrap();
        let phase: Arc<str> = Arc::from("x");
        let k = 5usize;
        let committee: Arc<str> = Arc::from("c");
        let members: Vec<usize> = (0..3 * k).collect();
        let speakers = Speakers::from(&members[..]);
        let long_run = PostRun {
            committee: &committee,
            phase: "x",
            message: &9,
            elements: 1,
            bytes: 8,
            members: &speakers,
        };
        let records_cap = FRAME_PREFIX + k * u64_run_len(1, 1);
        let members_cap = FRAME_PREFIX + u64_run_len(1, k);
        for (slack, want_frames) in [(0, 3u64), (1, 4u64)] {
            let connect = |cap| {
                let opts = TcpOptions { max_post_frame_bytes: cap, ..TcpOptions::default() };
                TcpTransport::<u64>::connect(handle.addr(), opts).unwrap()
            };
            let t = connect(records_cap - slack);
            let n = t.post_stream(&mut u64_records(3 * k as u64, &phase)).unwrap();
            assert_eq!(n, 3 * k as u64);
            assert_eq!(t.wire_stats().post_frames, want_frames, "records, slack {slack}");
            let t = connect(members_cap - slack);
            let before = t.len().unwrap();
            t.post_run(std::slice::from_ref(&long_run)).unwrap();
            assert_eq!(t.wire_stats().post_frames, want_frames, "members, slack {slack}");
            // The pieces land in order, with nothing lost at the seams.
            let back: Vec<usize> =
                t.read_from(before).unwrap().iter().map(|p| p.from.index).collect();
            assert_eq!(back, members, "members, slack {slack}");
        }
        handle.shutdown();
    }

    #[test]
    fn flush_one_frame_past_the_window_costs_two_sync_round_trips() {
        let (mut handle, _board) = loopback::<u64>().unwrap();
        let phase: Arc<str> = Arc::from("x");
        let k = 4usize;
        let opts = TcpOptions {
            max_post_frame_bytes: FRAME_PREFIX + k * u64_run_len(1, 1),
            ..TcpOptions::default()
        };
        let t = TcpTransport::<u64>::connect(handle.addr(), opts).unwrap();
        let frames = PIPELINE_WINDOW + 1;
        let n = t.post_stream(&mut u64_records(frames * k as u64, &phase)).unwrap();
        assert_eq!(n, frames * k as u64);
        let stats = t.wire_stats();
        assert_eq!(stats.post_frames, frames);
        // One sync when the window fills, then the terminal one.
        assert_eq!(stats.sync_round_trips, 2);
        assert_eq!(t.len().unwrap() as u64, frames * k as u64);
        let server = t.server_stats().unwrap();
        assert_eq!(server.post_frames, frames);
        assert_eq!(server.acked_frames, frames);
        assert_eq!(server.max_window, PIPELINE_WINDOW);
        handle.shutdown();
    }

    #[test]
    fn runs_read_back_identically_in_process_and_over_tcp() {
        // The same sequence of run flushes, single posts, batches and
        // round ticks on both backends — the TCP one with a frame cap
        // small enough that the long runs split mid-run.
        fn drive(board: &crate::BulletinBoard<u64>) {
            let committees = [crate::Committee::honest("a", 40), crate::Committee::honest("b", 40)];
            let step: Vec<usize> = (0..40).collect();
            let twice: Vec<usize> = (0..40).flat_map(|i| [i, i]).collect();
            let (none, step) = (Speakers::new(), Speakers::from(&step[..]));
            for round in 0..3u64 {
                for (c, committee) in committees.iter().enumerate() {
                    let run = |phase, message, members| PostRun {
                        committee: &committee.name,
                        phase,
                        message,
                        elements: 2,
                        bytes: 16,
                        members,
                    };
                    board
                        .post_run(&[
                            run("offline/1", &round, &step),
                            run("offline/1", &round, &none),
                            run("offline/1", &(round + 1), &Speakers::from(&twice[..7 + c])),
                            run("offline/2", &(round + 1), &Speakers::from(&twice[..])),
                        ])
                        .unwrap();
                    board.post(committee.role(c), 99, "offline/2", 1, 8).unwrap();
                    board.post_batch(committee.role(3), "offline/2", &[5, 5, 6], 1, 8).unwrap();
                }
                board.advance_round().unwrap();
            }
        }
        let local: crate::BulletinBoard<u64> = crate::BulletinBoard::new();
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let opts = TcpOptions { max_post_frame_bytes: 128, ..TcpOptions::default() };
        let remote = crate::BulletinBoard::<u64>::connect_tcp_with(handle.addr(), opts).unwrap();
        drive(&local);
        drive(&remote);
        let line = |p: &Posting<u64>| {
            (p.round, p.from.to_string(), p.phase.to_string(), p.message, p.elements, p.bytes)
        };
        let (pl, pr) = (local.postings().unwrap(), remote.postings().unwrap());
        assert_eq!(pl.len(), 3 * 2 * (40 + 7 + 80 + 1 + 3) + 3);
        assert_eq!(pl.iter().map(line).collect::<Vec<_>>(), pr.iter().map(line).collect::<Vec<_>>());
        for round in 0..=3 {
            assert_eq!(
                local.postings_in_round(round).unwrap().len(),
                remote.postings_in_round(round).unwrap().len()
            );
        }
        // The in-process run fold and the server's `GetPhases` agree.
        let phases = local.phases().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(remote.phases().unwrap(), phases);
        handle.shutdown();
    }

    #[test]
    fn a_step_posted_in_halves_by_two_workers_is_one_run_and_one_span() {
        // Two workers each post half of an n = 512 committee step, one
        // frame each: the server stores it as the in-process log does.
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let committee = crate::Committee::honest("c", 512);
        let members: Vec<usize> = (0..512).collect();
        for half in members.chunks(256) {
            let t = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
            let speakers = Speakers::from(half);
            let run = PostRun {
                committee: &committee.name,
                phase: "offline/1-beaver",
                message: &7,
                elements: 2,
                bytes: 16,
                members: &speakers,
            };
            t.post_run(std::slice::from_ref(&run)).unwrap();
            assert_eq!(t.wire_stats().post_frames, 1);
        }
        let log = &handle.shared.log;
        assert_eq!((log.len().unwrap(), log.run_count(), log.span_count()), (512, 1, 1));
        handle.shutdown();
    }

    #[test]
    fn concurrent_posts_and_round_ticks_lose_nothing() {
        // Four connections post while a fifth ticks the round clock:
        // every posting is read back exactly once, and the rounds along
        // the log never go back.
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let addr = handle.addr();
        let connect = || TcpTransport::<u64>::connect(addr, TcpOptions::default()).unwrap();
        let (writers, per, ticks) = (4u64, 250u64, 20u64);
        std::thread::scope(|s| {
            for w in 0..writers {
                s.spawn(move || {
                    let t = connect();
                    let phase: Arc<str> = Arc::from("x");
                    for i in 0..per {
                        let record = PostRecord {
                            from: RoleId::new("c", w as usize),
                            phase: Arc::clone(&phase),
                            message: w * per + i,
                            elements: 1,
                            bytes: 8,
                        };
                        t.post_stream(&mut std::iter::once(record)).unwrap();
                    }
                });
            }
            s.spawn(move || {
                let t = connect();
                for _ in 0..ticks {
                    t.advance_round().unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });
        let t = connect();
        assert_eq!((t.len().unwrap() as u64, t.round().unwrap()), (writers * per, ticks));
        let back = t.read_from(0).unwrap();
        assert!(back.windows(2).all(|w| w[0].round <= w[1].round), "rounds went back");
        assert!(back.iter().all(|p| p.from.index as u64 == p.message / per));
        let mut values: Vec<u64> = back.iter().map(|p| p.message).collect();
        values.sort_unstable();
        assert!(values.into_iter().eq(0..writers * per), "a posting was lost or doubled");
        let by_round: usize = (0..=ticks).map(|r| t.read_round(r).unwrap().len()).sum();
        assert_eq!(by_round as u64, writers * per);
        handle.shutdown();
    }

    /// One raw post frame body under `opcode`: `count` valid runs of one
    /// `u64` posting each (or with the tail ripped off the last one).
    fn raw_post_body(opcode: u8, count: u32, malformed: bool) -> Vec<u8> {
        let mut body = vec![opcode];
        put_u32(&mut body, count);
        for m in 0..count {
            put_str(&mut body, "c").unwrap();
            put_str(&mut body, "x").unwrap();
            put_u64(&mut body, 1);
            put_u64(&mut body, 8);
            put_bytes(&mut body, &u64::from(m).to_le_bytes()).unwrap();
            put_u32(&mut body, 1);
            put_u32(&mut body, m);
        }
        if malformed {
            body.truncate(body.len() - 3);
        }
        body
    }

    fn send_raw_frame(s: &mut TcpStream, body: &[u8]) {
        s.write_all(&u32::try_from(body.len()).unwrap().to_le_bytes()).unwrap();
        s.write_all(body).unwrap();
        s.flush().unwrap();
    }

    /// The message of the `RESP_ERR` frame the server sends next.
    fn read_err(s: &mut TcpStream) -> String {
        let resp = read_raw_frame(s);
        assert_eq!(resp.first(), Some(&op::RESP_ERR), "wanted RESP_ERR, got {resp:?}");
        WireCursor::new(&resp[1..]).str().unwrap().to_string()
    }

    #[test]
    fn pipelined_error_names_the_offending_frame_and_closes() {
        // A malformed frame mid-window must be rejected by index, the
        // valid frames before it must be appended, the buffered frames
        // after it must NOT be, and the connection must close.
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        send_raw_frame(&mut s, &raw_post_body(op::POST_PIPE, 2, false)); // frame 0
        send_raw_frame(&mut s, &raw_post_body(op::POST_PIPE, 2, false)); // frame 1
        send_raw_frame(&mut s, &raw_post_body(op::POST_PIPE, 2, true)); // frame 2: malformed
        send_raw_frame(&mut s, &raw_post_body(op::POST_PIPE, 2, false)); // buffered behind the error
        send_raw_frame(&mut s, &[op::POST_SYNC]);
        let msg = read_err(&mut s);
        assert!(msg.contains("pipelined frame 2"), "error must name the frame: {msg}");
        // The connection is closed: the next read sees EOF, not a
        // response to the sync.
        let mut probe = [0u8; 1];
        assert_eq!(s.read(&mut probe).unwrap(), 0);
        // Frames 0 and 1 landed; frame 2 and the buffered frame 3 did
        // not — no silent divergence.
        let t = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
        assert_eq!(t.len().unwrap(), 4);
        handle.shutdown();
    }

    #[test]
    fn a_rejection_with_input_queued_behind_it_reads_as_the_error_then_eof() {
        // The server rejects frame 0 while megabytes the client already
        // sent sit unread behind it. Closing over unread input would
        // reset the connection; the client must still read the named
        // error and then a clean EOF.
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = s.try_clone().unwrap();
        // A 1 MiB frame rejected for its trailing bytes, and 4 MiB
        // behind it in the same write: by the time the server has read
        // the frame, more is queued than it will ever read.
        let mut rejected = raw_post_body(op::POST_PIPE, 1, false);
        rejected.resize(1 << 20, 0);
        let mut wire = u32::try_from(rejected.len()).unwrap().to_le_bytes().to_vec();
        wire.extend_from_slice(&rejected);
        wire.resize(wire.len() + (4 << 20), 0);
        let sender = std::thread::spawn(move || {
            // The server may stop reading before the write completes.
            let _ = writer.write_all(&wire);
        });
        let msg = read_err(&mut s);
        assert!(msg.contains("pipelined frame 0 rejected"), "{msg}");
        let mut probe = [0u8; 1];
        assert_eq!(s.read(&mut probe).unwrap(), 0);
        sender.join().unwrap();
        handle.shutdown();
    }

    #[test]
    fn hostile_run_frames_draw_a_typed_error_and_append_nothing() {
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let watcher = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
        // A well-formed frame: two runs, of 3 and 2 members.
        let mut good = vec![op::POST_PIPE];
        put_u32(&mut good, 2);
        let mut member_counts_at = Vec::new();
        for (message, members) in [(7u64, &[0u32, 1, 2][..]), (8, &[5, 5])] {
            put_str(&mut good, "c").unwrap();
            put_str(&mut good, "x").unwrap();
            put_u64(&mut good, 1);
            put_u64(&mut good, 8);
            put_bytes(&mut good, &message.to_le_bytes()).unwrap();
            member_counts_at.push(good.len());
            put_u32(&mut good, members.len() as u32);
            for &m in members {
                put_u32(&mut good, m);
            }
        }
        let with_count = |run: usize, count: u32| {
            let mut body = good.clone();
            let at = member_counts_at[run];
            body[at..at + 4].copy_from_slice(&count.to_le_bytes());
            body
        };
        let mut hostile: Vec<(String, Vec<u8>)> = vec![
            // The count disagrees with the bytes that follow, either way.
            ("last run claims a member more".into(), with_count(1, 3)),
            ("last run claims a member less".into(), with_count(1, 1)),
            ("first run claims a member less".into(), with_count(0, 2)),
            // count × 4 far beyond the frame: must fail on the length
            // check, before anything is sized by the count.
            ("count × 4 exceeds the frame".into(), with_count(0, u32::MAX)),
            ("count × 4 exceeds the frame by one member".into(), with_count(1, 0x4000_0000)),
            ("more runs claimed than sent".into(), {
                let mut body = good.clone();
                body[1..5].copy_from_slice(&3u32.to_le_bytes());
                body
            }),
            ("fewer runs claimed than sent".into(), {
                let mut body = good.clone();
                body[1..5].copy_from_slice(&1u32.to_le_bytes());
                body
            }),
        ];
        for cut in 1..good.len() {
            hostile.push((format!("truncated to {cut} of {} bytes", good.len()), good[..cut].to_vec()));
        }
        for (what, body) in &hostile {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            send_raw_frame(&mut s, body);
            let msg = read_err(&mut s);
            assert!(msg.contains("pipelined frame 0 rejected"), "{what}: {msg}");
            // A rejected post frame closes its connection …
            let mut probe = [0u8; 1];
            assert_eq!(s.read(&mut probe).unwrap(), 0, "{what}");
            // … appends nothing, and leaves the server serving others.
            assert_eq!(watcher.len().unwrap(), 0, "{what}");
        }
        // The retired per-record opcode is unknown, whatever follows it.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let mut retired = good.clone();
        retired[0] = 0x08;
        send_raw_frame(&mut s, &retired);
        assert_eq!(read_err(&mut s), "unknown opcode 0x8");
        assert_eq!(watcher.len().unwrap(), 0);
        // The untouched frame is accepted, by the same server.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        send_raw_frame(&mut s, &good);
        send_raw_frame(&mut s, &[op::POST_SYNC]);
        assert_eq!(read_raw_frame(&mut s).first(), Some(&op::RESP_OK_N));
        let back = watcher.read_from(0).unwrap();
        let got: Vec<(usize, u64)> = back.iter().map(|p| (p.from.index, p.message)).collect();
        assert_eq!(got, vec![(0, 7), (1, 7), (2, 7), (5, 8), (5, 8)]);
        handle.shutdown();
    }

    #[test]
    fn pipelined_flush_to_dying_server_fails_that_flush() {
        // Killing the server mid-stream must fail the in-progress
        // flush (at its sync barrier), not silently succeed.
        let (mut handle, board) = loopback::<u64>().unwrap();
        board.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        handle.shutdown();
        let messages: Vec<u64> = (0..10).collect();
        let err = board.post_batch(RoleId::new("c", 0), "x", &messages, 1, 8).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("closed") || msg.contains("error") || msg.contains("pipe"),
            "unexpected error shape: {msg}"
        );
    }

    #[test]
    fn frame_at_exactly_the_server_cap_is_accepted_and_one_over_rejected() {
        // The 64MiB cap is inclusive: a frame of exactly MAX_FRAME
        // bytes must be appended, one byte more must draw the named
        // RESP_ERR. Build the exact-size frame around one huge payload.
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        // Fixed overhead for committee "c", phase "x": opcode 1 + run
        // count 4 + shared part (4+1 + 4+1 + 8 + 8 + payload prefix 4)
        // + member count 4 + one member 4.
        let overhead = 1 + 4 + (4 + 1 + 4 + 1 + 8 + 8 + 4) + 4 + 4;
        let payload_len = MAX_FRAME - overhead;
        let mut body = vec![op::POST_PIPE];
        put_u32(&mut body, 1);
        put_str(&mut body, "c").unwrap();
        put_str(&mut body, "x").unwrap();
        put_u64(&mut body, 1);
        put_u64(&mut body, payload_len as u64);
        put_bytes(&mut body, &vec![0xA5u8; payload_len]).unwrap();
        put_u32(&mut body, 1);
        put_u32(&mut body, 0);
        assert_eq!(body.len(), MAX_FRAME);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        send_raw_frame(&mut s, &body);
        send_raw_frame(&mut s, &[op::POST_SYNC]);
        let resp = read_raw_frame(&mut s);
        let mut ack = WireCursor::new(&resp);
        assert_eq!(ack.u8().unwrap(), op::RESP_OK_N);
        assert_eq!(ack.u64().unwrap(), 1);
        // One byte over: only the length prefix needs to lie.
        let mut s2 = TcpStream::connect(handle.addr()).unwrap();
        s2.write_all(&u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes()).unwrap();
        s2.flush().unwrap();
        assert!(read_err(&mut s2).contains("exceeds cap"));
        let t = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
        assert_eq!(t.len().unwrap(), 1);
        handle.shutdown();
    }

    #[test]
    fn retired_post_batch_opcode_is_unknown_and_the_server_keeps_serving() {
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        send_raw_frame(&mut s, &raw_post_body(0x01, 2, false));
        let resp = read_raw_frame(&mut s);
        assert_eq!(resp.first(), Some(&op::RESP_ERR));
        let mut cur = WireCursor::new(&resp[1..]);
        assert_eq!(cur.str().unwrap(), "unknown opcode 0x1");
        drop(s);
        // Nothing was appended, and the next connection posts normally.
        let t = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
        assert_eq!(t.len().unwrap(), 0);
        let phase: Arc<str> = Arc::from("x");
        assert_eq!(t.post_stream(&mut u64_records(3, &phase)).unwrap(), 3);
        assert_eq!(t.len().unwrap(), 3);
        handle.shutdown();
    }

    #[test]
    fn get_phases_with_a_body_draws_a_typed_error_and_the_connection_serves_on() {
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        send_raw_frame(&mut s, &[op::GET_PHASES, 0]);
        let msg = read_err(&mut s);
        assert!(msg.contains("GetPhases (opcode 0xc)"), "{msg}");
        assert!(msg.contains("1 trailing bytes"), "{msg}");
        // The same connection goes on: an empty board answers with an
        // empty table.
        send_raw_frame(&mut s, &[op::GET_PHASES]);
        let resp = read_raw_frame(&mut s);
        assert_eq!(expect_phases(&resp).unwrap(), Vec::new());
        send_raw_frame(&mut s, &[op::GET_LEN]);
        assert_eq!(expect_value(&read_raw_frame(&mut s)).unwrap(), 0);
        // And a client sees the postings that land after it.
        let t = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
        assert!(t.phases().unwrap().is_empty());
        let phase: Arc<str> = Arc::from("x");
        t.post_stream(&mut u64_records(3, &phase)).unwrap();
        send_raw_frame(&mut s, &[op::GET_PHASES]);
        let x = PhaseStats { elements: 3, bytes: 24, messages: 3 };
        assert_eq!(expect_phases(&read_raw_frame(&mut s)).unwrap(), vec![("x".to_string(), x)]);
        handle.shutdown();
    }

    #[test]
    fn reads_interleaved_with_unacked_pipelined_frames_are_rejected() {
        // The pipelined-run discipline: a client must sync before
        // issuing any other request, otherwise the server closes the
        // connection with a named error.
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let mut handle = server.spawn().unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        send_raw_frame(&mut s, &raw_post_body(op::POST_PIPE, 1, false));
        send_raw_frame(&mut s, &[op::GET_LEN]);
        let resp = read_raw_frame(&mut s);
        assert_eq!(resp.first(), Some(&op::RESP_ERR));
        let mut cur = WireCursor::new(&resp[1..]);
        assert!(cur.str().unwrap().contains("unacknowledged"));
        let mut probe = [0u8; 1];
        assert_eq!(s.read(&mut probe).unwrap(), 0);
        handle.shutdown();
    }
}

//! The event-driven connection plane behind `kbpd`, in both modes.
//!
//! PR 6's front end spent two threads per connection (a blocking reader
//! and an ordering writer), so `KBP_SERVICE_MAX_CONNECTIONS` was really
//! a thread budget and a stalled client pinned its writer forever. This
//! module replaces that pair with a single readiness loop over
//! nonblocking sockets — `std` only, no `libc`, no poll registration:
//! the loop services every connection each pass, sleeping between
//! passes on a condvar that doubles as the worker-completion wakeup
//! token. Idle connections now cost one map entry, not two stacks.
//!
//! Without readiness notification the sleep is the latency a request
//! waits before it is read, so it adapts ([`next_tick`]): after a pass
//! that made progress (accepted, drained a completion, read or wrote
//! bytes) the loop sleeps only [`TICK_FLOOR`], and each quiet pass
//! doubles the sleep up to [`TICK`]. A closed-loop client's next request
//! lands while the loop still polls tightly; a daemon with no traffic
//! is back at the 1 ms tick within five passes.
//!
//! The operator's stdin/stdout pair is one more connection of the same
//! loop ([`Pipe`]): a forwarding thread hands stdin chunks over a
//! bounded channel and raises the same wakeup, and responses go to
//! stdout as blocking writes. The pipe is the operator's own, so it is
//! exempt from the per-client quota and from every protection policy,
//! and it is back-pressured instead of shed: while the job queue is full
//! the plane stops reading it (see [`step_conn`]).
//! With no listener the loop has no timer to keep, so it sleeps until
//! input or a completion arrives: an idle stdin daemon costs no CPU.
//!
//! # Per-connection state machine
//!
//! ```text
//!           read bytes           admit/answer            completions
//! [open] ──> FrameDecoder ──> index per line ──> queue ──> reorder map
//!                                                              │
//!                              outbuf <── pour contiguous ─────┘
//!                                │ nonblocking flush (socket)
//!                                ▼ blocking write (pipe)
//!          close: graceful (EOF + drained) | forced (protection)
//! ```
//!
//! Every non-empty line consumes one request index; responses pour from
//! the reorder map into `outbuf` strictly in index order, so the wire
//! order matches PR 6 exactly. A connection dies one of three ways, all
//! observable:
//!
//! * **graceful** — read side closed (or daemon draining) and nothing
//!   left in flight or buffered;
//! * **forced** — a protection policy tripped ([`DisconnectKind`]:
//!   idle timeout, read deadline, write budget, write stall), counted in
//!   metrics and announced with a best-effort typed notice;
//! * **dead** — the peer vanished mid-write; responses have nowhere to
//!   go. For the pipe this is the process reading stdout going away,
//!   and stdin mode then exits once its in-flight jobs are counted.
//!
//! # Drain argument
//!
//! The loop keeps a global in-flight count: incremented at admission,
//! decremented when a completion is drained from the [`PlaneShared`]
//! queue — *whether or not* the owning connection still exists. A
//! completion for a force-closed connection bumps `responses_dropped`
//! instead of a reorder map. Shutdown flips the plane into draining
//! mode (no accepts, no new admissions, inbound bytes read and
//! discarded so closing cannot RST away buffered responses) and the
//! loop exits exactly when no connections and no in-flight jobs remain:
//! every admitted job was answered or counted dropped, never lost
//! silently. Without a listener the same exit applies as soon as the
//! pipe has closed.

use crate::framing::{FrameDecoder, LineOutcome};
use crate::job::{id_hint, parse_request, Request};
use crate::queue::JobQueue;
use crate::server::QueuedJob;
use crate::service::{
    disconnect_response, error_response, frame_error_response, quota_response, reject_response,
    too_many_connections_response, DisconnectKind, PlaneSnapshot, Service,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The longest sleep between passes of the readiness loop, reached
/// after a run of quiet passes: the cost of an idle daemon. Protection
/// timeouts are measured in hundreds of milliseconds and up, and run on
/// `Instant` clocks, so a millisecond of slack is noise; completions
/// additionally cut the sleep short via the condvar.
const TICK: Duration = Duration::from_millis(1);

/// The sleep after a pass that made progress: while a client is active
/// its next request is likely on its way, so the loop polls tightly.
const TICK_FLOOR: Duration = Duration::from_micros(50);

/// Per-connection, per-pass read allowance (chunks of `READ_CHUNK`).
/// Bounds how long one flooding client can monopolize a pass; what it
/// left unread is picked up after the floor, since the burst's reads
/// count as progress. It is also the capacity of the pipe's chunk
/// channel, so one burst empties whatever was queued before the pass
/// cleared the input signal.
const READ_BURST: usize = 8;

/// Read buffer size per chunk.
const READ_CHUNK: usize = 8 * 1024;

/// Write-stall bound applied *during drain* when the configured bound
/// is disabled: a client that never reads must not wedge shutdown.
const DRAIN_STALL_MS: u64 = 30_000;

/// A finished job on its way back to the plane: which connection asked,
/// at which request index, and the rendered response line.
pub(crate) struct Completion {
    /// Owning connection id.
    pub(crate) conn: u64,
    /// Per-connection request index (reorder key).
    pub(crate) index: usize,
    /// The rendered response line (no trailing newline).
    pub(crate) line: String,
}

/// What wakes the loop, guarded by one lock: finished responses, and
/// whether the pipe forwarder queued input since the last drain.
#[derive(Default)]
struct Inbox {
    completions: VecDeque<Completion>,
    input: bool,
}

/// The channel between the worker pool (and the pipe forwarder) and the
/// readiness loop: a locked [`Inbox`] plus a condvar the loop sleeps
/// on. `deliver` and `note_input` are the wakeup tokens — a completed
/// job or a stdin chunk interrupts the sleep instead of waiting it out.
/// Both set their signal under the lock `wait` checks, so no wakeup is
/// lost between a drain and the next sleep.
pub(crate) struct PlaneShared {
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

impl PlaneShared {
    pub(crate) fn new() -> Self {
        PlaneShared {
            inbox: Mutex::new(Inbox::default()),
            wake: Condvar::new(),
        }
    }

    /// Called by workers: queue a finished response and wake the loop.
    pub(crate) fn deliver(&self, completion: Completion) {
        if let Ok(mut inbox) = self.inbox.lock() {
            inbox.completions.push_back(completion);
        }
        self.wake.notify_all();
    }

    /// Called by the pipe forwarder after queueing a chunk (or closing
    /// its channel): wake the loop to read it.
    fn note_input(&self) {
        if let Ok(mut inbox) = self.inbox.lock() {
            inbox.input = true;
        }
        self.wake.notify_all();
    }

    /// Takes everything delivered since the last drain and clears the
    /// input signal. The loop drains *before* it reads the pipe, so
    /// input queued after this call raises the signal again.
    fn drain(&self) -> VecDeque<Completion> {
        match self.inbox.lock() {
            Ok(mut inbox) => {
                inbox.input = false;
                std::mem::take(&mut inbox.completions)
            }
            Err(_) => VecDeque::new(),
        }
    }

    /// Sleeps until `timeout` (forever with `None`) or the next
    /// delivery or input, whichever is first.
    fn wait(&self, timeout: Option<Duration>) {
        let Ok(inbox) = self.inbox.lock() else {
            return;
        };
        if inbox.completions.is_empty() && !inbox.input {
            match timeout {
                Some(timeout) => drop(self.wake.wait_timeout(inbox, timeout)),
                None => drop(self.wake.wait(inbox)),
            }
        }
    }
}

/// The operator's stdin/stdout pair, before the plane adopts it as a
/// connection.
pub(crate) type Pipe = (Box<dyn Read + Send>, Box<dyn Write + Send>);

/// A connection's byte transport. Both variants read without blocking
/// (`WouldBlock` when nothing is ready, `Ok(0)` at EOF), so one step
/// routine serves both.
enum Transport {
    /// A nonblocking TCP socket from the listener.
    Tcp(TcpStream),
    /// The stdin/stdout pipe: stdin chunks arrive from the forwarding
    /// thread; responses go to stdout as blocking writes.
    Pipe {
        chunks: Receiver<Vec<u8>>,
        output: Box<dyn Write + Send>,
    },
}

impl Transport {
    /// Adopts `pipe`: spawns the thread that forwards its input in
    /// `READ_CHUNK` pieces through a channel of `READ_BURST` slots,
    /// signalling `shared` after each. The thread ends at EOF, on a read
    /// error (which ends input like EOF), or once the plane has dropped
    /// the receiving end. It is not joined: after stdout dies it may
    /// stay blocked in `read` until the process exits.
    fn pipe((input, output): Pipe, shared: &Arc<PlaneShared>) -> Self {
        let (tx, chunks) = mpsc::sync_channel(READ_BURST);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || forward(input, tx, &shared));
        Transport::Pipe { chunks, output }
    }

    fn is_pipe(&self) -> bool {
        matches!(self, Transport::Pipe { .. })
    }
}

/// The pipe forwarder's loop (see [`Transport::pipe`]).
fn forward(mut input: Box<dyn Read + Send>, tx: SyncSender<Vec<u8>>, shared: &PlaneShared) {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match input.read(&mut buf) {
            Ok(0) => break,
            Ok(n) if tx.send(buf[..n].to_vec()).is_ok() => shared.note_input(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            _ => break,
        }
    }
    // Close the channel before the last signal, so the plane reads EOF.
    drop(tx);
    shared.note_input();
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(stream) => stream.read(buf),
            Transport::Pipe { chunks, .. } => match chunks.try_recv() {
                Ok(chunk) => {
                    // Chunks are at most READ_CHUNK bytes, like `buf`.
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    Ok(n)
                }
                Err(TryRecvError::Empty) => Err(ErrorKind::WouldBlock.into()),
                Err(TryRecvError::Disconnected) => Ok(0),
            },
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(stream) => stream.write(buf),
            Transport::Pipe { output, .. } => output
                .write_all(buf)
                .and_then(|()| output.flush())
                .map(|()| buf.len()),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(stream) => stream.flush(),
            Transport::Pipe { output, .. } => output.flush(),
        }
    }
}

/// Pending (admitted, unanswered) request counts per client identity —
/// the tenant-scoped admission quota. Workers release on completion, so
/// the table is shared and locked; entries vanish at zero to keep the
/// map (and the metrics snapshot) bounded by *active* clients.
pub(crate) struct PendingTable {
    inner: Mutex<HashMap<String, usize>>,
}

impl PendingTable {
    pub(crate) fn new() -> Self {
        PendingTable {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Takes one quota slot for `client`, or reports how many it
    /// already holds. (A poisoned lock rejects: failing closed keeps
    /// the quota meaningful, and poisoning cannot happen short of a
    /// worker panicking mid-release.)
    pub(crate) fn try_acquire(&self, client: &str, quota: usize) -> Result<(), usize> {
        let Ok(mut map) = self.inner.lock() else {
            return Err(quota);
        };
        let held = map.get(client).copied().unwrap_or(0);
        if held >= quota {
            Err(held)
        } else {
            map.insert(client.to_string(), held + 1);
            Ok(())
        }
    }

    /// Returns one slot.
    pub(crate) fn release(&self, client: &str) {
        if let Ok(mut map) = self.inner.lock() {
            if let Some(held) = map.get_mut(client) {
                *held = held.saturating_sub(1);
                if *held == 0 {
                    map.remove(client);
                }
            }
        }
    }

    /// The current per-client pending counts, sorted by client.
    pub(crate) fn snapshot(&self) -> Vec<(String, usize)> {
        let mut entries: Vec<(String, usize)> = match self.inner.lock() {
            Ok(map) => map.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            Err(_) => Vec::new(),
        };
        entries.sort();
        entries
    }
}

/// Forced-disconnect counters plus the drop and pass counts — owned by
/// the loop, copied into each tick's context for metrics rendering.
#[derive(Debug, Clone, Copy, Default)]
struct PlaneCounters {
    idle_timeout: usize,
    read_deadline: usize,
    write_budget: usize,
    write_stall: usize,
    responses_dropped: usize,
    passes: usize,
}

impl PlaneCounters {
    fn count(&mut self, kind: DisconnectKind) {
        match kind {
            DisconnectKind::IdleTimeout => self.idle_timeout += 1,
            DisconnectKind::ReadDeadline => self.read_deadline += 1,
            DisconnectKind::WriteBudget => self.write_budget += 1,
            DisconnectKind::WriteStall => self.write_stall += 1,
        }
    }
}

/// One live connection's state (see the module-level state machine).
struct Conn {
    transport: Transport,
    /// Fallback client identity: the peer's `ip:port` (the full pair —
    /// collapsing to the IP would merge every local test client into
    /// one tenant), or `local` for the pipe.
    peer: String,
    decoder: FrameDecoder,
    /// Next request index to assign (every non-empty line takes one).
    next_index: usize,
    /// Completed responses waiting for their turn, keyed by index.
    reorder: BTreeMap<usize, String>,
    /// Bytes held in `reorder` — kept incrementally so the write budget
    /// can bound the *whole* owed backlog, not just the flushed part
    /// (inline answers parked behind one slow job would otherwise grow
    /// without bound).
    reorder_bytes: usize,
    /// Next index to pour into `outbuf`.
    next_write: usize,
    /// Bytes buffered toward the socket (bounded by the write budget).
    outbuf: VecDeque<u8>,
    /// Jobs admitted for this connection, not yet completed.
    inflight: usize,
    /// Last read progress (any inbound bytes).
    last_activity: Instant,
    /// Last write progress (outbuf shrank, or went empty→nonempty).
    last_write_progress: Instant,
    /// Read side has seen EOF or a transport error.
    read_closed: bool,
}

impl Conn {
    fn new(transport: Transport, peer: String, max_line: usize, now: Instant) -> Self {
        Conn {
            transport,
            peer,
            decoder: FrameDecoder::new(max_line),
            next_index: 0,
            reorder: BTreeMap::new(),
            reorder_bytes: 0,
            next_write: 0,
            outbuf: VecDeque::new(),
            inflight: 0,
            last_activity: now,
            last_write_progress: now,
            read_closed: false,
        }
    }

    /// Anything still owed to (or buffered for) this connection?
    fn has_backlog(&self) -> bool {
        self.inflight > 0 || !self.reorder.is_empty() || !self.outbuf.is_empty()
    }

    /// Total bytes owed: flushed-but-unsent plus still-reordering.
    fn buffered_bytes(&self) -> usize {
        self.outbuf.len() + self.reorder_bytes
    }

    /// Parks a finished response line at its reorder slot.
    fn park(&mut self, index: usize, line: String) {
        self.reorder_bytes += line.len();
        self.reorder.insert(index, line);
    }
}

/// How a connection left the map this tick.
enum Close {
    /// EOF (or drain) with everything delivered.
    Graceful,
    /// The peer vanished mid-write; nothing more can be delivered.
    Dead,
    /// A protection policy tripped.
    Forced(DisconnectKind),
}

/// Everything a single tick needs, borrowed once per tick. The
/// active/idle counts and counter copy are start-of-tick values used
/// for inline `metrics` answers — racy by nature, like every
/// monitoring response.
struct TickCtx<'a> {
    service: &'a Arc<Service>,
    queue: &'a Arc<JobQueue<QueuedJob>>,
    pending: &'a Arc<PendingTable>,
    quota: usize,
    idle_ms: u64,
    budget_bytes: usize,
    stall_ms: u64,
    draining: bool,
    now: Instant,
    inflight: &'a mut usize,
    counters: PlaneCounters,
    active: usize,
    idle: usize,
    /// Whether this pass made progress: it starts raised when the pass
    /// accepted a connection or drained a completion, and any read
    /// (bytes or EOF) or write on a connection raises it.
    progress: bool,
}

impl TickCtx<'_> {
    fn snapshot(&self) -> PlaneSnapshot {
        PlaneSnapshot {
            connections_active: self.active,
            connections_idle: self.idle,
            disconnects_idle_timeout: self.counters.idle_timeout,
            disconnects_read_deadline: self.counters.read_deadline,
            disconnects_write_budget: self.counters.write_budget,
            disconnects_write_stall: self.counters.write_stall,
            responses_dropped: self.counters.responses_dropped,
            passes: self.counters.passes,
            clients: self.pending.snapshot(),
        }
    }
}

/// Runs the readiness loop. With a listener it serves until `stop` is
/// raised *and* the drain argument (module docs) completes; without one
/// it returns once `pipe` (when given) has closed and nothing is in
/// flight. Called inline on the serving thread — the plane *is* that
/// thread; only the workers and the pipe forwarder are extra.
///
/// # Errors
///
/// Only a listener that cannot be switched to nonblocking mode;
/// per-connection and per-line failures are typed responses or counted
/// closes, never a dead server.
pub(crate) fn run_plane(
    service: &Arc<Service>,
    queue: &Arc<JobQueue<QueuedJob>>,
    listener: Option<&TcpListener>,
    pipe: Option<Pipe>,
    shared: &Arc<PlaneShared>,
    pending: &Arc<PendingTable>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    if let Some(listener) = listener {
        listener.set_nonblocking(true)?;
    }
    let mut tick = TICK;
    let config = service.config().clone();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 0;
    if let Some(pipe) = pipe {
        let transport = Transport::pipe(pipe, shared);
        let conn = Conn::new(transport, "local".into(), config.max_line, Instant::now());
        conns.insert(next_conn, conn);
        next_conn += 1;
    }
    let mut counters = PlaneCounters::default();
    let mut inflight: usize = 0;
    let mut draining = false;

    loop {
        let now = Instant::now();
        counters.passes += 1;
        let mut progress = false;
        if !draining && stop.load(Ordering::SeqCst) {
            draining = true;
        }

        // Accept burst: everything the backlog holds, up to the cap.
        // The cap is an admission policy, not a thread ceiling — excess
        // connections get a typed one-line refusal and a close.
        if let Some(listener) = listener.filter(|_| !draining) {
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        progress = true;
                        if conns.len() >= config.max_connections {
                            refuse(stream, config.max_connections);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let transport = Transport::Tcp(stream);
                        conns.insert(
                            next_conn,
                            Conn::new(transport, peer.to_string(), config.max_line, now),
                        );
                        next_conn += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break, // WouldBlock or transient: next tick
                }
            }
        }

        // Drain completions. The global in-flight count drops here even
        // when the owning connection is gone — that response is counted
        // dropped, and the drain proof stays an exact ledger.
        for completion in shared.drain() {
            progress = true;
            inflight = inflight.saturating_sub(1);
            match conns.get_mut(&completion.conn) {
                Some(conn) => {
                    conn.inflight = conn.inflight.saturating_sub(1);
                    conn.park(completion.index, completion.line);
                }
                None => counters.responses_dropped += 1,
            }
        }

        // Start-of-tick occupancy for inline metrics answers.
        let active = conns
            .values()
            .filter(|c| c.has_backlog() || c.decoder.mid_line())
            .count();
        let mut ctx = TickCtx {
            service,
            queue,
            pending,
            quota: config.client_pending,
            idle_ms: config.idle_timeout_ms,
            budget_bytes: config.write_budget_bytes,
            stall_ms: config.write_stall_ms,
            draining,
            now,
            inflight: &mut inflight,
            counters,
            active,
            idle: conns.len() - active,
            progress,
        };

        // Step every connection; collect the ones that closed.
        let mut closed: Vec<(u64, Close)> = Vec::new();
        for (&id, conn) in &mut conns {
            if let Some(close) = step_conn(id, conn, &mut ctx) {
                closed.push((id, close));
            }
        }
        let progress = ctx.progress;
        for (id, close) in closed {
            if let Some(mut conn) = conns.remove(&id) {
                if let Close::Forced(kind) = close {
                    counters.count(kind);
                    farewell(&mut conn, kind, &config);
                }
            }
        }

        if (draining || listener.is_none()) && conns.is_empty() && inflight == 0 {
            return Ok(());
        }
        // Without a listener nothing needs a timer: pipes are exempt from
        // the protection policies, and every other event (input,
        // completion) wakes the loop itself. So it sleeps with no timeout.
        tick = next_tick(tick, progress);
        shared.wait(listener.map(|_| tick));
    }
}

/// The sleep after a pass, given the previous one: the floor after
/// progress, else double the previous sleep, capped at [`TICK`].
fn next_tick(prev: Duration, progress: bool) -> Duration {
    if progress {
        TICK_FLOOR
    } else {
        (prev * 2).min(TICK)
    }
}

/// A typed one-line refusal for a connection beyond the cap. The socket
/// is fresh and its buffer empty, so a short blocking write is safe.
fn refuse(mut stream: TcpStream, limit: usize) {
    let line = too_many_connections_response(limit).to_line();
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

/// Best-effort typed notice before a forced close ("where possible": a
/// client that stopped reading may never see it, and that is fine —
/// the close is also counted in metrics).
fn farewell(conn: &mut Conn, kind: DisconnectKind, config: &crate::service::ServiceConfig) {
    let message = match kind {
        DisconnectKind::IdleTimeout => {
            format!("idle for over {}ms; closing", config.idle_timeout_ms)
        }
        DisconnectKind::ReadDeadline => format!(
            "request line unfinished for over {}ms; closing",
            config.idle_timeout_ms
        ),
        DisconnectKind::WriteBudget => format!(
            "over {} bytes of unread responses; closing",
            config.write_budget_bytes
        ),
        DisconnectKind::WriteStall => format!(
            "no read progress for over {}ms; closing",
            config.write_stall_ms
        ),
    };
    let line = disconnect_response(kind, &message).to_line();
    let _ = conn.transport.write_all(line.as_bytes());
    let _ = conn.transport.write_all(b"\n");
}

/// One tick of one connection: read, decode, admit/answer, pour, flush,
/// enforce. Returns how the connection closed, if it did.
fn step_conn(id: u64, conn: &mut Conn, ctx: &mut TickCtx<'_>) -> Option<Close> {
    // The operator's pipe is lossless: while the job queue is full it
    // leaves decoded lines in its decoder and stops reading, so the
    // forwarder blocks on its bounded channel and stdin is back-pressured.
    // The next completion frees a slot and wakes the loop. Sockets are
    // never held: they get a typed `queue_full` instead.
    let pipe = conn.transport.is_pipe();
    let held = |ctx: &TickCtx<'_>| pipe && !ctx.draining && ctx.queue.len() >= ctx.queue.capacity();
    if !ctx.draining {
        pour_lines(id, conn, ctx, held);
    }

    // Read burst, only once every decoded line is admitted. While
    // draining, inbound bytes are read and *discarded* (no new
    // admissions) — leaving them unread would make the eventual close
    // send RST, destroying the very responses the drain protects.
    let mut buf = [0u8; READ_CHUNK];
    let mut burst = READ_BURST;
    while !conn.read_closed && burst > 0 && !held(ctx) {
        burst -= 1;
        match conn.transport.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                ctx.progress = true;
                if !ctx.draining {
                    if let Some(outcome) = conn.decoder.finish() {
                        process_outcome(id, conn, outcome, ctx);
                    }
                }
            }
            Ok(n) => {
                conn.last_activity = ctx.now;
                ctx.progress = true;
                if ctx.draining {
                    continue;
                }
                conn.decoder.feed(&buf[..n]);
                pour_lines(id, conn, ctx, held);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => burst += 1,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            // A socket error ends reading like EOF, but drops any
            // partial line: a reset peer's half line is no request.
            Err(_) => conn.read_closed = true,
        }
    }

    // Pour contiguous responses from the reorder map into the outbuf.
    while let Some(line) = conn.reorder.remove(&conn.next_write) {
        conn.reorder_bytes = conn.reorder_bytes.saturating_sub(line.len());
        if conn.outbuf.is_empty() {
            conn.last_write_progress = ctx.now;
        }
        conn.outbuf.extend(line.as_bytes());
        conn.outbuf.push_back(b'\n');
        conn.next_write += 1;
    }

    // Flush: nonblocking on a socket, blocking on the pipe.
    while !conn.outbuf.is_empty() {
        let (front, _) = conn.outbuf.as_slices();
        match conn.transport.write(front) {
            Ok(0) => break,
            Ok(n) => {
                conn.outbuf.drain(..n);
                conn.last_write_progress = ctx.now;
                ctx.progress = true;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => return Some(Close::Dead),
        }
    }

    // The operator's pipe is exempt from every protection policy.
    if !conn.transport.is_pipe() {
        if let Some(kind) = violated_policy(conn, ctx) {
            return Some(Close::Forced(kind));
        }
    }

    // Graceful close: nothing more will arrive (EOF or drain) and
    // nothing is left to deliver.
    if (conn.read_closed || ctx.draining) && !conn.has_backlog() {
        return Some(Close::Graceful);
    }
    None
}

/// Processes the connection's decoded lines in order until none is left
/// or `held` says to stop.
fn pour_lines(
    id: u64,
    conn: &mut Conn,
    ctx: &mut TickCtx<'_>,
    held: impl Fn(&TickCtx<'_>) -> bool,
) {
    while !held(ctx) {
        let Some(outcome) = conn.decoder.pop() else {
            return;
        };
        process_outcome(id, conn, outcome, ctx);
    }
}

/// The protection policy a socket connection has broken, if any, in
/// escalating order of specificity. The budget bounds everything owed
/// to the peer — unsent outbuf bytes *and* responses still parked in
/// the reorder map — so a client flooding inline requests behind one
/// slow job cannot grow the daemon's memory unboundedly.
fn violated_policy(conn: &Conn, ctx: &TickCtx<'_>) -> Option<DisconnectKind> {
    if ctx.budget_bytes > 0 && conn.buffered_bytes() > ctx.budget_bytes {
        return Some(DisconnectKind::WriteBudget);
    }
    let stall_ms = if ctx.draining && ctx.stall_ms == 0 {
        DRAIN_STALL_MS
    } else {
        ctx.stall_ms
    };
    if stall_ms > 0
        && !conn.outbuf.is_empty()
        && ctx.now.duration_since(conn.last_write_progress).as_millis() as u64 > stall_ms
    {
        return Some(DisconnectKind::WriteStall);
    }
    if !ctx.draining
        && ctx.idle_ms > 0
        && !conn.read_closed
        && !conn.has_backlog()
        && ctx.now.duration_since(conn.last_activity).as_millis() as u64 > ctx.idle_ms
    {
        // Same clock, two meanings: a quiet connection is merely idle; a
        // connection quiet *mid-line* is half-open and will never finish
        // its frame.
        return Some(if conn.decoder.mid_line() {
            DisconnectKind::ReadDeadline
        } else {
            DisconnectKind::IdleTimeout
        });
    }
    None
}

/// Handles one framed line: admit a job, answer a monitoring op inline,
/// or produce a typed error. Empty lines consume no index; every other
/// line consumes exactly one.
fn process_outcome(id: u64, conn: &mut Conn, outcome: LineOutcome, ctx: &mut TickCtx<'_>) {
    let response = match outcome {
        LineOutcome::Malformed(frame) => frame_error_response(&frame),
        LineOutcome::Line(line) => {
            if line.trim().is_empty() {
                return;
            }
            match parse_request(&line) {
                Ok(Request::Job(job)) => {
                    let client = job.client.clone().unwrap_or_else(|| conn.peer.clone());
                    // The pipe's jobs are still counted, never refused.
                    let quota = if conn.transport.is_pipe() {
                        usize::MAX
                    } else {
                        ctx.quota
                    };
                    match ctx.pending.try_acquire(&client, quota) {
                        Err(held) => {
                            ctx.service.note_quota_rejection();
                            quota_response(Some(job.id), held, quota)
                        }
                        Ok(()) => {
                            let queued = QueuedJob {
                                job,
                                conn: id,
                                index: conn.next_index,
                                client: client.clone(),
                            };
                            match ctx.queue.try_submit(queued) {
                                Ok(()) => {
                                    conn.inflight += 1;
                                    *ctx.inflight += 1;
                                    conn.next_index += 1;
                                    return;
                                }
                                Err((rejected, full)) => {
                                    ctx.pending.release(&client);
                                    ctx.service.note_rejection();
                                    reject_response(Some(rejected.job.id), full)
                                }
                            }
                        }
                    }
                }
                Ok(Request::Stats { id }) => ctx.service.stats_response(id),
                Ok(Request::Health { id }) => ctx.service.health_response(id),
                Ok(Request::Metrics { id }) => ctx.service.metrics_response_with_plane(
                    id,
                    ctx.queue.len(),
                    Some(&ctx.snapshot()),
                ),
                Ok(Request::Define(req)) => ctx.service.define_response(&req, &conn.peer),
                Err(e) => error_response(id_hint(&line), &e),
            }
        }
    };
    let index = conn.next_index;
    conn.park(index, response.to_line());
    conn.next_index += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_table_scopes_quotas_per_client() {
        let table = PendingTable::new();
        assert!(table.try_acquire("a", 2).is_ok());
        assert!(table.try_acquire("a", 2).is_ok());
        assert_eq!(table.try_acquire("a", 2), Err(2), "a is at quota");
        assert!(table.try_acquire("b", 2).is_ok(), "b has its own quota");
        table.release("a");
        assert!(table.try_acquire("a", 2).is_ok(), "released slot reusable");
        assert_eq!(
            table.snapshot(),
            vec![("a".to_string(), 2), ("b".to_string(), 1)],
            "snapshot is sorted and live"
        );
        table.release("b");
        assert_eq!(
            table.snapshot(),
            vec![("a".to_string(), 2)],
            "zero entries are dropped"
        );
        // Releasing an unknown client is a no-op, never a panic.
        table.release("ghost");
    }

    #[test]
    fn plane_shared_delivers_in_order_and_wakes() {
        let shared = PlaneShared::new();
        shared.deliver(Completion {
            conn: 1,
            index: 0,
            line: "first".into(),
        });
        shared.deliver(Completion {
            conn: 2,
            index: 3,
            line: "second".into(),
        });
        let drained = shared.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].line, "first");
        assert_eq!(drained[1].conn, 2);
        assert!(shared.drain().is_empty());
        // An empty wait returns promptly at the timeout (smoke check
        // that the condvar path cannot deadlock).
        let start = Instant::now();
        shared.wait(Some(Duration::from_millis(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn pipe_is_exempt_from_the_protection_policies() {
        let service = Arc::new(Service::new(
            crate::service::ServiceConfig::new().workers(1),
        ));
        let queue = Arc::new(JobQueue::new(4, 1));
        let pending = Arc::new(PendingTable::new());
        // A held-open pipe that went quiet mid-line a second ago.
        let (_input, chunks) = mpsc::sync_channel(READ_BURST);
        let transport = Transport::Pipe {
            chunks,
            output: Box::new(std::io::sink()),
        };
        let now = Instant::now();
        let quiet_since = now.checked_sub(Duration::from_secs(1)).unwrap_or(now);
        let mut conn = Conn::new(transport, "local".into(), 64, quiet_since);
        conn.decoder.feed(b"{\"id\":1");
        let mut inflight = 0;
        let mut ctx = TickCtx {
            service: &service,
            queue: &queue,
            pending: &pending,
            quota: 1,
            idle_ms: 10,
            budget_bytes: 1,
            stall_ms: 10,
            draining: false,
            now,
            inflight: &mut inflight,
            counters: PlaneCounters::default(),
            active: 1,
            idle: 0,
            progress: false,
        };
        assert_eq!(
            violated_policy(&conn, &ctx),
            Some(DisconnectKind::ReadDeadline),
            "a socket in this state would be closed"
        );
        assert!(
            step_conn(0, &mut conn, &mut ctx).is_none(),
            "the pipe stays"
        );
    }

    #[test]
    fn tick_drops_to_the_floor_on_progress_and_backs_off_when_quiet() {
        assert_eq!(next_tick(TICK, true), TICK_FLOOR, "progress resets");
        assert_eq!(next_tick(TICK_FLOOR, true), TICK_FLOOR);
        let mut tick = TICK_FLOOR;
        let mut quiet_passes = 0;
        while tick < TICK {
            let next = next_tick(tick, false);
            assert_eq!(next, (tick * 2).min(TICK), "each quiet pass doubles");
            tick = next;
            quiet_passes += 1;
        }
        assert!(
            quiet_passes <= 5,
            "{quiet_passes} quiet passes to reach TICK"
        );
        assert_eq!(next_tick(TICK, false), TICK, "capped at TICK");
    }

    #[test]
    fn counters_route_by_kind() {
        let mut counters = PlaneCounters::default();
        counters.count(DisconnectKind::IdleTimeout);
        counters.count(DisconnectKind::WriteBudget);
        counters.count(DisconnectKind::WriteBudget);
        counters.count(DisconnectKind::ReadDeadline);
        counters.count(DisconnectKind::WriteStall);
        assert_eq!(counters.idle_timeout, 1);
        assert_eq!(counters.read_deadline, 1);
        assert_eq!(counters.write_budget, 2);
        assert_eq!(counters.write_stall, 1);
        assert_eq!(counters.responses_dropped, 0);
    }
}

//! The event-driven TCP server: **one event thread owns every socket**
//! through a readiness loop ([`crate::poll::Poller`] — epoll on Linux),
//! and a small fixed worker pool does only CPU work.
//!
//! Connections are **keep-alive** and cheap while idle: an open
//! connection costs one fd plus its buffers, so thousands of mostly-idle
//! clients can stay connected while `workers` stays in the single digits
//! — `workers` bounds concurrent *CPU* work, not concurrent
//! *connections* (the C10K shape the old one-worker-owns-a-connection
//! design could not serve). Complete request frames are handed to the
//! worker pool over a bounded queue and replies are written back in
//! completion order — **possibly out of order** within a connection,
//! which is exactly what the envelope correlation id exists for; clients
//! may pipeline up to [`NetConfig::max_pipeline`] requests per
//! connection before the server stops reading from it (natural TCP
//! backpressure, never an error).
//!
//! The protections carry over from the threaded design: oversized
//! frames are answered with a well-formed error and the connection
//! drained before close (so the reply is not lost to an RST), a
//! mid-frame stall is swept after [`NetConfig::read_timeout`] (the
//! slow-loris budget — an *idle* connection, with no partial frame
//! buffered, never expires), requests past [`NetConfig::queue_depth`]
//! are shed with a busy envelope echoing their correlation id (the
//! connection stays open), connections past
//! [`NetConfig::max_connections`] are shed at accept, and graceful
//! shutdown drains dispatched requests and flushes their replies before
//! joining every thread.

use crate::frame::{DEFAULT_MAX_FRAME, LEN_PREFIX};
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::poll::{Event, Poller};
use p2drm_core::service::{
    correlation_hint, ApiError, ApiErrorCode, ProviderService, ResponseEnvelope, WireResponse,
};
use p2drm_store::ConcurrentKv;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Anything the server can put behind a socket: one total function from
/// request bytes to response bytes, callable from many worker threads.
pub trait NetService: Send + Sync + 'static {
    /// Answers one request. Must be total — malformed input yields an
    /// error *response*, never a panic (the wire service already is).
    fn handle(&self, request: &[u8]) -> Vec<u8>;
}

impl<B> NetService for ProviderService<B>
where
    B: ConcurrentKv + Send + Sync + 'static,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        ProviderService::handle(self, request)
    }
}

/// Adapter turning a closure into a [`NetService`] (test middleware:
/// inject latency, count requests, wrap a real service).
pub struct ServiceFn<F>(pub F);

impl<F> NetService for ServiceFn<F>
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        (self.0)(request)
    }
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Worker threads — the concurrent **CPU work** bound (no longer a
    /// connection bound: the event thread holds every connection).
    pub workers: usize,
    /// Open connections the server holds before shedding new ones at
    /// accept with a busy response.
    pub max_connections: usize,
    /// Dispatched-but-unclaimed **requests** the worker hand-off queue
    /// buffers; past it, requests are shed with a busy envelope echoing
    /// their correlation id while the connection stays open.
    pub queue_depth: usize,
    /// Hard cap on request/response frame payloads.
    pub max_frame: u32,
    /// The slow-loris budget: once a frame has started arriving, it
    /// must complete within this duration or the connection is dropped.
    /// Idle connections (no partial frame buffered) never expire.
    pub read_timeout: Duration,
    /// How long a connection's outbound buffer may sit unflushed (the
    /// peer not draining) before the connection is dropped.
    pub write_timeout: Duration,
    /// Requests one connection may have dispatched-but-unanswered
    /// before the server stops reading from it until replies drain
    /// (per-connection pipelining cap → TCP backpressure).
    pub max_pipeline: usize,
    /// Metrics registry the server contributes to when set: the
    /// [`ServerMetrics`] register as a weak source (so one registry
    /// snapshot includes the `net_*` counters) and dispatch→reply
    /// latency lands in the registry's `net_dispatch_ns` histogram.
    pub registry: Option<Arc<p2drm_obs::Registry>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            max_connections: 64,
            queue_depth: 16,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(1),
            max_pipeline: 32,
            registry: None,
        }
    }
}

impl NetConfig {
    /// Short timeouts for tests: malformed-frame sweeps and shutdown
    /// paths resolve in tens of milliseconds.
    pub fn fast_test() -> Self {
        NetConfig {
            read_timeout: Duration::from_millis(60),
            write_timeout: Duration::from_millis(500),
            ..Self::default()
        }
    }
}

/// One decoded request frame on its way to a worker.
struct Job {
    conn: u64,
    request: Vec<u8>,
    /// When the event thread queued the frame; the worker records
    /// dispatch→reply latency (queue wait + service time) from it.
    queued_at: Instant,
}

/// One service reply on its way back to the event thread.
struct Reply {
    conn: u64,
    bytes: Vec<u8>,
}

/// State shared by the event thread, the workers, and the handle.
struct Control {
    config: NetConfig,
    metrics: Arc<ServerMetrics>,
    /// Dispatch→reply latency; shared with [`NetConfig::registry`] as
    /// `net_dispatch_ns` when one was supplied, free-floating otherwise.
    dispatch_ns: Arc<p2drm_obs::AtomicHistogram>,
    shutdown: AtomicBool,
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    replies: Mutex<Vec<Reply>>,
    /// Worker-side end of the self-wake pipe: one byte here wakes the
    /// event thread out of its poll wait. Non-blocking, so a full pipe
    /// never blocks a worker (a wake is already pending in that case).
    waker: UnixStream,
}

/// Poisoned locks are recovered, not propagated: both queues hold plain
/// values, so a panicking holder cannot leave them inconsistent.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Control {
    fn wake_event_thread(&self) {
        let _ = (&self.waker).write(&[1u8]);
    }
}

/// The TCP front of a wire service.
pub struct DrmServer;

impl DrmServer {
    /// Binds `addr` (use port 0 for an OS-assigned port), spawns the
    /// event thread and `config.workers` workers, and returns the
    /// running server's handle. The service is shared by every worker.
    pub fn bind<S: NetService>(
        addr: impl ToSocketAddrs,
        service: S,
        config: NetConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let metrics = Arc::new(ServerMetrics::new());
        let dispatch_ns = match &config.registry {
            Some(registry) => {
                let weak = Arc::downgrade(&metrics);
                registry.register_source(
                    weak as std::sync::Weak<dyn p2drm_obs::MetricSource + Send + Sync>,
                );
                registry.histogram("net_dispatch_ns")
            }
            None => Arc::new(p2drm_obs::AtomicHistogram::new()),
        };
        let control = Arc::new(Control {
            config: config.clone(),
            metrics,
            dispatch_ns,
            shutdown: AtomicBool::new(false),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            replies: Mutex::new(Vec::new()),
            waker: wake_tx,
        });
        let service = Arc::new(service);

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let control = control.clone();
            let service = service.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("p2drm-net-worker-{i}"))
                    .spawn(move || worker_loop(&control, service.as_ref()))?,
            );
        }
        let event = {
            let control = control.clone();
            let poller = Poller::new()?;
            thread::Builder::new()
                .name("p2drm-net-event".into())
                .spawn(move || EventLoop::new(listener, wake_rx, poller, control).run())?
        };

        Ok(ServerHandle {
            control,
            local_addr,
            event: Some(event),
            workers,
        })
    }
}

/// Handle to a running [`DrmServer`]: address, live metrics, shutdown.
///
/// Dropping the handle also shuts the server down (and joins every
/// thread), so a panicking test cannot leak a listener.
pub struct ServerHandle {
    control: Arc<Control>,
    local_addr: SocketAddr,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.control.metrics.snapshot()
    }

    /// Graceful shutdown: stops accepting, lets every dispatched
    /// request finish and its reply flush to the peer, joins all
    /// threads, and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.control.metrics.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.control.shutdown.store(true, Ordering::SeqCst);
        self.control.jobs_cv.notify_all();
        self.control.wake_event_thread();
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A well-formed error response envelope. Correlation id 0 marks a
/// *pre-decode* reply (no request id was available to echo).
fn error_envelope(correlation_id: u64, code: ApiErrorCode, detail: &str) -> Vec<u8> {
    ResponseEnvelope {
        correlation_id,
        body: WireResponse::Error(ApiError::new(code, detail)),
    }
    .to_bytes()
}

/// Base unit of the busy envelope's `retry_after_ms` hint.
const BUSY_RETRY_UNIT_MS: u32 = 5;

/// Backpressure hint for a shed: `unit × (1 + load/capacity)` — one unit
/// when lightly oversubscribed, growing linearly as `load` climbs past
/// `capacity` (a storm of queued work or parked connections tells
/// clients to stay away proportionally longer). Never zero: a busy
/// envelope always carries a hint.
fn busy_retry_after_ms(load: usize, capacity: usize) -> u32 {
    let ratio = (load / capacity.max(1)).min(64) as u32;
    BUSY_RETRY_UNIT_MS * (1 + ratio)
}

/// A busy/shed envelope: [`ApiErrorCode::ServiceUnavailable`] carrying
/// the [`busy_retry_after_ms`] hint, so shedding degrades cooperatively
/// instead of inviting an immediate re-hammer.
fn busy_envelope(correlation_id: u64, detail: &str, load: usize, capacity: usize) -> Vec<u8> {
    ResponseEnvelope {
        correlation_id,
        body: WireResponse::Error(
            ApiError::new(ApiErrorCode::ServiceUnavailable, detail)
                .with_retry_after(busy_retry_after_ms(load, capacity)),
        ),
    }
    .to_bytes()
}

fn worker_loop<S: NetService>(control: &Control, service: &S) {
    loop {
        let job = {
            let mut jobs = lock(&control.jobs);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if control.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = control
                    .jobs_cv
                    .wait_timeout(jobs, Duration::from_millis(50))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                jobs = guard;
            }
        };
        let Some(job) = job else { return };
        let bytes = service.handle(&job.request);
        control.dispatch_ns.record_duration(job.queued_at.elapsed());
        control.metrics.request_served();
        lock(&control.replies).push(Reply {
            conn: job.conn,
            bytes,
        });
        control.wake_event_thread();
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The event loop's poll tick: bounds the latency of deadline sweeps
/// and shutdown detection when no socket is ready.
const TICK: Duration = Duration::from_millis(25);

/// Outbound bytes buffered on one connection before the server stops
/// reading more requests from it (on top of the pipelining cap).
const WBUF_HIGHWATER: usize = 256 * 1024;

/// How long an error/shed connection gets to drain its inbound bytes
/// before being closed outright (the RST-avoidance window: closing with
/// unread receive data makes Linux send RST, which can discard the
/// error envelope buffered at the peer).
const DRAIN_WINDOW: Duration = Duration::from_millis(250);

/// Why a connection stopped being readable.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReadState {
    /// Still reading requests.
    Open,
    /// Peer half-closed cleanly (EOF on a frame boundary or not).
    PeerClosed,
    /// The socket errored; nothing more can be written either.
    Dead,
}

/// Per-connection state owned by the event thread.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet parsed into frames.
    rbuf: Vec<u8>,
    /// Outbound bytes not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// Progress into `wbuf`.
    wpos: usize,
    /// Requests dispatched to workers whose replies have not yet been
    /// queued for writing.
    inflight: usize,
    /// Whether this connection participates in the open/idle gauges
    /// (admitted conns do; shed-at-accept drain stubs do not).
    counted: bool,
    read: ReadState,
    /// Set on protocol errors and accept-shed: flush `wbuf`, half-close,
    /// drain briefly, then close — never parse another byte.
    draining: bool,
    /// Half-close performed (drain phase entered).
    sent_fin: bool,
    /// Slow-loris budget: armed while `rbuf` holds a partial frame.
    frame_deadline: Option<Instant>,
    /// Peer-not-draining budget: armed while `wbuf` has unflushed bytes.
    write_deadline: Option<Instant>,
    /// Hard close for a draining connection.
    drain_deadline: Option<Instant>,
    /// Interests currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

struct EventLoop {
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    poller: Poller,
    control: Arc<Control>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Set once shutdown is observed: no new accepts, no new parses.
    stopping: bool,
    /// Hard deadline for the shutdown drain.
    stop_deadline: Option<Instant>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        poller: Poller,
        control: Arc<Control>,
    ) -> Self {
        EventLoop {
            listener: Some(listener),
            wake_rx,
            poller,
            control,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            stopping: false,
            stop_deadline: None,
        }
    }

    fn run(mut self) {
        if let Some(listener) = &self.listener {
            if self
                .poller
                .register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)
                .is_err()
            {
                return;
            }
        }
        if self
            .poller
            .register(self.wake_rx.as_raw_fd(), TOKEN_WAKER, true, false)
            .is_err()
        {
            return;
        }

        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            let fired = std::mem::take(&mut events);
            for ev in &fired {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.conn_ready(token, ev.readable, ev.writable, ev.hangup),
                }
            }
            events = fired;
            // Replies may have been queued by workers whether or not the
            // waker byte coalesced with other events — always drain.
            self.flush_replies();
            self.sweep_deadlines();
            if self.shutdown_step() {
                break;
            }
        }
        // Close everything still open (metrics stay consistent).
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    // -- accept path ----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE, aborted handshake)
                // must not kill the loop.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        self.control.metrics.connection_accepted();
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let over_capacity = self.conns.len() >= self.control.config.max_connections;
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            counted: !over_capacity,
            read: ReadState::Open,
            draining: false,
            sent_fin: false,
            frame_deadline: None,
            write_deadline: None,
            drain_deadline: None,
            want_read: false,
            want_write: false,
        };
        if over_capacity {
            // Shed with a decodable busy envelope instead of an opaque
            // reset; the conn lives on briefly as a drain stub. The
            // retry hint scales with how far past the connection limit
            // the accept stream is running.
            self.control.metrics.busy_rejection();
            let frame = busy_envelope(
                0,
                "server busy: connection limit reached",
                self.conns.len(),
                self.control.config.max_connections,
            );
            queue_frame(&mut conn, &frame);
            conn.draining = true;
            conn.drain_deadline = Some(Instant::now() + DRAIN_WINDOW);
        } else {
            self.control.metrics.connection_opened();
            self.control.metrics.idle_inc();
        }
        if self
            .poller
            .register(conn.stream.as_raw_fd(), token, false, false)
            .is_err()
        {
            if conn.counted {
                self.control.metrics.connection_closed();
                self.control.metrics.idle_dec();
            }
            return;
        }
        self.conns.insert(token, conn);
        self.try_write(token);
        self.update_interest(token);
    }

    // -- waker / worker replies -----------------------------------------

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn flush_replies(&mut self) {
        let replies: Vec<Reply> = std::mem::take(&mut *lock(&self.control.replies));
        for reply in replies {
            let token = reply.conn;
            let Some(conn) = self.conns.get_mut(&token) else {
                // The connection died while its request was in a worker;
                // the reply has nowhere to go.
                continue;
            };
            conn.inflight -= 1;
            if conn.counted && conn.inflight == 0 {
                self.control.metrics.idle_inc();
            }
            if reply.bytes.len() > self.control.config.max_frame as usize {
                // Deliberately no error envelope: the op *was*
                // dispatched, and an error reply would make clients
                // unwind state that must instead be settled by resending
                // the request. Count it and close so the client sees a
                // broken connection.
                self.control.metrics.oversized_reply();
                self.close_conn(token);
                continue;
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            queue_frame(conn, &reply.bytes);
            self.try_write(token);
            // Replies freed pipeline slots: frames parked in rbuf by the
            // pipelining cap may now dispatch.
            self.parse_frames(token);
            self.maybe_close(token);
            self.update_interest(token);
        }
    }

    // -- per-connection readiness ---------------------------------------

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if writable {
            self.try_write(token);
        }
        if readable || hangup {
            self.try_read(token);
        }
        self.maybe_close(token);
        self.update_interest(token);
    }

    fn try_read(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.read != ReadState::Open {
            return;
        }
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.read = ReadState::PeerClosed;
                    break;
                }
                Ok(n) => {
                    if conn.draining {
                        // Error/shed path: discard inbound bytes so the
                        // eventual close sends FIN, not RST.
                        continue;
                    }
                    // lint: allow(panic, read returns n <= scratch.len())
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                    // Level-triggered polling re-delivers the event, so
                    // bounding the bytes taken per wake keeps one loud
                    // connection from starving the rest.
                    if conn.rbuf.len() >= 256 * 1024 {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read = ReadState::Dead;
                    break;
                }
            }
        }
        self.parse_frames(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.read != ReadState::Open && !conn.rbuf.is_empty() && !conn.draining {
            // The stream ended mid-frame: a torn frame.
            self.control.metrics.decode_error();
            conn.rbuf.clear();
            conn.frame_deadline = None;
        }
        if conn.read == ReadState::Dead {
            self.close_conn(token);
        }
    }

    /// Parses every complete frame out of `rbuf` and dispatches it,
    /// respecting the pipelining cap and the shutdown freeze.
    fn parse_frames(&mut self, token: u64) {
        let stopping = self.stopping;
        let config = self.control.config.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.draining || stopping {
            return;
        }
        let mut pos = 0usize;
        let mut reject: Option<(u32, u32)> = None;
        while conn.inflight < config.max_pipeline {
            let remaining = conn.rbuf.len() - pos;
            if remaining < LEN_PREFIX {
                break;
            }
            let mut word = [0u8; LEN_PREFIX];
            // lint: allow(panic, remaining >= LEN_PREFIX checked above)
            word.copy_from_slice(&conn.rbuf[pos..pos + LEN_PREFIX]);
            let len = u32::from_le_bytes(word);
            if len > config.max_frame {
                reject = Some((len, config.max_frame));
                break;
            }
            let frame_end = pos + LEN_PREFIX + len as usize;
            if conn.rbuf.len() < frame_end {
                break;
            }
            // lint: allow(panic, frame_end <= rbuf.len() checked above)
            let request = conn.rbuf[pos + LEN_PREFIX..frame_end].to_vec();
            pos = frame_end;

            // Dispatch or shed. The jobs lock is uncontended in the
            // common case (workers hold it only to pop).
            let shed = {
                let mut jobs = lock(&self.control.jobs);
                if jobs.len() >= config.queue_depth {
                    Some((request, jobs.len()))
                } else {
                    jobs.push_back(Job {
                        conn: token,
                        request,
                        queued_at: Instant::now(),
                    });
                    None
                }
            };
            if let Some((request, queued)) = shed {
                // The retry hint scales with the backlog the queue is
                // carrying relative to its configured depth.
                self.control.metrics.busy_rejection();
                let frame = busy_envelope(
                    correlation_hint(&request),
                    "server busy: request queue full",
                    queued,
                    config.queue_depth,
                );
                queue_frame(conn, &frame);
            } else {
                self.control.jobs_cv.notify_one();
                if conn.counted && conn.inflight == 0 {
                    self.control.metrics.idle_dec();
                }
                conn.inflight += 1;
                self.control.metrics.pipeline_depth(conn.inflight as u64);
            }
        }
        if pos > 0 {
            conn.rbuf.drain(..pos);
        }
        if let Some((len, max)) = reject {
            // Oversized advertised length: resync is impossible in a
            // length-prefixed protocol once the payload is refused.
            // Answer well-formed, then drain and close.
            self.control.metrics.decode_error();
            let frame = error_envelope(
                0,
                ApiErrorCode::MalformedRequest,
                &format!("frame of {len} bytes exceeds the {max}-byte limit"),
            );
            queue_frame(conn, &frame);
            conn.rbuf.clear();
            conn.frame_deadline = None;
            conn.draining = true;
            conn.drain_deadline = Some(Instant::now() + DRAIN_WINDOW);
            self.try_write(token);
            return;
        }
        // The slow-loris budget: armed while a partial frame is
        // buffered, cleared the moment the buffer is empty. A paused
        // (pipeline-capped) connection with only complete frames parked
        // is *not* mid-frame, but we cannot cheaply distinguish "parked
        // complete frame" from "partial frame" without reparsing — and a
        // parked frame is drained by flush_replies long before the
        // budget fires, so arming on any buffered bytes is safe.
        if conn.rbuf.is_empty() {
            conn.frame_deadline = None;
        } else if conn.frame_deadline.is_none() && conn.inflight < config.max_pipeline {
            conn.frame_deadline = Some(Instant::now() + config.read_timeout);
        }
        self.try_write(token);
    }

    // -- writing ---------------------------------------------------------

    fn try_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.pending_write() > 0 {
            // lint: allow(panic, pending_write() > 0 implies wpos <= wbuf.len())
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.read = ReadState::Dead;
                    break;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.write_deadline = Some(Instant::now() + self.control.config.write_timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read = ReadState::Dead;
                    break;
                }
            }
        }
        if conn.pending_write() == 0 {
            conn.wbuf.clear();
            conn.wpos = 0;
            conn.write_deadline = None;
            if conn.draining && !conn.sent_fin {
                // Everything owed is flushed: half-close and let the
                // drain window run so the peer can read the reply.
                conn.sent_fin = true;
                let _ = conn.stream.shutdown(Shutdown::Write);
            }
        }
        if conn.read == ReadState::Dead {
            self.close_conn(token);
        }
    }

    // -- lifecycle -------------------------------------------------------

    /// Closes the connection when nothing more can happen on it.
    fn maybe_close(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let done = if conn.draining {
            // Drain stubs close when the peer closed too (clean FIN
            // exchange) or the window expires (swept elsewhere).
            conn.read == ReadState::PeerClosed && conn.pending_write() == 0
        } else {
            conn.read == ReadState::PeerClosed && conn.inflight == 0 && conn.pending_write() == 0
        };
        if done {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.counted {
            self.control.metrics.connection_closed();
            if conn.inflight == 0 {
                self.control.metrics.idle_dec();
            }
        }
    }

    /// Recomputes and applies this connection's poller interests.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let stopping = self.stopping;
        let want_read = conn.read == ReadState::Open
            && (conn.draining
                || (!stopping
                    && conn.inflight < self.control.config.max_pipeline
                    && conn.pending_write() < WBUF_HIGHWATER));
        let want_write = conn.pending_write() > 0;
        if want_read != conn.want_read || want_write != conn.want_write {
            conn.want_read = want_read;
            conn.want_write = want_write;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, token, want_read, want_write);
        }
    }

    // -- periodic work ---------------------------------------------------

    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let mut torn = Vec::new();
        let mut stalled = Vec::new();
        let mut drained = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.frame_deadline.is_some_and(|d| now >= d) {
                torn.push(token);
            } else if conn.write_deadline.is_some_and(|d| now >= d) {
                stalled.push(token);
            } else if conn.draining && conn.drain_deadline.is_some_and(|d| now >= d) {
                drained.push(token);
            }
        }
        for token in torn {
            // Mid-frame stall past the budget: the slow-loris defense.
            self.control.metrics.decode_error();
            self.close_conn(token);
        }
        for token in stalled {
            // The peer is not draining its replies.
            self.close_conn(token);
        }
        for token in drained {
            self.close_conn(token);
        }
    }

    /// Drives the graceful-shutdown state machine; `true` means the
    /// loop should exit.
    fn shutdown_step(&mut self) -> bool {
        if !self.control.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if !self.stopping {
            self.stopping = true;
            // Deadline for the drain: dispatched work gets to finish,
            // but a wedged service cannot hold shutdown hostage.
            self.stop_deadline = Some(Instant::now() + Duration::from_secs(10));
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
            // Freeze parsing: recompute every conn's interests.
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.update_interest(token);
            }
        }
        let jobs_pending = !lock(&self.control.jobs).is_empty();
        let replies_pending = !lock(&self.control.replies).is_empty();
        let inflight: usize = self.conns.values().map(|c| c.inflight).sum();
        let unflushed = self.conns.values().any(|c| c.pending_write() > 0);
        let drained = !jobs_pending && !replies_pending && inflight == 0 && !unflushed;
        drained || self.stop_deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Appends one length-prefixed frame to the connection's outbound
/// buffer, arming the write deadline if the buffer was empty.
fn queue_frame(conn: &mut Conn, payload: &[u8]) {
    if conn.wbuf.is_empty() {
        conn.write_deadline = None; // re-armed by the first write attempt
    }
    conn.wbuf
        .extend_from_slice(&(payload.len() as u32).to_le_bytes());
    conn.wbuf.extend_from_slice(payload);
}

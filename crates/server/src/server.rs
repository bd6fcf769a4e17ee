//! The one front end: a readiness-driven accept/read loop (non-blocking
//! sockets + `poll(2)`) that serves both the judge and the fleet router.
//!
//! One event-loop thread owns every socket's *read* side: it polls the
//! listener and all connections, feeds each connection's readable bytes
//! to its [`proto::FrameReader`], authenticates and decodes each complete
//! frame, and hands the request to its front end's [`Handler`]. The
//! judge's handler runs requests on the shared work-stealing pool
//! (`rayon::spawn`); the router's runs each on its own thread, because a
//! routed request blocks on backend sockets. Responses are written by
//! those jobs through a per-connection [`ConnWriter`] (a `try_clone`d
//! socket behind a mutex), so out-of-order completion across a
//! connection's in-flight requests is the normal case — WDTP correlation
//! ids let the client match them up. Idle connections therefore cost one
//! file descriptor and a little state, not a parked thread.
//!
//! When a [`KeyRing`] is configured, each frame's tenant/sequence/tag
//! fields (WDTP v5) are verified before the payload is decoded: a bad tag
//! or a replayed sequence is answered with a structured `AuthFailed`
//! fault and the connection stays open (framing is intact), while the
//! offending frame is dropped without reaching the handler. Without a key
//! ring the front end is open and every frame maps to the anonymous
//! tenant.

use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use wdte_core::error::{WatermarkError, WatermarkResult};
use wdte_core::proto::{
    self, DocketVerdict, FrameRead, FrameReader, PayloadDigest, Request, Response, WireFault,
};
use wdte_core::{persist, DisputeService, KeyRing, OwnershipClaim, SharedDispute, TenantId};

#[cfg(not(unix))]
compile_error!("wdte-server's readiness loop is built on poll(2) and requires a unix target");

/// Minimal FFI surface over `poll(2)`. This module is the only place in
/// this crate allowed to use `unsafe` (the crate root carries
/// `#![deny(unsafe_code)]`; the workspace-wide policy is in
/// `docs/ARCHITECTURE.md`): the build environment is offline, so the
/// usual `libc`/`mio` crates are unavailable and the one syscall std does
/// not wrap has to be declared by hand. std itself links libc, so the
/// symbol is always present.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    /// Layout-compatible mirror of C's `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    /// Polls `fds` for up to `timeout_ms` (0 = immediate, negative =
    /// forever), returning how many entries have non-zero `revents`.
    /// Retries on `EINTR`.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of
            // `#[repr(C)]` structs matching the kernel's pollfd layout,
            // valid for the whole call, and `nfds` is its exact length;
            // the kernel only writes within the slice (the `revents`
            // fields).
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
    }

    /// Polls a single descriptor, returning whether it became ready.
    pub fn poll_one(fd: i32, events: i16, timeout_ms: i32) -> io::Result<bool> {
        let mut fds = [PollFd {
            fd,
            events,
            revents: 0,
        }];
        Ok(poll_fds(&mut fds, timeout_ms)? > 0)
    }
}

/// Poll timeout of the event loop. Bounds how quickly the loop notices a
/// shutdown request, a connection whose pipeline-cap pause should lift,
/// and idle reaping — without a self-pipe, this tick is the wake-up of
/// last resort.
const POLL_TICK_MS: i32 = 20;

/// Deadline on writing one frame, towards a client or (from the router)
/// a backend. A worker delivering to a peer that stops draining its
/// socket gives up, and closes the connection, after this long, so a
/// stalled peer cannot pin pool workers indefinitely.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Tuning knobs of a [`JudgeServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Cap on concurrently open connections; arrivals beyond it wait in
    /// the listener's accept queue until a slot frees (TCP backpressure).
    /// `0` means unlimited, matching the 0-disables convention of every
    /// other knob in the workspace (`max_docket(0)`, the `serve_judge`
    /// flags) — with the readiness loop an idle connection costs a file
    /// descriptor, not a thread, so unlimited is a reasonable choice on
    /// trusted networks.
    pub max_connections: usize,
    /// Idle reaping: a connection with no in-flight requests and no bytes
    /// received for this long is closed. `None` keeps idle connections
    /// forever — only sensible on trusted networks.
    pub read_timeout: Option<Duration>,
    /// Per-connection cap on decoded requests in flight at once. A
    /// connection at the cap stops being polled for reads until a
    /// response completes — pipelining backpressure, so one greedy client
    /// cannot queue unbounded work. `0` means unlimited.
    pub max_pipeline: usize,
    /// Per-request width limit scoped (via the rayon shim's virtual
    /// [`rayon::ThreadPool`] handle) around each request's processing.
    /// All requests share the one process-global work-stealing pool —
    /// sized by `serve_judge --workers` through
    /// [`rayon::ThreadPoolBuilder::build_global`] — and this limit caps
    /// how wide each request's dispute × batch-shard fan-out splits on
    /// that shared pool; `0` imposes no per-request limit (requests use
    /// the whole pool).
    pub worker_threads: usize,
    /// Tenant keys for frame authentication. `None` (the default) serves
    /// an open judge: the auth fields of each frame are ignored and every
    /// request runs as the anonymous tenant. `Some` requires every frame
    /// to carry a valid tenant id, a strictly increasing per-connection
    /// sequence and an HMAC-SHA-256 tag over the payload.
    pub key_ring: Option<Arc<KeyRing>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            read_timeout: Some(Duration::from_secs(120)),
            max_pipeline: 64,
            worker_threads: 0,
            key_ring: None,
        }
    }
}

/// Cloneable remote control for a serving [`JudgeServer`]: signals the
/// event loop to stop from any thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Requests shutdown: the event loop exits at its next wake-up (the
    /// ~20 ms poll tick bounds the wait). A nudge
    /// connection is opened (and immediately closed) as a belt-and-braces
    /// wake-up; requests already dispatched finish on the worker pool.
    ///
    /// The nudge always targets a *loopback* address: a server bound to
    /// the unspecified address reports `0.0.0.0:port` (or `[::]:port`) as
    /// its local address, and connecting to the unspecified address is
    /// platform-dependent — on some systems it fails outright, which used
    /// to leave the pre-poll accept loop parked forever.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let ip = if self.addr.ip().is_unspecified() {
            match self.addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            }
        } else {
            self.addr.ip()
        };
        let nudge = SocketAddr::new(ip, self.addr.port());
        // Failure is fine: the poll tick wakes the loop regardless.
        let _ = TcpStream::connect_timeout(&nudge, Duration::from_millis(250));
    }
}

/// What a front end does with an authenticated, decoded request. The
/// event loop owns everything else: accept, framing, authentication with
/// the sequence floor, payload decode, the pipeline cap, write deadlines,
/// panic containment, idle reaping and shutdown.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Admission charged before the request is queued (the judge's
    /// per-tenant in-flight quota); a refusal is answered inline.
    fn admit(&self, _tenant: &TenantId) -> WatermarkResult<()> {
        Ok(())
    }

    /// Releases what [`admit`](Handler::admit) charged, on every exit
    /// path of the request.
    fn release(&self, _tenant: &TenantId) {}

    /// Records a frame refused by authentication, under the tenant its
    /// header claimed.
    fn refused(&self, _claimed: &TenantId) {}

    /// Answers one request as `tenant`. A panic here becomes a
    /// `WireFault::Internal` answer; the connection survives.
    fn handle(&self, tenant: &TenantId, request: Request) -> Response;

    /// Runs one request's job off the event-loop thread.
    fn execute(&self, job: impl FnOnce() + Send + 'static);
}

/// The judge's handler: requests resolve against the shared service on
/// the process-global work-stealing pool, charged to the tenant's ledger.
impl Handler for DisputeService {
    fn admit(&self, tenant: &TenantId) -> WatermarkResult<()> {
        self.ledger().try_begin_request(tenant, self.quotas())
    }

    fn release(&self, tenant: &TenantId) {
        self.ledger().end_request(tenant);
    }

    fn refused(&self, claimed: &TenantId) {
        self.ledger().record_auth_failure(claimed);
    }

    fn handle(&self, tenant: &TenantId, request: Request) -> Response {
        handle_request(self, tenant, request)
    }

    fn execute(&self, job: impl FnOnce() + Send + 'static) {
        rayon::spawn(job);
    }
}

/// A bound listener and the handler it serves: the event loop behind both
/// [`JudgeServer`] and [`JudgeRouter`](crate::JudgeRouter).
#[derive(Debug)]
pub(crate) struct FrontEnd<H> {
    listener: TcpListener,
    config: ServerConfig,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) handler: Arc<H>,
}

impl<H: Handler> FrontEnd<H> {
    pub(crate) fn bind(
        addr: impl ToSocketAddrs + std::fmt::Display,
        handler: Arc<H>,
        config: ServerConfig,
    ) -> WatermarkResult<Self> {
        let listener = TcpListener::bind(&addr).map_err(|err| WatermarkError::Io {
            path: addr.to_string(),
            message: err.to_string(),
        })?;
        Ok(Self {
            listener,
            config,
            stop: Arc::new(AtomicBool::new(false)),
            handler,
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("a bound listener has a local address")
    }

    pub(crate) fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            addr: self.local_addr(),
        }
    }

    /// Runs the event loop until [`ServerHandle::shutdown`] is called.
    /// Requests already handed to a job at shutdown finish and their
    /// responses are still delivered (each job holds its connection's
    /// writer alive).
    pub(crate) fn serve(self) -> WatermarkResult<()> {
        let FrontEnd {
            listener,
            config,
            stop,
            handler,
        } = self;
        listener.set_nonblocking(true).map_err(|err| WatermarkError::Io {
            path: "listener".to_string(),
            message: err.to_string(),
        })?;
        let listener_fd = listener.as_raw_fd();
        let mut conns: Vec<Conn> = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let accepting = config.max_connections == 0 || conns.len() < config.max_connections;
            let mut fds = Vec::with_capacity(conns.len() + 1);
            if accepting {
                fds.push(sys::PollFd {
                    fd: listener_fd,
                    events: sys::POLLIN,
                    revents: 0,
                });
            }
            // Connections at their pipeline cap (and half-closed ones)
            // are left out of the poll set: their pending bytes stay in
            // the kernel buffer until a response completes, which is
            // exactly the backpressure the cap exists to apply.
            let mut polled = Vec::with_capacity(conns.len());
            for (index, conn) in conns.iter().enumerate() {
                if conn.read_closed || conn.paused(&config) {
                    continue;
                }
                fds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events: sys::POLLIN,
                    revents: 0,
                });
                polled.push(index);
            }
            sys::poll_fds(&mut fds, POLL_TICK_MS).map_err(|err| WatermarkError::Io {
                path: "poll".to_string(),
                message: err.to_string(),
            })?;
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let offset = usize::from(accepting);
            let mut closing: Vec<usize> = Vec::new();
            for (slot, &index) in polled.iter().enumerate() {
                if fds[offset + slot].revents == 0 {
                    continue;
                }
                if !conns[index].drain(&handler, &config) {
                    closing.push(index);
                }
            }
            for &index in closing.iter().rev() {
                conns.swap_remove(index);
            }
            if accepting && fds.first().is_some_and(|entry| entry.revents != 0) {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if let Some(conn) = Conn::new(stream) {
                                conns.push(conn);
                            }
                            if config.max_connections != 0 && conns.len() >= config.max_connections {
                                break;
                            }
                        }
                        Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                        Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            // Persistent accept failures (EMFILE when fds
                            // are exhausted, for instance) keep the
                            // listener readable; without a pause the loop
                            // would spin at 100% CPU exactly when the
                            // front end should be shedding load.
                            std::thread::sleep(Duration::from_millis(20));
                            break;
                        }
                    }
                }
            }
            conns.retain(|conn| {
                if conn.writer.dead.load(Ordering::Acquire) {
                    return false;
                }
                if conn.read_closed {
                    // Half-closed peer: keep the writer alive until the
                    // last in-flight response is delivered.
                    return conn.in_flight.load(Ordering::SeqCst) > 0;
                }
                if let Some(timeout) = config.read_timeout {
                    if conn.in_flight.load(Ordering::SeqCst) == 0
                        && conn.last_activity.elapsed() >= timeout
                    {
                        return false;
                    }
                }
                true
            });
        }
        Ok(())
    }
}

/// A bound, not-yet-serving judge. [`serve`](JudgeServer::serve) blocks
/// the calling thread; [`spawn`](JudgeServer::spawn) serves from a
/// background thread and returns a [`RunningServer`].
#[derive(Debug)]
pub struct JudgeServer {
    front: FrontEnd<DisputeService>,
}

impl JudgeServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port). The
    /// service is shared: the caller can keep registering models on its
    /// own `Arc` while the server resolves claims against them.
    pub fn bind(
        addr: impl ToSocketAddrs + std::fmt::Display,
        service: Arc<DisputeService>,
        config: ServerConfig,
    ) -> WatermarkResult<Self> {
        Ok(Self {
            front: FrontEnd::bind(addr, service, config)?,
        })
    }

    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// A shutdown handle for this server.
    pub fn handle(&self) -> ServerHandle {
        self.front.handle()
    }

    /// Runs the event loop until [`ServerHandle::shutdown`] is called,
    /// blocking the calling thread. Requests already handed to the worker
    /// pool at shutdown finish and their responses are still delivered
    /// (each worker holds its connection's writer alive).
    pub fn serve(self) -> WatermarkResult<()> {
        self.front.serve()
    }

    /// Serves from a background thread, returning immediately.
    pub fn spawn(self) -> RunningServer {
        RunningServer::start(self.handle(), move || self.serve())
    }
}

/// A [`JudgeServer`] or [`JudgeRouter`](crate::JudgeRouter) serving from
/// a background thread.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    handle: ServerHandle,
    join: std::thread::JoinHandle<WatermarkResult<()>>,
}

impl RunningServer {
    /// Runs `serve` on a background thread; `handle` stops it.
    pub(crate) fn start(
        handle: ServerHandle,
        serve: impl FnOnce() -> WatermarkResult<()> + Send + 'static,
    ) -> Self {
        Self {
            addr: handle.addr,
            handle,
            join: std::thread::spawn(serve),
        }
    }

    /// The address the server is reachable on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable shutdown handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Stops the event loop and joins the serving thread.
    pub fn shutdown(self) -> WatermarkResult<()> {
        self.handle.shutdown();
        self.join.join().map_err(|_| WatermarkError::Remote {
            message: "serving thread panicked".to_string(),
        })?
    }
}

/// The write half of a connection, shared between the event loop (error
/// replies) and every job carrying one of its responses. The mutex spans
/// a whole frame so concurrent responses never interleave; the socket is
/// non-blocking, so a full send buffer parks the writer in
/// `poll(POLLOUT)` up to [`WRITE_TIMEOUT`] instead of forever.
#[derive(Debug)]
struct ConnWriter {
    stream: Mutex<TcpStream>,
    fd: i32,
    dead: AtomicBool,
}

impl ConnWriter {
    /// Writes one response frame; returns `false` (and marks the
    /// connection dead) if the peer is gone or the deadline expired.
    fn send(&self, correlation_id: u64, response: &Response) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let frame = match proto::encode_frame(correlation_id, response) {
            Ok(frame) => frame,
            // The response itself cannot be framed (a >4 GiB payload);
            // tell the peer which request died rather than hanging it.
            Err(err) => match proto::encode_frame(correlation_id, &fault_response(&err)) {
                Ok(frame) => frame,
                Err(_) => {
                    self.dead.store(true, Ordering::Release);
                    return false;
                }
            },
        };
        let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        let deadline = Instant::now() + WRITE_TIMEOUT;
        let mut written = 0usize;
        while written < frame.len() {
            match stream.write(&frame[written..]) {
                Ok(0) => {
                    self.dead.store(true, Ordering::Release);
                    return false;
                }
                Ok(n) => written += n,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        self.dead.store(true, Ordering::Release);
                        return false;
                    }
                    let wait_ms = left.as_millis().clamp(1, 1000) as i32;
                    if sys::poll_one(self.fd, sys::POLLOUT, wait_ms).is_err() {
                        self.dead.store(true, Ordering::Release);
                        return false;
                    }
                }
                Err(_) => {
                    self.dead.store(true, Ordering::Release);
                    return false;
                }
            }
        }
        true
    }

    /// Best-effort structured error reply for frame-level failures.
    fn send_fault(&self, correlation_id: u64, err: &WatermarkError) {
        let _ = self.send(correlation_id, &fault_response(err));
    }
}

/// One accepted connection as the event loop sees it.
struct Conn {
    /// The read half (the accepted socket itself, non-blocking).
    stream: TcpStream,
    /// The shared write half (a `try_clone`d descriptor).
    writer: Arc<ConnWriter>,
    /// Reassembles the frames arriving on `stream`.
    reader: FrameReader,
    /// Requests dispatched to a job whose responses have not been written
    /// yet. Incremented synchronously at dispatch, decremented by the
    /// job's [`Reply`] on every exit path, so the pipeline cap can never
    /// leak.
    in_flight: Arc<AtomicUsize>,
    /// The peer half-closed its write side; the connection lingers only
    /// to deliver in-flight responses.
    read_closed: bool,
    last_activity: Instant,
    /// Highest frame sequence accepted on this connection. Authenticated
    /// frames must carry a strictly larger sequence, so a recorded frame
    /// cannot be replayed within the connection (and a fresh connection
    /// starts at 0, forcing the client to start counting from 1).
    last_sequence: u64,
}

impl Conn {
    /// Prepares an accepted socket for the event loop; `None` if the
    /// socket died before setup finished.
    fn new(stream: TcpStream) -> Option<Self> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone().ok()?;
        let fd = write_half.as_raw_fd();
        Some(Self {
            stream,
            writer: Arc::new(ConnWriter {
                stream: Mutex::new(write_half),
                fd,
                dead: AtomicBool::new(false),
            }),
            reader: FrameReader::new(proto::DEFAULT_MAX_FRAME_BYTES),
            in_flight: Arc::new(AtomicUsize::new(0)),
            read_closed: false,
            last_activity: Instant::now(),
            last_sequence: 0,
        })
    }

    /// Whether the pipeline cap forbids reading more requests for now.
    fn paused(&self, config: &ServerConfig) -> bool {
        config.max_pipeline > 0 && self.in_flight.load(Ordering::SeqCst) >= config.max_pipeline
    }

    /// Reads everything currently available, dispatching complete frames.
    /// Returns `false` when the connection must be dropped now (protocol
    /// violation or transport error); a clean half-close and the pipeline
    /// cap both return `true` and are handled by the caller's bookkeeping.
    fn drain<H: Handler>(&mut self, handler: &Arc<H>, config: &ServerConfig) -> bool {
        // The poll reported bytes (or the end of the stream) on this
        // socket, so a peer still dripping a frame is not idle.
        self.last_activity = Instant::now();
        loop {
            if self.paused(config) {
                return true;
            }
            let (header, payload) = match self.reader.read_from(&mut self.stream) {
                Ok(FrameRead::Frame(header, payload)) => (header, payload),
                Ok(FrameRead::Pending) => return true,
                Ok(FrameRead::Closed) => {
                    self.read_closed = true;
                    return true;
                }
                Err(WatermarkError::Io { .. }) => {
                    self.writer.dead.store(true, Ordering::Release);
                    return false;
                }
                Err(err) => {
                    self.writer.send_fault(self.reader.correlation_id(), &err);
                    return false;
                }
            };
            // Authenticate before decoding: a frame that fails
            // verification must not reach the handler. An open front end
            // ignores the auth fields; a keyed one checks the tenant, the
            // tag and the strictly increasing sequence. Framing is intact
            // either way, so a failure is answered inline and the
            // connection kept; the sequence floor only advances on
            // success, so a replayed frame stays refusable forever.
            let verified = match config.key_ring.as_deref() {
                None => Ok(TenantId::anonymous()),
                Some(ring) => ring.verify_frame(&header, &payload, self.last_sequence).map_err(|err| {
                    // The failure is charged to the claimed tenant only if
                    // the ring enrolls it: a peer with no key must not add
                    // a ledger row per name it makes up.
                    let claimed = TenantId::from_field(&header.tenant)
                        .ok()
                        .filter(|tenant| ring.key(tenant).is_some())
                        .unwrap_or_else(TenantId::anonymous);
                    (claimed, err)
                }),
            };
            match verified {
                Ok(tenant) => {
                    self.last_sequence = self.last_sequence.max(header.sequence);
                    self.dispatch(handler, config, header.correlation_id, tenant, payload);
                }
                Err((claimed, err)) => {
                    handler.refused(&claimed);
                    self.writer.send_fault(header.correlation_id, &err);
                }
            }
        }
    }

    /// Hands one authenticated frame to its handler's job. A payload that
    /// does not decode as a [`Request`] is answered inline and the
    /// connection kept: framing is intact, so the next frame is readable.
    /// Admission (the judge's tenant in-flight quota) is charged here,
    /// before the job starts, so a tenant at its cap is refused with a
    /// structured fault instead of queueing work.
    fn dispatch<H: Handler>(
        &self,
        handler: &Arc<H>,
        config: &ServerConfig,
        correlation_id: u64,
        tenant: TenantId,
        payload: Vec<u8>,
    ) {
        let request = match proto::decode_payload::<Request>(&payload) {
            Ok(request) => request,
            Err(err) => return self.writer.send_fault(correlation_id, &err),
        };
        if let Err(err) = handler.admit(&tenant) {
            return self.writer.send_fault(correlation_id, &err);
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let mut reply = Reply {
            handler: Arc::clone(handler),
            tenant,
            in_flight: Arc::clone(&self.in_flight),
            writer: Arc::clone(&self.writer),
            correlation_id,
            response: None,
        };
        let width = config.worker_threads;
        handler.execute(move || {
            let (handler, tenant) = (&reply.handler, &reply.tenant);
            let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if width > 0 {
                    // A scoped width override, not a thread spawn: the
                    // handle owns no threads, and the request still
                    // executes wherever its handler placed it.
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(width)
                        .build()
                        .expect("the rayon shim never fails to build a pool handle")
                        .install(|| handler.handle(tenant, request))
                } else {
                    handler.handle(tenant, request)
                }
            }))
            .unwrap_or_else(|_| internal_fault("front end panicked while serving the request"));
            // Dropping the reply releases the slot and writes.
            reply.response = Some(response);
            drop(reply);
        });
    }
}

/// One dispatched request's way back. Dropping it releases the pipeline
/// slot and the handler's admission, then writes the response — on every
/// exit path, so a panicking handler can never wedge its connection at
/// the pipeline cap or leak quota, and a job dropped before it ran (a
/// failed thread spawn) still answers, with an internal fault.
struct Reply<H: Handler> {
    handler: Arc<H>,
    tenant: TenantId,
    in_flight: Arc<AtomicUsize>,
    writer: Arc<ConnWriter>,
    correlation_id: u64,
    response: Option<Response>,
}

impl<H: Handler> Drop for Reply<H> {
    fn drop(&mut self) {
        // Release the slot *before* the response is written: a client
        // that has already read this verdict must be able to pipeline its
        // next request without racing the release.
        self.handler.release(&self.tenant);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        let response = self
            .response
            .take()
            .unwrap_or_else(|| internal_fault("the request was dropped before it ran"));
        self.writer.send(self.correlation_id, &response);
    }
}

/// The answer to a request the front end failed internally.
fn internal_fault(detail: &str) -> Response {
    Response::Error {
        fault: WireFault::Internal {
            detail: detail.to_string(),
        },
    }
}

/// Wire rendering of a refusal, shared by both front ends.
pub(crate) fn fault_response(err: &WatermarkError) -> Response {
    Response::Error {
        fault: WireFault::from_error(err),
    }
}

/// Maps one request onto the shared service as `tenant`. Every
/// model-touching arm goes through the tenant-scoped (`*_as`) service
/// entry points, so quotas are charged and namespaces enforced exactly
/// once, here at the wire boundary.
fn handle_request(service: &DisputeService, tenant: &TenantId, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong {
            protocol_version: proto::PROTOCOL_VERSION,
            format_version: persist::FORMAT_VERSION,
            models_registered: service.len() as u64,
            claims_cached: service.claims().len() as u64,
        },
        Request::RegisterModel { model_id, model } => {
            let num_trees = model.num_trees() as u64;
            match service.register_digested_as(tenant, model_id.clone(), &model) {
                Ok((digest, _compiled)) => Response::Registered {
                    model_id,
                    num_trees,
                    digest,
                },
                Err(err) => fault_response(&err),
            }
        }
        Request::RegisterModelRef { model_id, digest } => {
            match service.register_by_digest_as(tenant, model_id.clone(), digest) {
                Ok(Some(compiled)) => Response::Registered {
                    model_id,
                    num_trees: compiled.num_trees() as u64,
                    digest,
                },
                Ok(None) => Response::NeedPayload {
                    digests: vec![digest],
                },
                Err(err) => fault_response(&err),
            }
        }
        Request::ResolveDocketRef { bodies, disputes } => {
            // An oversized docket is refused before any inlined body can
            // allocate cache bytes.
            if let Err(err) = service.check_docket_size(disputes.len()) {
                return fault_response(&err);
            }
            // Inlined bodies are looked up request-locally *first*: a
            // digest carried in this very request must resolve even if
            // the cache is too small to hold it, otherwise a client
            // retrying after NeedPayload could loop forever.
            let mut local: HashMap<PayloadDigest, Arc<OwnershipClaim>> =
                HashMap::with_capacity(bodies.len());
            for body in bodies {
                match service.claims().insert_for(tenant, service.quotas(), body) {
                    Ok((digest, claim)) => {
                        local.insert(digest, claim);
                    }
                    Err(err) => return fault_response(&err),
                }
            }
            let mut missing: Vec<PayloadDigest> = Vec::new();
            let mut seen: HashSet<PayloadDigest> = HashSet::new();
            let mut shared: Vec<SharedDispute> = Vec::with_capacity(disputes.len());
            let mut hits = 0u64;
            let mut misses = 0u64;
            for dispute in disputes {
                if let Some(claim) = local.get(&dispute.digest).cloned() {
                    shared.push(SharedDispute::new(dispute.model_id, dispute.digest, claim));
                    continue;
                }
                match service.claims().get(&dispute.digest) {
                    Some(claim) => {
                        hits += 1;
                        shared.push(SharedDispute::new(dispute.model_id, dispute.digest, claim));
                    }
                    None => {
                        misses += 1;
                        if seen.insert(dispute.digest) {
                            missing.push(dispute.digest);
                        }
                    }
                }
            }
            service.ledger().record_cache_hits(tenant, hits);
            service.ledger().record_cache_misses(tenant, misses);
            if !missing.is_empty() {
                return Response::NeedPayload { digests: missing };
            }
            match service.resolve_docket_shared_as(tenant, &shared) {
                Ok(verdicts) => Response::Docket {
                    verdicts: verdicts.into_iter().map(DocketVerdict::from_result).collect(),
                },
                Err(err) => fault_response(&err),
            }
        }
        Request::ListModels => Response::Models {
            model_ids: service.model_ids_for(tenant),
        },
        Request::Deregister { model_id } => match service.deregister_as(tenant, &model_id) {
            Ok(existed) => Response::Deregistered { model_id, existed },
            Err(err) => fault_response(&err),
        },
        Request::Stats => {
            // The anonymous tenant is the operator's view (an open judge
            // has no other identity); authenticated tenants see exactly
            // their own row — stats never leak across namespaces.
            let tenants = if tenant.is_anonymous() {
                service.stats_all()
            } else {
                vec![service.stats_for(tenant)]
            };
            Response::Stats { tenants }
        }
    }
}

//! The claimant's side of the wire: a typed client over one TCP
//! connection to a judge, with WDTP pipelining, content-addressed claim
//! upload and optional per-tenant frame authentication.
//!
//! [`DisputeClient::send_docket`] / [`DisputeClient::recv_docket`] split
//! the request and response halves of a docket so several dockets can be
//! in flight at once; responses are matched back by correlation id, and
//! out-of-order arrivals for other in-flight dockets are stashed until
//! their ticket is redeemed. Claim bodies travel once per connection:
//! later dockets reference them by content digest (the client remembers
//! up to [`MAX_REMEMBERED_CLAIMS`] digests, then starts over), and a
//! judge that has evicted a body answers `NeedPayload`, which the client
//! recovers from transparently by resending the docket with the missing
//! bodies inlined.
//!
//! Retention is all-or-nothing. A docket whose every reference is
//! inlined in its frame keeps no claim bodies while in flight: the judge
//! resolves inlined digests from the request itself, so it can never
//! need them again. A docket with any digest-only reference keeps every
//! body until its verdicts arrive, so a resend can inline whatever the
//! judge has evicted since. A judge that demands any body for a fully
//! inlined docket breaks the protocol, and the client fails the docket
//! at once with [`WatermarkError::ProtocolViolation`]. A docket with a
//! digest-only reference answers every demand through the resend path,
//! even one naming a body its frame inlined: behind a fleet router the
//! backend answers the router's frame, which may have sent that body
//! digest-only.

use serde::Serialize;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use wdte_core::error::{WatermarkError, WatermarkResult};
use wdte_core::proto::{self, DisputeRef, PayloadDigest, Request, Response, NO_CORRELATION};
use wdte_core::verify::{OwnershipClaim, VerificationReport};
use wdte_core::{Dispute, TenantId, TenantStatsEntry};
use wdte_trees::RandomForest;

/// Credentials for an authenticated connection: the tenant this client
/// acts as and the shared secret enrolled for it in the judge's key file.
/// Every frame the client sends is stamped with the tenant id, a
/// strictly increasing per-connection sequence and an HMAC-SHA-256 tag.
#[derive(Debug, Clone)]
pub struct ClientAuth {
    tenant: TenantId,
    secret: Vec<u8>,
}

impl ClientAuth {
    /// Credentials for `tenant` with `secret` (the raw bytes after the
    /// `:` on the tenant's key-file line).
    pub fn new(tenant: TenantId, secret: impl Into<Vec<u8>>) -> Self {
        Self {
            tenant,
            secret: secret.into(),
        }
    }

    /// The tenant these credentials act as.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }
}

/// Wire encodings of the payload-heavy requests, built from *borrowed*
/// data. `Request`'s derive needs an owned enum, which would force every
/// docket call to deep-copy the full docket (trigger + disguise datasets
/// per claim) just to serialize it; this mirror has `Request`'s variant
/// and field names, so its derive writes the exact same frame bytes from
/// references. Parity is locked down by the
/// `borrowed_requests_encode_identically_to_the_owned_enum` test.
#[derive(Serialize)]
enum BorrowedRequest<'a> {
    RegisterModel {
        model_id: &'a str,
        model: &'a RandomForest,
    },
    ResolveDocketRef {
        bodies: &'a [&'a OwnershipClaim],
        disputes: &'a [DisputeRef],
    },
}

/// Connection and retry knobs of a [`DisputeClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total connection attempts before giving up (at least 1). Retrying
    /// covers the common race of a client starting before the judge has
    /// bound its socket. A connection that is established but cannot be
    /// configured (socket option failures) counts as one failed attempt,
    /// not a hard error.
    pub connect_attempts: u32,
    /// Backoff between connection attempts; doubles per attempt, capped
    /// at [`max_retry_backoff`](Self::max_retry_backoff).
    pub retry_backoff: Duration,
    /// Upper bound on the exponential backoff between attempts, so large
    /// `connect_attempts` values retry steadily instead of sleeping for
    /// minutes.
    pub max_retry_backoff: Duration,
    /// Per-attempt connect timeout; `None` uses the OS default.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout while waiting for a response; `None` waits
    /// forever (a large docket can legitimately take a while).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout while sending a request.
    pub write_timeout: Option<Duration>,
    /// Receiver-side cap on one response frame's payload.
    pub max_frame_bytes: usize,
    /// Frame-authentication credentials. `None` (the default) sends
    /// anonymous frames, which an open judge accepts and a keyed judge
    /// refuses with `AuthFailed`.
    pub auth: Option<ClientAuth>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_attempts: 3,
            retry_backoff: Duration::from_millis(100),
            max_retry_backoff: Duration::from_secs(5),
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: proto::DEFAULT_MAX_FRAME_BYTES,
            auth: None,
        }
    }
}

/// The judge's answer to a ping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PongInfo {
    /// Protocol version the judge speaks.
    pub protocol_version: u16,
    /// Artefact format version the judge reads and writes.
    pub format_version: u16,
    /// Number of models currently registered.
    pub models_registered: u64,
    /// Number of claim bodies in the judge's content cache.
    pub claims_cached: u64,
}

/// Receipt for a docket sent with [`DisputeClient::send_docket`] and not
/// yet received. Redeem it — exactly once — with
/// [`DisputeClient::recv_docket`]; tickets of one client are not valid on
/// another.
#[derive(Debug)]
pub struct DocketTicket {
    correlation_id: u64,
}

impl DocketTicket {
    /// The wire correlation id this ticket's verdicts will arrive under.
    pub fn correlation_id(&self) -> u64 {
        self.correlation_id
    }
}

/// What one in-flight docket needs to answer a `NeedPayload`.
///
/// A docket with any digest-only reference keeps the dispute list by
/// digest and a shared handle on every distinct claim body it holds, so a
/// retry can always inline what the judge is missing (even bodies the
/// judge had cached at send time and evicted since). A fully inlined
/// docket keeps neither: the judge resolves inlined digests from the
/// request itself, so no demand for it is legitimate.
#[derive(Debug)]
struct PendingDocket {
    /// Empty for a fully inlined docket, which is how one is recognised.
    disputes: Vec<DisputeRef>,
    /// Empty for a fully inlined docket.
    bodies: HashMap<PayloadDigest, Arc<OwnershipClaim>>,
    retries: u8,
}

/// `NeedPayload` recovery attempts per docket before giving up. The
/// second retry inlines *every* body of the docket, which a correct judge
/// answers from the request-local bodies alone — a third demand means the
/// peer is not honouring the protocol.
const MAX_NEED_PAYLOAD_RETRIES: u8 = 3;

/// Most claim digests a connection remembers as already uploaded. When a
/// docket would push the set past this, it is cleared first: a forgotten
/// digest only means that body travels inline once more (the judge
/// recomputes digests anyway), while an unbounded set would grow for the
/// life of a connection carrying distinct claims — a router's long-lived
/// backend clients included.
pub const MAX_REMEMBERED_CLAIMS: usize = 4096;

/// Outcome of redeeming a docket ticket with
/// [`DisputeClient::recv_docket_outcome`], the variant of
/// [`DisputeClient::recv_docket`] that does **not** treat an
/// unrecoverable `NeedPayload` as a protocol violation. A fleet router
/// sends dockets whose claim bodies it never held (the end client keeps
/// them), so "the judge wants bodies I cannot supply" is an expected
/// answer it relays upstream rather than an error.
#[derive(Debug)]
pub enum DocketOutcome {
    /// The docket resolved: one verdict per dispute, in input order.
    Verdicts(Vec<WatermarkResult<VerificationReport>>),
    /// The judge is missing claim bodies this client could not inline
    /// from its retained copies. The caller owns recovery: upload the
    /// named bodies (or relay the demand to whoever holds them) and send
    /// a fresh docket. The ticket is consumed either way.
    NeedPayload(Vec<PayloadDigest>),
}

/// A typed client driving one connection to a
/// [`JudgeServer`](crate::JudgeServer). Results are exactly what the
/// in-process [`wdte_core::DisputeService`] would have returned
/// (bit-identical reports, reconstructed typed errors), regardless of how
/// many dockets are in flight or in what order the judge completes them.
#[derive(Debug)]
pub struct DisputeClient {
    reader: BufReader<TcpStream>,
    addr: String,
    max_frame_bytes: usize,
    /// Set after any transport-level failure (write error, read
    /// error/timeout, unparseable response frame, unknown correlation
    /// id). Once the stream state is unknown, request/response pairing is
    /// lost and a retry could silently misattribute verdicts; a broken
    /// client refuses further calls — reconnect instead.
    broken: bool,
    /// Next correlation id to stamp on a request frame (0 is reserved).
    next_correlation: u64,
    /// Correlation ids sent and not yet answered; a response outside this
    /// set poisons the connection.
    outstanding: HashSet<u64>,
    /// Responses that arrived while waiting for a different correlation
    /// id, parked until their ticket is redeemed.
    stash: HashMap<u64, Response>,
    /// In-flight dockets by correlation id.
    pending: HashMap<u64, PendingDocket>,
    /// Digests of claim bodies this connection has already uploaded; such
    /// claims travel as digest-only references until the judge reports an
    /// eviction. Bounded by [`MAX_REMEMBERED_CLAIMS`].
    sent_claims: HashSet<PayloadDigest>,
    /// Digests of models this connection has already uploaded.
    sent_models: HashSet<PayloadDigest>,
    /// Frame-authentication credentials, if this client acts as a tenant.
    auth: Option<ClientAuth>,
    /// Next frame sequence for authenticated sends. Starts at 1 (a fresh
    /// server connection accepts anything strictly above 0) and
    /// increments per frame, so the judge's replay check always passes
    /// for honest traffic.
    next_sequence: u64,
}

impl DisputeClient {
    /// Connects with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> WatermarkResult<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit retry/timeout configuration.
    pub fn connect_with(
        addr: impl ToSocketAddrs + std::fmt::Display,
        config: ClientConfig,
    ) -> WatermarkResult<Self> {
        let display = addr.to_string();
        let attempts = config.connect_attempts.max(1);
        let mut backoff = config.retry_backoff.min(config.max_retry_backoff);
        let mut last_error = String::from("address did not resolve");
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2).min(config.max_retry_backoff);
            }
            let resolved: Vec<SocketAddr> = match addr.to_socket_addrs() {
                Ok(addrs) => addrs.collect(),
                Err(err) => {
                    last_error = err.to_string();
                    continue;
                }
            };
            for remote in resolved {
                let connected = match config.connect_timeout {
                    Some(timeout) => TcpStream::connect_timeout(&remote, timeout),
                    None => TcpStream::connect(remote),
                };
                match connected {
                    Ok(stream) => {
                        // A socket that connects but cannot be configured
                        // counts as one failed attempt — it must not
                        // abort the whole retry loop, which exists
                        // precisely to ride out transient conditions.
                        let configured = stream
                            .set_read_timeout(config.read_timeout)
                            .and_then(|()| stream.set_write_timeout(config.write_timeout));
                        if let Err(err) = configured {
                            last_error = err.to_string();
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        return Ok(Self {
                            reader: BufReader::new(stream),
                            addr: display,
                            max_frame_bytes: config.max_frame_bytes,
                            broken: false,
                            next_correlation: 1,
                            outstanding: HashSet::new(),
                            stash: HashMap::new(),
                            pending: HashMap::new(),
                            sent_claims: HashSet::new(),
                            sent_models: HashSet::new(),
                            auth: config.auth.clone(),
                            next_sequence: 1,
                        });
                    }
                    Err(err) => last_error = err.to_string(),
                }
            }
        }
        Err(WatermarkError::Io {
            path: display,
            message: format!("could not connect after {attempts} attempts: {last_error}"),
        })
    }

    /// Connects with default configuration plus authentication
    /// credentials.
    pub fn connect_authenticated(
        addr: impl ToSocketAddrs + std::fmt::Display,
        auth: ClientAuth,
    ) -> WatermarkResult<Self> {
        let config = ClientConfig {
            auth: Some(auth),
            ..ClientConfig::default()
        };
        Self::connect_with(addr, config)
    }

    /// The address this client is connected to, as given to `connect`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The tenant this client authenticates as, if any.
    pub fn tenant(&self) -> Option<&TenantId> {
        self.auth.as_ref().map(ClientAuth::tenant)
    }

    /// Encodes one request frame, stamping auth fields (tenant, sequence,
    /// tag) when credentials are configured. The sequence is burned even
    /// if the frame is never written — the judge only requires strictly
    /// increasing sequences, so gaps are harmless. An associated fn over
    /// the two fields it needs, so callers holding other `self` borrows
    /// (the pending-docket map) can still encode.
    fn encode_with<T: Serialize + ?Sized>(
        auth: &Option<ClientAuth>,
        next_sequence: &mut u64,
        correlation_id: u64,
        request: &T,
    ) -> WatermarkResult<Vec<u8>> {
        match auth {
            None => proto::encode_frame(correlation_id, request),
            Some(auth) => {
                let sequence = *next_sequence;
                *next_sequence += 1;
                proto::encode_frame_auth(correlation_id, request, &auth.tenant, sequence, &auth.secret)
            }
        }
    }

    /// [`encode_with`](Self::encode_with) over `self`'s own auth state.
    fn encode_request<T: Serialize + ?Sized>(
        &mut self,
        correlation_id: u64,
        request: &T,
    ) -> WatermarkResult<Vec<u8>> {
        Self::encode_with(&self.auth, &mut self.next_sequence, correlation_id, request)
    }

    /// Whether this connection is poisoned by an earlier transport error
    /// (see the `broken` field). A broken client must be replaced by a
    /// fresh [`DisputeClient::connect`].
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Whether an idle connection can carry a fresh request. A judge
    /// reaps idle connections, so a non-blocking peek that finds end of
    /// stream, or bytes nobody asked for, rules it out.
    pub(crate) fn is_reusable(&self) -> bool {
        let stream = self.reader.get_ref();
        let quiet = stream.set_nonblocking(true).is_ok()
            && matches!(stream.peek(&mut [0u8; 1]), Err(err) if err.kind() == ErrorKind::WouldBlock);
        stream.set_nonblocking(false).is_ok() && quiet && self.reader.buffer().is_empty()
    }

    /// Number of dockets sent and not yet received.
    pub fn pending_dockets(&self) -> usize {
        self.pending.len()
    }

    /// Number of claim digests this connection currently sends digest-only
    /// (at most [`MAX_REMEMBERED_CLAIMS`]).
    pub fn remembered_claims(&self) -> usize {
        self.sent_claims.len()
    }

    /// Records freshly uploaded claim digests, clearing the set first if
    /// they would push it past [`MAX_REMEMBERED_CLAIMS`].
    fn remember_claims(&mut self, uploaded: HashSet<PayloadDigest>) {
        if self.sent_claims.len() + uploaded.len() > MAX_REMEMBERED_CLAIMS {
            self.sent_claims.clear();
        }
        self.sent_claims.extend(uploaded.into_iter().take(MAX_REMEMBERED_CLAIMS));
    }

    fn ensure_usable(&self) -> WatermarkResult<()> {
        if self.broken {
            return Err(WatermarkError::ProtocolViolation {
                detail: format!(
                    "connection to {} is poisoned by an earlier transport error; reconnect",
                    self.addr
                ),
            });
        }
        Ok(())
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_correlation;
        self.next_correlation = self.next_correlation.wrapping_add(1);
        if self.next_correlation == NO_CORRELATION {
            self.next_correlation = 1;
        }
        id
    }

    /// Writes one already-encoded frame; poisons the connection on any
    /// transport failure.
    fn write_frame(&mut self, frame: &[u8]) -> WatermarkResult<()> {
        let result = {
            let stream = self.reader.get_mut();
            stream.write_all(frame).and_then(|()| stream.flush())
        };
        result.map_err(|err| {
            self.broken = true;
            WatermarkError::Io {
                path: self.addr.clone(),
                message: err.to_string(),
            }
        })
    }

    /// Reads responses until the one for `correlation_id` arrives,
    /// stashing responses for other in-flight requests. An id that was
    /// never sent — including the reserved 0 the judge uses for
    /// frame-level errors — poisons the connection.
    fn read_until(&mut self, correlation_id: u64) -> WatermarkResult<Response> {
        if let Some(response) = self.stash.remove(&correlation_id) {
            return Ok(response);
        }
        loop {
            let received = proto::read_message::<Response, _>(&mut self.reader, self.max_frame_bytes);
            let (corr, response) = match received {
                Ok(Some(pair)) => pair,
                Ok(None) => {
                    self.broken = true;
                    return Err(WatermarkError::ProtocolViolation {
                        detail: format!(
                            "judge at {} closed the connection without answering",
                            self.addr
                        ),
                    });
                }
                Err(err) => {
                    self.broken = true;
                    return Err(err);
                }
            };
            if corr == correlation_id {
                return Ok(response);
            }
            if corr == NO_CORRELATION {
                // A frame-level fault: the judge could not attribute the
                // failure to any request and is about to close.
                self.broken = true;
                return Err(match response {
                    Response::Error { fault } => fault.into_error(),
                    other => WatermarkError::ProtocolViolation {
                        detail: format!("judge sent an unsolicited {other:?}"),
                    },
                });
            }
            if self.outstanding.contains(&corr) {
                self.stash.insert(corr, response);
                continue;
            }
            self.broken = true;
            return Err(WatermarkError::ProtocolViolation {
                detail: format!(
                    "judge at {} answered correlation id {corr}, which this client never sent",
                    self.addr
                ),
            });
        }
    }

    /// One sequential request/response exchange. The request may be the
    /// [`Request`] enum itself or one of the borrowed wire mirrors above.
    /// Dockets in flight are serviced (stashed) while waiting.
    fn call<T: Serialize + ?Sized>(&mut self, request: &T) -> WatermarkResult<Response> {
        self.ensure_usable()?;
        let correlation_id = self.next_id();
        // Encoding failures (e.g. an over-u32 frame) happen before any
        // byte reaches the wire, so they do NOT poison the connection.
        let frame = self.encode_request(correlation_id, request)?;
        self.outstanding.insert(correlation_id);
        let result = self.write_frame(&frame).and_then(|()| self.read_until(correlation_id));
        self.outstanding.remove(&correlation_id);
        result
    }

    /// Converts an unexpected response kind into a typed error, unwrapping
    /// wire faults first.
    fn unexpected(response: Response, wanted: &str) -> WatermarkError {
        match response {
            Response::Error { fault } => fault.into_error(),
            other => WatermarkError::ProtocolViolation {
                detail: format!("expected a {wanted} response, judge answered {other:?}"),
            },
        }
    }

    /// Liveness / version probe.
    pub fn ping(&mut self) -> WatermarkResult<PongInfo> {
        match self.call(&Request::Ping)? {
            Response::Pong {
                protocol_version,
                format_version,
                models_registered,
                claims_cached,
            } => Ok(PongInfo {
                protocol_version,
                format_version,
                models_registered,
                claims_cached,
            }),
            other => Err(Self::unexpected(other, "Pong")),
        }
    }

    /// Registers a pointer-tree model under `model_id`; the judge compiles
    /// it once. Returns the tree count the judge registered.
    ///
    /// Models are content-addressed: a model this connection has already
    /// uploaded is registered by digest alone (no re-upload), falling back
    /// to the full upload if the judge no longer holds it. The judge's
    /// digest echo is cross-checked against the locally computed digest,
    /// so a hash-algorithm divergence between client and judge surfaces as
    /// a typed error instead of silent cache misses.
    pub fn register_model(
        &mut self,
        model_id: impl Into<String>,
        model: &RandomForest,
    ) -> WatermarkResult<usize> {
        let model_id = model_id.into();
        let digest = PayloadDigest::of_model(model);
        if self.sent_models.contains(&digest) {
            match self.call(&Request::RegisterModelRef {
                model_id: model_id.clone(),
                digest,
            })? {
                Response::Registered {
                    num_trees,
                    digest: echo,
                    ..
                } => {
                    return if echo == digest {
                        Ok(num_trees as usize)
                    } else {
                        Err(WatermarkError::ProtocolViolation {
                            detail: format!(
                                "judge registered digest {echo} for a reference to {digest}"
                            ),
                        })
                    };
                }
                Response::NeedPayload { .. } => {
                    // The judge dropped the model since our upload; fall
                    // back to sending it in full.
                    self.sent_models.remove(&digest);
                }
                other => return Err(Self::unexpected(other, "Registered")),
            }
        }
        let request = BorrowedRequest::RegisterModel {
            model_id: &model_id,
            model,
        };
        match self.call(&request)? {
            Response::Registered {
                num_trees,
                digest: echo,
                ..
            } => {
                if echo != digest {
                    return Err(WatermarkError::ProtocolViolation {
                        detail: format!(
                            "judge computed model digest {echo} where this client computed \
                             {digest}; digest algorithms are out of sync"
                        ),
                    });
                }
                self.sent_models.insert(digest);
                Ok(num_trees as usize)
            }
            other => Err(Self::unexpected(other, "Registered")),
        }
    }

    /// Resolves one claim against a registered model: a docket of one,
    /// so the claim is cached and referenced by digest like any other, and
    /// a refusal arrives as the same typed error.
    pub fn resolve(
        &mut self,
        model_id: impl Into<String>,
        claim: &OwnershipClaim,
    ) -> WatermarkResult<VerificationReport> {
        let ticket = self.send_docket(&[Dispute::new(model_id, claim.clone())])?;
        match <[_; 1]>::try_from(self.recv_docket(ticket)?) {
            Ok([verdict]) => verdict,
            Err(verdicts) => Err(WatermarkError::ProtocolViolation {
                detail: format!("judge answered a docket of one with {} verdicts", verdicts.len()),
            }),
        }
    }

    /// Sends a docket without waiting for its verdicts, returning a
    /// ticket to redeem with [`recv_docket`](Self::recv_docket). Any
    /// number of dockets (and other requests) may be in flight at once;
    /// the judge answers each as it completes.
    ///
    /// Claims are deduplicated by content digest: bodies the judge has
    /// not seen on this connection are inlined, everything else travels
    /// as an 16-byte digest reference. The frame is encoded straight
    /// from `disputes`; the bodies are copied (into shared handles kept
    /// for a `NeedPayload` resend) only when some reference goes
    /// digest-only.
    pub fn send_docket(&mut self, disputes: &[Dispute]) -> WatermarkResult<DocketTicket> {
        let mut claims: HashMap<PayloadDigest, &OwnershipClaim> = HashMap::new();
        let refs: Vec<DisputeRef> = disputes
            .iter()
            .map(|dispute| {
                let digest = PayloadDigest::of_claim(&dispute.claim);
                claims.entry(digest).or_insert(&dispute.claim);
                DisputeRef::new(dispute.model_id.clone(), digest)
            })
            .collect();
        self.send_refs(&claims, &refs, |claim| Arc::new(OwnershipClaim::clone(claim)))
    }

    /// [`send_docket`](Self::send_docket) from pre-digested parts: the
    /// dispute list is given as digest references and the claim bodies as
    /// a shared digest-addressed map, so a router fanning one docket out
    /// to several backends shares each body across shards instead of
    /// deep-copying it per backend. Bodies the judge has not seen on this
    /// connection are inlined (first-reference order); everything else
    /// travels digest-only. A referenced digest absent from `bodies` is
    /// sent as a bare reference — if the judge does not hold it either,
    /// the demand surfaces via
    /// [`recv_docket_outcome`](Self::recv_docket_outcome).
    pub fn send_docket_ref(
        &mut self,
        bodies: &HashMap<PayloadDigest, Arc<OwnershipClaim>>,
        disputes: &[DisputeRef],
    ) -> WatermarkResult<DocketTicket> {
        self.send_refs(bodies, disputes, Arc::clone)
    }

    /// Writes one docket frame and records the docket as pending. Each
    /// referenced body in `bodies` that this connection has not uploaded
    /// is inlined, once, in first-reference order; the rest travel
    /// digest-only. Only a docket with a digest-only reference keeps its
    /// bodies, each turned into a shared handle by `share`.
    fn send_refs<B: Borrow<OwnershipClaim>>(
        &mut self,
        bodies: &HashMap<PayloadDigest, B>,
        disputes: &[DisputeRef],
        share: impl Fn(&B) -> Arc<OwnershipClaim>,
    ) -> WatermarkResult<DocketTicket> {
        self.ensure_usable()?;
        let correlation_id = self.next_id();
        let mut inline: Vec<&OwnershipClaim> = Vec::new();
        let mut inlined: HashSet<PayloadDigest> = HashSet::new();
        let mut fully_inlined = true;
        for dispute in disputes {
            let digest = dispute.digest;
            match bodies.get(&digest) {
                Some(body) if !self.sent_claims.contains(&digest) => {
                    if inlined.insert(digest) {
                        inline.push(body.borrow());
                    }
                }
                _ => fully_inlined = false,
            }
        }
        let frame = self.encode_request(
            correlation_id,
            &BorrowedRequest::ResolveDocketRef {
                bodies: &inline,
                disputes,
            },
        )?;
        self.write_frame(&frame)?;
        self.remember_claims(inlined);
        self.outstanding.insert(correlation_id);
        let (disputes, bodies) = if fully_inlined {
            (Vec::new(), HashMap::new())
        } else {
            let mut retained = HashMap::new();
            for dispute in disputes {
                if let Some(body) = bodies.get(&dispute.digest) {
                    retained.entry(dispute.digest).or_insert_with(|| share(body));
                }
            }
            (disputes.to_vec(), retained)
        };
        self.pending.insert(
            correlation_id,
            PendingDocket {
                disputes,
                bodies,
                retries: 0,
            },
        );
        Ok(DocketTicket { correlation_id })
    }

    /// One sequential request/response exchange with an arbitrary
    /// [`Request`], for callers that speak the protocol directly — the
    /// fleet router forwards single-model requests to the homed backend
    /// this way. In-flight docket responses are stashed while waiting,
    /// exactly as for the typed methods.
    pub fn raw_request(&mut self, request: &Request) -> WatermarkResult<Response> {
        self.call(request)
    }

    /// Waits for the verdicts of one in-flight docket: one verdict per
    /// dispute in input order, exactly as `DisputeService::resolve_many`
    /// returns them in process. Responses for *other* in-flight tickets
    /// that arrive first are stashed, so tickets may be redeemed in any
    /// order. `NeedPayload` answers (the judge evicted a referenced claim
    /// body) are recovered transparently by resending the docket with the
    /// missing bodies inlined. A demand for a fully inlined docket fails
    /// at once with a protocol violation naming the demanded digest.
    pub fn recv_docket(
        &mut self,
        ticket: DocketTicket,
    ) -> WatermarkResult<Vec<WatermarkResult<VerificationReport>>> {
        match self.recv_docket_inner(ticket, false)? {
            DocketOutcome::Verdicts(verdicts) => Ok(verdicts),
            // With `surface` off the inner loop recovers or errors; it
            // never hands the demand back.
            DocketOutcome::NeedPayload(_) => Err(WatermarkError::ProtocolViolation {
                detail: "recv_docket surfaced a NeedPayload it should have recovered".to_string(),
            }),
        }
    }

    /// [`recv_docket`](Self::recv_docket) for callers that do not hold
    /// every claim body themselves — a fleet router forwarding dockets
    /// whose bodies live with the end client. Demands this client can
    /// satisfy from its retained copies are still recovered
    /// transparently; a demand naming *any* body it cannot supply is
    /// returned as [`DocketOutcome::NeedPayload`] (the full demanded
    /// list, so the upstream holder can inline everything in one retry).
    /// A fully inlined docket retains nothing, yet a demand for it is
    /// not handed back: both receive paths fail it at once with
    /// [`WatermarkError::ProtocolViolation`], naming the demanded digest,
    /// because the judge resolves inlined bodies from the request itself.
    /// The ticket is consumed in every case.
    pub fn recv_docket_outcome(&mut self, ticket: DocketTicket) -> WatermarkResult<DocketOutcome> {
        self.recv_docket_inner(ticket, true)
    }

    /// The shared receive loop behind [`recv_docket`](Self::recv_docket)
    /// and [`recv_docket_outcome`](Self::recv_docket_outcome). `surface`
    /// selects what happens when the judge demands a body the pending
    /// docket does not retain: hand the demand back (`true`) or treat it
    /// as a protocol violation (`false`).
    fn recv_docket_inner(
        &mut self,
        ticket: DocketTicket,
        surface: bool,
    ) -> WatermarkResult<DocketOutcome> {
        let correlation_id = ticket.correlation_id;
        if !self.pending.contains_key(&correlation_id) {
            return Err(WatermarkError::ProtocolViolation {
                detail: format!("docket ticket {correlation_id} is unknown to this client"),
            });
        }
        self.ensure_usable().inspect_err(|_| self.finish(correlation_id))?;
        loop {
            let response = match self.read_until(correlation_id) {
                Ok(response) => response,
                Err(err) => {
                    self.finish(correlation_id);
                    return Err(err);
                }
            };
            match response {
                Response::Docket { verdicts } => {
                    self.finish(correlation_id);
                    return Ok(DocketOutcome::Verdicts(
                        verdicts.into_iter().map(proto::DocketVerdict::into_result).collect(),
                    ));
                }
                Response::NeedPayload { digests } => {
                    // Those bodies are gone from the judge's cache; stop
                    // referencing them digest-only in future dockets too.
                    for digest in &digests {
                        self.sent_claims.remove(digest);
                    }
                    let entry =
                        self.pending.get(&correlation_id).expect("the pending entry was checked above");
                    if entry.disputes.is_empty() {
                        let detail = match digests.first() {
                            Some(digest) => format!(
                                "judge demanded body {digest} for a docket whose frame inlined every body"
                            ),
                            None => "judge demanded no bodies for a fully inlined docket".to_string(),
                        };
                        self.finish(correlation_id);
                        return Err(WatermarkError::ProtocolViolation { detail });
                    }
                    if surface && digests.iter().any(|digest| !entry.bodies.contains_key(digest)) {
                        self.finish(correlation_id);
                        return Ok(DocketOutcome::NeedPayload(digests));
                    }
                    let frame = match self.build_resend(correlation_id, &digests) {
                        Ok(frame) => frame,
                        Err(err) => {
                            self.finish(correlation_id);
                            return Err(err);
                        }
                    };
                    if let Err(err) = self.write_frame(&frame) {
                        self.finish(correlation_id);
                        return Err(err);
                    }
                }
                Response::Error { fault } => {
                    self.finish(correlation_id);
                    return Err(fault.into_error());
                }
                other => {
                    self.finish(correlation_id);
                    return Err(Self::unexpected(other, "Docket"));
                }
            }
        }
    }

    /// Sends `dockets` back-to-back, then collects every verdict set:
    /// the wire stays busy while the judge resolves, instead of one
    /// round-trip per docket. Verdicts are returned per docket, in input
    /// order, bit-identical to resolving each docket sequentially.
    pub fn pipeline_dockets<D: AsRef<[Dispute]>>(
        &mut self,
        dockets: &[D],
    ) -> WatermarkResult<Vec<Vec<WatermarkResult<VerificationReport>>>> {
        let tickets: Vec<DocketTicket> = dockets
            .iter()
            .map(|docket| self.send_docket(docket.as_ref()))
            .collect::<WatermarkResult<_>>()?;
        tickets.into_iter().map(|ticket| self.recv_docket(ticket)).collect()
    }

    /// Resolves a whole docket synchronously; one verdict per dispute in
    /// input order. Equivalent to [`send_docket`](Self::send_docket)
    /// immediately followed by [`recv_docket`](Self::recv_docket).
    pub fn resolve_docket(
        &mut self,
        disputes: &[Dispute],
    ) -> WatermarkResult<Vec<WatermarkResult<VerificationReport>>> {
        let ticket = self.send_docket(disputes)?;
        self.recv_docket(ticket)
    }

    /// Sorted ids of every model registered with the judge.
    pub fn list_models(&mut self) -> WatermarkResult<Vec<String>> {
        match self.call(&Request::ListModels)? {
            Response::Models { model_ids } => Ok(model_ids),
            other => Err(Self::unexpected(other, "Models")),
        }
    }

    /// Removes a model from the judge's registry; `true` if it existed.
    pub fn deregister(&mut self, model_id: impl Into<String>) -> WatermarkResult<bool> {
        let request = Request::Deregister {
            model_id: model_id.into(),
        };
        match self.call(&request)? {
            Response::Deregistered { existed, .. } => Ok(existed),
            other => Err(Self::unexpected(other, "Deregistered")),
        }
    }

    /// Drops every record of one in-flight docket.
    fn finish(&mut self, correlation_id: u64) {
        self.pending.remove(&correlation_id);
        self.outstanding.remove(&correlation_id);
        self.stash.remove(&correlation_id);
    }

    /// Builds the retry frame for a `NeedPayload` answer. Every demand
    /// must name bodies the docket holds, or the retry fails naming the
    /// first foreign digest. The first retry inlines exactly the demanded
    /// bodies; the second inlines every body of the docket (which a
    /// correct judge answers from the request alone, whatever its cache
    /// does); a third demand is a protocol violation.
    fn build_resend(
        &mut self,
        correlation_id: u64,
        missing: &[PayloadDigest],
    ) -> WatermarkResult<Vec<u8>> {
        let entry = self
            .pending
            .get_mut(&correlation_id)
            .expect("recv_docket verified the ticket is pending");
        if let Some(digest) = missing.iter().find(|digest| !entry.bodies.contains_key(digest)) {
            return Err(WatermarkError::ProtocolViolation {
                detail: format!("judge demanded body {digest}, which this docket does not hold"),
            });
        }
        entry.retries += 1;
        if entry.retries >= MAX_NEED_PAYLOAD_RETRIES {
            return Err(WatermarkError::ProtocolViolation {
                detail: "judge kept demanding claim bodies that were sent inline".to_string(),
            });
        }
        let inline: Vec<&OwnershipClaim> = if entry.retries >= 2 {
            entry.bodies.values().map(Arc::as_ref).collect()
        } else {
            missing.iter().map(|digest| entry.bodies[digest].as_ref()).collect()
        };
        Self::encode_with(
            &self.auth,
            &mut self.next_sequence,
            correlation_id,
            &BorrowedRequest::ResolveDocketRef {
                bodies: &inline,
                disputes: &entry.disputes,
            },
        )
    }

    /// Per-tenant accounting rows. An anonymous client of an open judge
    /// sees every tenant (the operator's view); an authenticated client
    /// sees exactly its own row.
    pub fn stats(&mut self) -> WatermarkResult<Vec<TenantStatsEntry>> {
        match self.call(&Request::Stats)? {
            Response::Stats { tenants } => Ok(tenants),
            other => Err(Self::unexpected(other, "Stats")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_core::Signature;
    use wdte_data::SyntheticSpec;
    use wdte_trees::ForestParams;

    /// The borrowed wire mirrors must stay byte-identical to the derived
    /// `Request` encoding: the server decodes the frames as `Request`, so
    /// any divergence here is a silent protocol fork.
    #[test]
    fn borrowed_requests_encode_identically_to_the_owned_enum() {
        let mut rng = SmallRng::seed_from_u64(17);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
        let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
        let model = RandomForest::fit(&dataset, &ForestParams::with_trees(3), &mut rng);
        let claim = OwnershipClaim::new(Signature::random(3, 0.5, &mut rng), trigger, test);
        let digest = PayloadDigest::of_claim(&claim);
        let refs = vec![DisputeRef::new("m", digest), DisputeRef::new("other", digest)];

        let frame = |value: &dyn Serialize| proto::encode_frame(41, value).unwrap();
        assert_eq!(
            frame(&BorrowedRequest::RegisterModel {
                model_id: "m",
                model: &model
            }),
            frame(&Request::RegisterModel {
                model_id: "m".into(),
                model: model.clone()
            })
        );
        assert_eq!(
            frame(&BorrowedRequest::ResolveDocketRef {
                bodies: &[&claim],
                disputes: &refs
            }),
            frame(&Request::ResolveDocketRef {
                bodies: vec![claim.clone()],
                disputes: refs.clone()
            })
        );
    }

    /// `send_docket` digests its disputes and hands them to
    /// `send_docket_ref`; the first frame a fresh client writes must be
    /// the same bytes through either entry point.
    #[test]
    fn send_docket_writes_the_same_frame_as_send_docket_ref() {
        let mut rng = SmallRng::seed_from_u64(18);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
        let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
        let genuine = OwnershipClaim::new(Signature::random(3, 0.5, &mut rng), trigger.clone(), test);
        let forged = OwnershipClaim::new(Signature::random(3, 0.5, &mut rng), trigger.clone(), trigger);
        let disputes: Vec<Dispute> = [
            ("m", &genuine),
            ("other", &forged),
            ("m", &genuine),
            ("m", &forged),
        ]
        .into_iter()
        .map(|(model_id, claim)| Dispute::new(model_id, claim.clone()))
        .collect();
        let bodies: HashMap<PayloadDigest, Arc<OwnershipClaim>> = disputes
            .iter()
            .map(|d| (PayloadDigest::of_claim(&d.claim), Arc::new(d.claim.clone())))
            .collect();
        let refs: Vec<DisputeRef> = disputes
            .iter()
            .map(|d| DisputeRef::new(d.model_id.clone(), PayloadDigest::of_claim(&d.claim)))
            .collect();

        // Everything a fresh client writes after one send, as recorded by
        // a listener that never answers.
        let first_frame = |send: &dyn Fn(&mut DisputeClient)| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = DisputeClient::connect(listener.local_addr().unwrap()).unwrap();
            let (mut peer, _) = listener.accept().unwrap();
            send(&mut client);
            drop(client);
            let mut bytes = Vec::new();
            std::io::Read::read_to_end(&mut peer, &mut bytes).unwrap();
            bytes
        };
        let owned = first_frame(&|client| {
            client.send_docket(&disputes).unwrap();
        });
        let by_ref = first_frame(&|client| {
            client.send_docket_ref(&bodies, &refs).unwrap();
        });
        assert!(!owned.is_empty());
        assert_eq!(owned, by_ref);
    }

    /// A docket whose every reference is inlined keeps no bodies and no
    /// dispute list while in flight; one with any digest-only reference
    /// keeps every body it references, the inlined ones included.
    #[test]
    fn only_dockets_with_a_digest_only_reference_retain_bodies() {
        let mut rng = SmallRng::seed_from_u64(19);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
        let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
        let first = OwnershipClaim::new(Signature::random(3, 0.5, &mut rng), trigger.clone(), test);
        let second = OwnershipClaim::new(Signature::random(3, 0.5, &mut rng), trigger.clone(), trigger);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = DisputeClient::connect(listener.local_addr().unwrap()).unwrap();
        let _peer = listener.accept().unwrap();

        let inlined = client
            .send_docket(&[
                Dispute::new("m", first.clone()),
                Dispute::new("other", first.clone()),
            ])
            .unwrap();
        let entry = &client.pending[&inlined.correlation_id()];
        assert!(entry.bodies.is_empty() && entry.disputes.is_empty());

        // `first` now travels digest-only, so this docket keeps both bodies.
        let mixed = client
            .send_docket(&[
                Dispute::new("m", first.clone()),
                Dispute::new("m", second.clone()),
            ])
            .unwrap();
        let entry = &client.pending[&mixed.correlation_id()];
        assert_eq!(entry.disputes.len(), 2);
        assert_eq!(
            entry.bodies.keys().copied().collect::<HashSet<_>>(),
            HashSet::from([PayloadDigest::of_claim(&first), PayloadDigest::of_claim(&second)])
        );
    }
}

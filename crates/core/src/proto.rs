//! Versioned wire protocol for dispute resolution ("judge as a service").
//!
//! The paper's verification protocol is an interaction between parties that
//! do not share a process: model owners and claimants *submit* disputes to
//! a trusted judge. This module defines the request/response surface of
//! that judge as typed messages with an explicit, versioned binary framing,
//! applying the same discipline [`crate::persist`] already applies to
//! on-disk artefacts — a dispute must never be decided on a silently
//! misread message.
//!
//! ## Frame format (v5)
//!
//! Every message travels as one length-prefixed frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "WDTP"
//! 4       2     protocol version (little-endian u16, currently 5)
//! 6       8     correlation id (little-endian u64)
//! 14      8     sequence number (little-endian u64; 0 on anonymous frames)
//! 22      16    tenant id (ASCII, zero-padded; all-zero = anonymous)
//! 38      16    authentication tag (truncated HMAC-SHA-256; zero when
//!               anonymous)
//! 54      4     payload length in bytes (little-endian u32)
//! 58      len   payload: one value in the binary codec (serde::binary)
//! ```
//!
//! v4 widens the header with the three authentication fields of the
//! multi-tenant judge (see [`crate::tenant`]): a fixed tenant field, a
//! per-connection **sequence number**, and an HMAC-SHA-256 **tag** over
//! the frame transcript (magic, version, correlation id, sequence, tenant
//! field, payload length, payload) under the tenant's shared secret,
//! truncated to [`TAG_BYTES`]. The sequence must grow strictly
//! monotonically within one connection, and it is folded into the tag, so
//! a byte-identical replayed frame is refused even though its tag is
//! genuine. *Anonymous* frames — the only kind a judge without a key file
//! sees — carry zeroes in all three fields; a judge holding keys refuses
//! them. Requests are authenticated client→judge only: response frames
//! always travel with zeroed auth fields (the judge is the trusted party
//! of the paper's protocol). v3 had an 18-byte header without these
//! fields; v3 model payloads (k-class forests) are carried unchanged.
//! v5 keeps the v4 header and cuts the request set to one way of sending
//! a claim, [`Request::ResolveDocketRef`] (a single resolution is a docket
//! of one), and docket verdicts carry a [`WireFault`].
//!
//! The **correlation id** (since v2) lets a client stamp every request
//! with an id of its choosing, echoed on the response frame. Responses
//! therefore need not arrive in request order — a client can keep many
//! dockets in flight on one connection and match each verdict to its
//! request by id (see `DisputeClient::send_docket` / `recv_docket` in the
//! server crate). Id `0` is reserved for server errors answering a frame
//! whose header could not be parsed (there is no request id to echo).
//!
//! The payload is one value in the binary tag-length-value codec
//! persist uses for binary artefacts ([`serde::binary`]), so forests,
//! [`OwnershipClaim`]s and [`VerificationReport`]s cross the wire in the
//! same bounds-checked, allocation-capped, depth-limited encoding they are
//! stored in. Messages, models included, are encoded straight into the
//! frame buffer and decoded straight from the payload bytes, with no
//! intermediate [`serde::Value`] tree. Decoding is hardened end to end:
//! the length prefix is validated against a receiver-side cap *before* any
//! allocation ([`WatermarkError::FrameTooLarge`]), unknown magic,
//! truncated frames and payloads that do not decode surface as
//! [`WatermarkError::ProtocolViolation`], and a frame written by a
//! different protocol version fails with
//! [`WatermarkError::UnsupportedProtocolVersion`]. Magic and version are
//! checked from the first [`FRAME_PRELUDE_BYTES`] bytes alone, before the
//! rest of the header is awaited: a v1 frame (whose header was 8 bytes
//! shorter) is refused with a *version* error, not misread as truncation.
//! Every receiver runs these checks through one [`FrameReader`].
//!
//! ## Content addressing
//!
//! v2 payloads can travel by reference. A [`PayloadDigest`] is a 128-bit
//! FNV-style digest over the full logical content of a claim or model —
//! the same word-wise FNV-1a construction `OwnershipClaim::disguise_seed`
//! uses, widened to two independent streams and extended over the test
//! set, so two claims differing anywhere produce different digests for
//! every practical purpose. [`Request::ResolveDocketRef`] names each
//! dispute's claim by digest and inlines only bodies the judge has not
//! seen; the judge answers a reference it cannot resolve with
//! [`Response::NeedPayload`], and the client resends the docket with the
//! named bodies inlined. The digest is a cache key,
//! not an authentication mechanism: the judge computes digests itself
//! from the bytes it received (a peer cannot bind a digest to foreign
//! content), but the construction is not collision-resistant against a
//! cryptographic adversary. The judge's claim cache therefore compares a
//! body whose digest it already holds with the cached one bit for bit,
//! and refuses a different body.
//!
//! ## Version policy
//!
//! [`PROTOCOL_VERSION`] is bumped whenever the frame layout or the shape of
//! an existing message changes. Peers accept exactly the version they were
//! built with — adding a *new* request kind is also a bump, because an old
//! judge must refuse it loudly rather than answer garbage. The protocol
//! version is deliberately independent of [`crate::persist::FORMAT_VERSION`]: the
//! wire and the disk evolve separately.

use crate::error::{WatermarkError, WatermarkResult};
use crate::verify::{OwnershipClaim, VerificationReport};
use serde::{Deserialize, Serialize};
use std::io::Read;
use wdte_trees::{Node, RandomForest};

/// Magic bytes opening every protocol frame ("WDTP" = WDTE protocol; the
/// final byte differs from the on-disk [`crate::persist::MAGIC`] so a stray
/// artefact file can never be mistaken for a frame, or vice versa).
pub const PROTO_MAGIC: &[u8; 4] = b"WDTP";

/// Protocol version this build speaks and accepts. v5 = the v4
/// authenticated multi-tenant header (sequence + tenant + tag fields)
/// with one claim-carrying request, [`Request::ResolveDocketRef`], whose
/// per-dispute failures travel as [`WireFault`]s.
pub const PROTOCOL_VERSION: u16 = 5;

/// Bytes of the header prelude: magic + version. The prelude is validated
/// on its own before the rest of the header is read, so a frame from a
/// different protocol version — whose header may be a different length —
/// is refused with a version error instead of being misparsed.
pub const FRAME_PRELUDE_BYTES: usize = 6;

/// Size of the fixed tenant-id field in the frame header.
pub const TENANT_FIELD_BYTES: usize = 16;

/// Size of the truncated HMAC-SHA-256 authentication tag.
pub const TAG_BYTES: usize = 16;

/// Byte offset of the length prefix within the header (its last field).
pub const LENGTH_OFFSET: usize = FRAME_HEADER_BYTES - 4;

/// Number of bytes before the payload: magic + version + correlation id +
/// sequence + tenant field + tag + length prefix.
pub const FRAME_HEADER_BYTES: usize = 6 + 8 + 8 + TENANT_FIELD_BYTES + TAG_BYTES + 4;

/// Correlation id used by a judge answering a frame whose header could not
/// be parsed: there is no request id to echo.
pub const NO_CORRELATION: u64 = 0;

/// Default receiver-side cap on one frame's payload (256 MiB) — generous
/// enough for a large registered forest, small enough that a hostile
/// length prefix cannot drive the judge into a multi-gigabyte allocation.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 256 << 20;

/// 128-bit content digest of a claim or model payload: two independent
/// word-wise FNV-1a streams (the `disguise_seed` construction) over the
/// full logical content. Used as the cache key for content-addressed
/// payloads — see the module docs for what it does and does not promise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PayloadDigest {
    /// High 64 bits (first FNV stream).
    pub hi: u64,
    /// Low 64 bits (second FNV stream).
    pub lo: u64,
}

/// Two independent 64-bit FNV-1a streams fed word-wise. The second stream
/// uses a different offset basis and pre-rotates each word, so the two
/// halves decorrelate even on structured input (long runs of equal words).
struct DigestStream {
    hi: u64,
    lo: u64,
}

impl DigestStream {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    /// Second offset basis (the FNV-0 historic basis), distinct from the
    /// standard FNV-1a offset so the streams never start in lockstep.
    const FNV_OFFSET_ALT: u64 = 0x6c62_272e_07bb_0142;

    fn new(domain: &str) -> Self {
        let mut stream = Self {
            hi: Self::FNV_OFFSET,
            lo: Self::FNV_OFFSET_ALT,
        };
        // Domain separation: a claim and a model with coincidentally equal
        // word streams must not collide.
        for &byte in domain.as_bytes() {
            stream.eat(u64::from(byte));
        }
        stream
    }

    fn eat(&mut self, word: u64) {
        self.hi = (self.hi ^ word).wrapping_mul(Self::FNV_PRIME);
        self.lo = (self.lo ^ word.rotate_left(31)).wrapping_mul(Self::FNV_PRIME);
    }

    fn eat_dataset(&mut self, dataset: &wdte_data::Dataset) {
        self.eat(dataset.len() as u64);
        self.eat(dataset.num_features() as u64);
        for (instance, label) in dataset.iter() {
            for &value in instance {
                self.eat(value.to_bits());
            }
            self.eat(label.index() as u64);
        }
    }

    fn finish(self) -> PayloadDigest {
        PayloadDigest {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

impl PayloadDigest {
    /// Digest of an ownership claim's logical content: signature bits,
    /// trigger set and test set (rows, labels, shapes). Unlike
    /// `disguise_seed`, which deliberately skips the disguise set to stay
    /// off the verification hot path, this covers the test set too. It
    /// does not cover the sets' `num_classes`, and it is not
    /// collision-resistant, so two different claims can share a digest;
    /// the claim cache compares bodies on a digest hit.
    pub fn of_claim(claim: &OwnershipClaim) -> Self {
        let mut stream = DigestStream::new("wdtp:claim");
        stream.eat(claim.signature.len() as u64);
        for &bit in claim.signature.bits() {
            stream.eat(u64::from(bit));
        }
        stream.eat_dataset(&claim.trigger_set);
        stream.eat_dataset(&claim.test_set);
        stream.finish()
    }

    /// Digest of a pointer-tree model's full logical content: every node of
    /// every tree plus the per-tree feature subsets.
    pub fn of_model(model: &RandomForest) -> Self {
        let mut stream = DigestStream::new("wdtp:model");
        stream.eat(model.num_trees() as u64);
        stream.eat(model.num_features() as u64);
        for tree in model.trees() {
            let nodes = tree.nodes();
            stream.eat(nodes.len() as u64);
            stream.eat(tree.root() as u64);
            for node in nodes {
                match node {
                    Node::Leaf { label, counts } => {
                        stream.eat(0);
                        stream.eat(label.index() as u64);
                        // Per-class weights in index order; for binary
                        // models this is exactly the old [negative,
                        // positive] word stream, so k = 2 digests are
                        // unchanged.
                        for &weight in counts.slice() {
                            stream.eat(weight.to_bits());
                        }
                    }
                    Node::Internal {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        stream.eat(1);
                        stream.eat(*feature as u64);
                        stream.eat(threshold.to_bits());
                        stream.eat(*left as u64);
                        stream.eat(*right as u64);
                    }
                }
            }
        }
        for subset in model.feature_subsets() {
            stream.eat(subset.len() as u64);
            for &feature in subset {
                stream.eat(feature as u64);
            }
        }
        stream.finish()
    }
}

impl std::fmt::Display for PayloadDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// One dispute of a content-addressed docket: the claim travels as a
/// digest, the body having been inlined in the same request's `bodies` or
/// uploaded earlier on this judge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisputeRef {
    /// Registry id of the suspect model.
    pub model_id: String,
    /// Content digest of the owner's evidence.
    pub digest: PayloadDigest,
}

impl DisputeRef {
    /// Builds a reference dispute.
    pub fn new(model_id: impl Into<String>, digest: PayloadDigest) -> Self {
        Self {
            model_id: model_id.into(),
            digest,
        }
    }
}

/// A request filed with the judge. One frame carries exactly one request;
/// the judge answers each with exactly one [`Response`] frame on the same
/// connection, carrying the request's correlation id. Responses may arrive
/// in any order relative to other in-flight requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Registers a pointer-tree model under `model_id`; the judge compiles
    /// it once and serves every later claim from the compiled form.
    RegisterModel {
        /// Registry id the model will be reachable under.
        model_id: String,
        /// The suspect model, in the persist binary encoding.
        model: RandomForest,
    },
    /// Registers an already-uploaded model under a (possibly new) id by
    /// content digest, skipping the model upload entirely. Answered with
    /// [`Response::NeedPayload`] if the judge has no model with that
    /// digest.
    RegisterModelRef {
        /// Registry id the model will be reachable under.
        model_id: String,
        /// Content digest of a previously registered model.
        digest: PayloadDigest,
    },
    /// Resolves a docket concurrently, one verdict per dispute in input
    /// order — the only request that carries claims; a single resolution
    /// is a docket of one. `bodies` carries only claims the client
    /// believes the judge has not cached, and each dispute names its claim
    /// by digest. A digest the judge can resolve from neither `bodies` nor
    /// its cache is answered with [`Response::NeedPayload`] (no partial
    /// verdicts).
    ResolveDocketRef {
        /// Claim bodies inlined with this docket (deduplicated).
        bodies: Vec<OwnershipClaim>,
        /// The disputes to adjudicate, claims by digest.
        disputes: Vec<DisputeRef>,
    },
    /// Lists the ids of every registered model, sorted.
    ListModels,
    /// Removes a model from the registry.
    Deregister {
        /// Registry id to remove.
        model_id: String,
    },
    /// Asks for per-tenant accounting. An authenticated tenant receives
    /// its own row only; on a judge running without keys the anonymous
    /// caller sees every namespace.
    Stats,
}

/// The judge's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Protocol version the judge speaks.
        protocol_version: u16,
        /// Artefact format version the judge reads and writes.
        format_version: u16,
        /// Number of models currently registered.
        models_registered: u64,
        /// Number of claim bodies currently in the content cache.
        claims_cached: u64,
    },
    /// Answer to [`Request::RegisterModel`] / [`Request::RegisterModelRef`].
    Registered {
        /// The id the model is now reachable under.
        model_id: String,
        /// Tree count of the registered model (sanity echo).
        num_trees: u64,
        /// Content digest the judge computed for the model — the handle
        /// for later [`Request::RegisterModelRef`] calls. A client that
        /// computes digests locally can cross-check its own value against
        /// this echo.
        digest: PayloadDigest,
    },
    /// Answer to [`Request::ResolveDocketRef`].
    Docket {
        /// One verdict per dispute, in input order.
        verdicts: Vec<DocketVerdict>,
    },
    /// The request referenced content the judge does not hold: the caller
    /// should upload the named bodies and retry. Never a partial answer —
    /// a docket with any unresolvable digest performs no resolution work.
    NeedPayload {
        /// The digests the judge could not resolve, deduplicated, in first
        /// reference order.
        digests: Vec<PayloadDigest>,
    },
    /// Answer to [`Request::ListModels`].
    Models {
        /// Sorted ids of every registered model.
        model_ids: Vec<String>,
    },
    /// Answer to [`Request::Deregister`].
    Deregistered {
        /// The id that was removed.
        model_id: String,
        /// Whether the id was registered before the request.
        existed: bool,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// One row per visible tenant, sorted by tenant id.
        tenants: Vec<crate::tenant::TenantStatsEntry>,
    },
    /// The request could not be served at all.
    Error {
        /// What went wrong, in a structured form.
        fault: WireFault,
    },
}

/// One verdict of a [`Response::Docket`]: the wire rendering of the
/// per-dispute `WatermarkResult<VerificationReport>` that
/// `DisputeService::resolve_many` produces in process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DocketVerdict {
    /// The dispute was adjudicated.
    Report(VerificationReport),
    /// The dispute was refused, exactly as a request-level refusal would
    /// have been.
    Fault(WireFault),
}

impl DocketVerdict {
    /// Wire rendering of an in-process verdict.
    pub fn from_result(result: WatermarkResult<VerificationReport>) -> Self {
        match result {
            Ok(report) => DocketVerdict::Report(report),
            Err(err) => DocketVerdict::Fault(WireFault::from_error(&err)),
        }
    }

    /// Reconstructs the in-process verdict on the client side, through
    /// [`WireFault::into_error`].
    pub fn into_result(self) -> WatermarkResult<VerificationReport> {
        match self {
            DocketVerdict::Report(report) => Ok(report),
            DocketVerdict::Fault(fault) => Err(fault.into_error()),
        }
    }
}

/// Structured rendering of a refusal: of a whole request in
/// [`Response::Error`], of one dispute in [`DocketVerdict::Fault`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireFault {
    /// The request named a model the judge does not know.
    UnknownModel {
        /// The unknown registry id.
        model_id: String,
    },
    /// The docket exceeded the judge's configured cap and was refused
    /// whole.
    DocketTooLarge {
        /// Number of disputes in the refused docket.
        size: u64,
        /// The judge's cap.
        max: u64,
    },
    /// The frame decoded but its content violated the protocol.
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The peer's frame announced a protocol version this judge does not
    /// speak.
    UnsupportedProtocolVersion {
        /// Version announced by the peer.
        found: u16,
        /// Version the judge speaks.
        supported: u16,
    },
    /// The peer's frame announced a payload beyond the judge's cap.
    FrameTooLarge {
        /// Announced payload size in bytes.
        size: u64,
        /// The judge's cap in bytes.
        max: u64,
    },
    /// The judge failed internally while serving a well-formed request.
    Internal {
        /// The rendered error message.
        detail: String,
    },
    /// The frame failed authentication (unknown tenant, bad tag, replayed
    /// sequence, or an anonymous frame on a keyed judge).
    AuthFailed {
        /// What failed, coarsely.
        detail: String,
    },
    /// The request crossed a tenant boundary.
    Forbidden {
        /// What was refused.
        detail: String,
    },
    /// A per-tenant quota would have been exceeded; nothing was allocated
    /// or resolved.
    QuotaExceeded {
        /// The quota axis that was hit.
        resource: String,
        /// Usage the request would have reached.
        used: u64,
        /// The configured per-tenant limit.
        limit: u64,
    },
}

impl WireFault {
    /// Wire rendering of a server-side error.
    pub fn from_error(err: &WatermarkError) -> Self {
        match err {
            WatermarkError::UnknownModel { model_id } => WireFault::UnknownModel {
                model_id: model_id.clone(),
            },
            WatermarkError::DocketTooLarge { size, max } => WireFault::DocketTooLarge {
                size: *size as u64,
                max: *max as u64,
            },
            WatermarkError::ProtocolViolation { detail } => WireFault::BadRequest {
                detail: detail.clone(),
            },
            WatermarkError::UnsupportedProtocolVersion { found, supported } => {
                WireFault::UnsupportedProtocolVersion {
                    found: *found,
                    supported: *supported,
                }
            }
            WatermarkError::FrameTooLarge { size, max } => WireFault::FrameTooLarge {
                size: *size,
                max: *max,
            },
            WatermarkError::AuthenticationFailed { detail } => WireFault::AuthFailed {
                detail: detail.clone(),
            },
            WatermarkError::Forbidden { detail } => WireFault::Forbidden {
                detail: detail.clone(),
            },
            WatermarkError::QuotaExceeded {
                resource,
                used,
                limit,
            } => WireFault::QuotaExceeded {
                resource: resource.clone(),
                used: *used,
                limit: *limit,
            },
            // A relayed failure keeps its message as is, so each hop
            // does not prefix it again.
            WatermarkError::Remote { message } => WireFault::Internal {
                detail: message.clone(),
            },
            other => WireFault::Internal {
                detail: other.to_string(),
            },
        }
    }

    /// Reconstructs the typed error on the client side. Structured faults
    /// round-trip exactly; [`WireFault::Internal`] surfaces as
    /// [`WatermarkError::Remote`].
    pub fn into_error(self) -> WatermarkError {
        match self {
            WireFault::UnknownModel { model_id } => WatermarkError::UnknownModel { model_id },
            WireFault::DocketTooLarge { size, max } => WatermarkError::DocketTooLarge {
                size: size as usize,
                max: max as usize,
            },
            WireFault::BadRequest { detail } => WatermarkError::ProtocolViolation { detail },
            WireFault::UnsupportedProtocolVersion { found, supported } => {
                WatermarkError::UnsupportedProtocolVersion { found, supported }
            }
            WireFault::FrameTooLarge { size, max } => WatermarkError::FrameTooLarge { size, max },
            WireFault::Internal { detail } => WatermarkError::Remote { message: detail },
            WireFault::AuthFailed { detail } => WatermarkError::AuthenticationFailed { detail },
            WireFault::Forbidden { detail } => WatermarkError::Forbidden { detail },
            WireFault::QuotaExceeded {
                resource,
                used,
                limit,
            } => WatermarkError::QuotaExceeded {
                resource,
                used,
                limit,
            },
        }
    }
}

/// The parsed fixed-size part of one v5 frame: everything the receiver
/// knows before (and about) the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The sender's correlation id, echoed on the response.
    pub correlation_id: u64,
    /// Per-connection sequence number (0 on anonymous frames).
    pub sequence: u64,
    /// Raw zero-padded tenant field (all-zero = anonymous).
    pub tenant: [u8; TENANT_FIELD_BYTES],
    /// Truncated HMAC tag (all-zero on anonymous frames).
    pub tag: [u8; TAG_BYTES],
    /// Announced payload length in bytes.
    pub announced: usize,
}

impl FrameHeader {
    /// Whether the frame carries no authentication fields at all.
    pub fn is_anonymous(&self) -> bool {
        self.sequence == 0 && self.tenant.iter().all(|&b| b == 0) && self.tag.iter().all(|&b| b == 0)
    }
}

/// Encodes one message into a complete *anonymous* frame (header +
/// payload) carrying `correlation_id`: sequence, tenant and tag fields
/// are all zero. Fails with [`WatermarkError::FrameTooLarge`] if the
/// payload exceeds what the u32 length prefix can announce — the
/// sender-side mirror of the receiver's cap, surfaced as a typed error
/// rather than a panic.
pub fn encode_frame<T: Serialize + ?Sized>(
    correlation_id: u64,
    message: &T,
) -> WatermarkResult<Vec<u8>> {
    encode_frame_with(correlation_id, 0, &[0u8; TENANT_FIELD_BYTES], message, |_| {
        [0u8; TAG_BYTES]
    })
}

/// Encodes one message into an *authenticated* frame: the tenant id and
/// `sequence` travel in the header and the tag is computed over the full
/// frame transcript under `key` (see [`crate::tenant::frame_tag`]).
pub fn encode_frame_auth<T: Serialize + ?Sized>(
    correlation_id: u64,
    message: &T,
    tenant: &crate::tenant::TenantId,
    sequence: u64,
    key: &[u8],
) -> WatermarkResult<Vec<u8>> {
    let tenant_field = tenant.field();
    encode_frame_with(correlation_id, sequence, &tenant_field, message, |payload| {
        crate::tenant::frame_tag(key, correlation_id, sequence, &tenant_field, payload)
    })
}

/// Writes the header with placeholder tag and length, encodes the payload
/// in place after it, then patches in the length and the tag `tag_of`
/// computes over the payload.
fn encode_frame_with<T: Serialize + ?Sized>(
    correlation_id: u64,
    sequence: u64,
    tenant_field: &[u8; TENANT_FIELD_BYTES],
    message: &T,
    tag_of: impl FnOnce(&[u8]) -> [u8; TAG_BYTES],
) -> WatermarkResult<Vec<u8>> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + 64);
    frame.extend_from_slice(PROTO_MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame.extend_from_slice(&correlation_id.to_le_bytes());
    frame.extend_from_slice(&sequence.to_le_bytes());
    frame.extend_from_slice(tenant_field);
    frame.resize(FRAME_HEADER_BYTES, 0);
    message.write_binary(&mut frame);
    let payload = &frame[FRAME_HEADER_BYTES..];
    let Ok(announced) = u32::try_from(payload.len()) else {
        return Err(WatermarkError::FrameTooLarge {
            size: payload.len() as u64,
            max: u64::from(u32::MAX),
        });
    };
    let tag = tag_of(payload);
    frame[LENGTH_OFFSET - TAG_BYTES..LENGTH_OFFSET].copy_from_slice(&tag);
    frame[LENGTH_OFFSET..FRAME_HEADER_BYTES].copy_from_slice(&announced.to_le_bytes());
    Ok(frame)
}

/// Decodes one message from a complete frame produced by [`encode_frame`]:
/// a [`FrameReader`] runs over the slice, so every check of the streamed
/// path applies, and bytes left after the frame are refused. Returns the
/// frame's correlation id with the message.
pub fn decode_frame<T: Deserialize>(frame: &[u8], max_frame_bytes: usize) -> WatermarkResult<(u64, T)> {
    let mut rest = frame;
    let Some((header, payload)) = read_frame(&mut rest, max_frame_bytes)? else {
        return Err(violation("an empty slice holds no frame"));
    };
    if !rest.is_empty() {
        return Err(violation(format!("{} bytes follow the frame", rest.len())));
    }
    Ok((header.correlation_id, decode_payload(&payload)?))
}

/// Decodes a message from raw payload bytes (the part after the header, as
/// returned by [`read_frame`]).
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> WatermarkResult<T> {
    serde::binary::from_slice(payload)
        .map_err(|err| violation(format!("payload does not decode: {err}")))
}

/// Validates the magic + version prelude at the start of `prelude`.
fn check_prelude(prelude: &[u8]) -> WatermarkResult<()> {
    let Some(&[m0, m1, m2, m3, v0, v1]) = prelude.first_chunk::<FRAME_PRELUDE_BYTES>() else {
        return Err(violation(format!(
            "a prelude of {} bytes is shorter than {FRAME_PRELUDE_BYTES}",
            prelude.len()
        )));
    };
    if &[m0, m1, m2, m3] != PROTO_MAGIC {
        return Err(violation(format!(
            "bad frame magic {:02x?} (expected \"WDTP\")",
            [m0, m1, m2, m3]
        )));
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != PROTOCOL_VERSION {
        return Err(WatermarkError::UnsupportedProtocolVersion {
            found: version,
            supported: PROTOCOL_VERSION,
        });
    }
    Ok(())
}

/// Validates the frame header at the start of `header`, returning its
/// parsed fields (including the authentication fields a keyed receiver
/// verifies once the payload has arrived). A slice shorter than the
/// header is a [`WatermarkError::ProtocolViolation`].
pub fn check_header(header: &[u8], max_frame_bytes: usize) -> WatermarkResult<FrameHeader> {
    check_prelude(header)?;
    let Some(header) = header.first_chunk::<FRAME_HEADER_BYTES>() else {
        return Err(violation(format!(
            "a header of {} bytes is shorter than {FRAME_HEADER_BYTES}",
            header.len()
        )));
    };
    let correlation_id = u64::from_le_bytes(header[6..14].try_into().expect("header slice is 8 bytes"));
    let sequence = u64::from_le_bytes(header[14..22].try_into().expect("header slice is 8 bytes"));
    let tenant: [u8; TENANT_FIELD_BYTES] = header[22..22 + TENANT_FIELD_BYTES]
        .try_into()
        .expect("header slice is 16 bytes");
    let tag: [u8; TAG_BYTES] = header[38..38 + TAG_BYTES].try_into().expect("header slice is 16 bytes");
    let announced = u32::from_le_bytes(
        header[LENGTH_OFFSET..FRAME_HEADER_BYTES]
            .try_into()
            .expect("header slice is 4 bytes"),
    ) as usize;
    if announced > max_frame_bytes {
        return Err(WatermarkError::FrameTooLarge {
            size: announced as u64,
            max: max_frame_bytes as u64,
        });
    }
    Ok(FrameHeader {
        correlation_id,
        sequence,
        tenant,
        tag,
        announced,
    })
}

/// Payload bytes a [`FrameReader`] makes room for before any arrive.
/// Past this the buffer at most doubles per step, so a hostile length
/// prefix below the cap cannot reserve much more than the peer sends.
const FIRST_PAYLOAD_BYTES: usize = 64 << 10;

/// What one [`FrameReader::read_from`] call produced.
#[derive(Debug)]
pub enum FrameRead {
    /// A whole frame: its checked header and its payload bytes.
    Frame(FrameHeader, Vec<u8>),
    /// The source would block; call again once it is readable.
    Pending,
    /// The source ended cleanly between frames.
    Closed,
}

/// The one place WDTP frames are reassembled: a resumable reader over
/// any [`Read`] source. The judge's poll loop keeps one per non-blocking
/// connection, [`read_frame`] drives one over a blocking stream, and
/// [`decode_frame`] runs one over a slice.
///
/// Magic and version are validated as soon as the prelude arrives (so a
/// v1 peer is refused with a version error before its shorter header
/// runs out), and the announced payload length against the cap once the
/// header is whole, before any payload is allocated. A stream that ends
/// inside a frame is a [`WatermarkError::ProtocolViolation`]; a failing
/// source is a [`WatermarkError::Io`]; `EINTR` is retried.
/// Authentication fields are parsed but *not* verified — a keyed
/// receiver runs [`crate::tenant::KeyRing::verify_frame`] on the result.
///
/// The reader never asks the source for a byte past the frame in
/// progress, so later pipelined frames stay in the kernel buffer (the
/// pipeline cap's backpressure), and it reads the payload in place. After
/// an error the stream is out of step; drop the reader.
#[derive(Debug)]
pub struct FrameReader {
    max_frame_bytes: usize,
    raw: [u8; FRAME_HEADER_BYTES],
    /// Header bytes received (and, past the prelude, checked).
    filled: usize,
    /// The checked header, once all of it has arrived.
    header: Option<FrameHeader>,
    /// The payload buffer, zeroed ahead of the bytes read into it.
    payload: Vec<u8>,
    /// Payload bytes received.
    received: usize,
}

impl FrameReader {
    /// A reader awaiting the first byte of a frame whose payload may be
    /// at most `max_frame_bytes`.
    pub fn new(max_frame_bytes: usize) -> Self {
        Self {
            max_frame_bytes,
            raw: [0; FRAME_HEADER_BYTES],
            filled: 0,
            header: None,
            payload: Vec::new(),
            received: 0,
        }
    }

    /// The correlation id a failure of the frame in progress is answered
    /// under: the header's once all of it has arrived behind a valid
    /// prelude, [`NO_CORRELATION`] before that.
    pub fn correlation_id(&self) -> u64 {
        if self.filled < FRAME_HEADER_BYTES {
            return NO_CORRELATION;
        }
        u64::from_le_bytes(self.raw[6..14].try_into().expect("header slice is 8 bytes"))
    }

    /// Reads from `source` until a whole frame has arrived, the source
    /// would block, or it ends.
    pub fn read_from<R: Read>(&mut self, source: &mut R) -> WatermarkResult<FrameRead> {
        loop {
            let Some(header) = self.header else {
                let Some(n) = read_some(source, &mut self.raw[self.filled..])? else {
                    return Ok(FrameRead::Pending);
                };
                if n == 0 {
                    if self.filled == 0 {
                        return Ok(FrameRead::Closed);
                    }
                    return Err(violation(format!(
                        "stream closed after {} of {FRAME_HEADER_BYTES} header bytes",
                        self.filled
                    )));
                }
                // A refused prelude is never counted as received, so its
                // failure blames no correlation id.
                if self.filled < FRAME_PRELUDE_BYTES && self.filled + n >= FRAME_PRELUDE_BYTES {
                    check_prelude(&self.raw)?;
                }
                self.filled += n;
                if self.filled == FRAME_HEADER_BYTES {
                    self.header = Some(check_header(&self.raw, self.max_frame_bytes)?);
                }
                continue;
            };
            if self.received == header.announced {
                let payload = std::mem::take(&mut self.payload);
                (self.filled, self.header, self.received) = (0, None, 0);
                return Ok(FrameRead::Frame(header, payload));
            }
            if self.received == self.payload.len() {
                let grown = (2 * self.received).max(FIRST_PAYLOAD_BYTES).min(header.announced);
                self.payload.reserve_exact(grown - self.received);
                self.payload.resize(grown, 0);
            }
            match read_some(source, &mut self.payload[self.received..])? {
                None => return Ok(FrameRead::Pending),
                Some(0) => {
                    return Err(violation(format!(
                        "stream closed after {} of {} payload bytes",
                        self.received, header.announced
                    )))
                }
                Some(n) => self.received += n,
            }
        }
    }
}

/// One `read` into `buf`, retried on `EINTR`; `None` if the source would
/// block.
fn read_some<R: Read>(source: &mut R, buf: &mut [u8]) -> WatermarkResult<Option<usize>> {
    loop {
        match source.read(buf) {
            Ok(n) => return Ok(Some(n)),
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
            Err(err) => return Err(io_violation(err)),
        }
    }
}

/// Reads one frame from `reader` and returns its parsed header and
/// payload bytes, or `Ok(None)` on a clean end-of-stream (the peer closed
/// between frames). See [`FrameReader`] for the checks. A blocking
/// socket would-blocks only when its read timeout expires, which is a
/// [`WatermarkError::Io`].
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_frame_bytes: usize,
) -> WatermarkResult<Option<(FrameHeader, Vec<u8>)>> {
    match FrameReader::new(max_frame_bytes).read_from(reader)? {
        FrameRead::Frame(header, payload) => Ok(Some((header, payload))),
        FrameRead::Closed => Ok(None),
        FrameRead::Pending => Err(WatermarkError::Io {
            path: "socket".to_string(),
            message: "read timed out before a whole frame arrived".to_string(),
        }),
    }
}

/// Reads one message from `reader`, returning its correlation id.
/// End-of-stream before any byte yields `Ok(None)`.
pub fn read_message<T: Deserialize, R: Read>(
    reader: &mut R,
    max_frame_bytes: usize,
) -> WatermarkResult<Option<(u64, T)>> {
    match read_frame(reader, max_frame_bytes)? {
        Some((header, payload)) => Ok(Some((header.correlation_id, decode_payload(&payload)?))),
        None => Ok(None),
    }
}

fn violation(detail: impl Into<String>) -> WatermarkError {
    WatermarkError::ProtocolViolation {
        detail: detail.into(),
    }
}

/// Socket-level failures (timeout, reset, EPIPE) are *transport* errors,
/// not protocol violations: nothing the peer sent was wrong. They surface
/// as [`WatermarkError::Io`] so a judge answering best-effort renders them
/// as an internal fault rather than blaming the peer's request.
fn io_violation(err: std::io::Error) -> WatermarkError {
    WatermarkError::Io {
        path: "socket".to_string(),
        message: err.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::SyntheticSpec;
    use wdte_trees::ForestParams;

    fn sample_claim() -> OwnershipClaim {
        let mut rng = SmallRng::seed_from_u64(9);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
        let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
        OwnershipClaim::new(Signature::random(8, 0.5, &mut rng), trigger, test)
    }

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(message: &T) {
        let frame = encode_frame(7, message).unwrap();
        assert_eq!(&frame[..4], PROTO_MAGIC);
        let (corr, decoded) = decode_frame::<T>(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(corr, 7);
        assert_eq!(&decoded, message);
        // Streamed path: read_frame + decode_payload see the same message.
        let mut reader = std::io::Cursor::new(frame);
        let (header, payload) = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(header.correlation_id, 7);
        assert!(header.is_anonymous(), "plain encode_frame must stay anonymous");
        let streamed: T = decode_payload(&payload).unwrap();
        assert_eq!(&streamed, message);
        // And the stream is exhausted: the next read is a clean EOF.
        assert!(read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn every_request_kind_round_trips() {
        let mut rng = SmallRng::seed_from_u64(10);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
        let model = RandomForest::fit(&dataset, &ForestParams::with_trees(4), &mut rng);
        let digest = PayloadDigest::of_model(&model);
        let claim = sample_claim();
        round_trip(&Request::Ping);
        round_trip(&Request::RegisterModel {
            model_id: "m".into(),
            model,
        });
        round_trip(&Request::RegisterModelRef {
            model_id: "m2".into(),
            digest,
        });
        round_trip(&Request::ResolveDocketRef {
            disputes: vec![DisputeRef::new("m", PayloadDigest::of_claim(&claim))],
            bodies: vec![claim],
        });
        round_trip(&Request::ListModels);
        round_trip(&Request::Deregister { model_id: "m".into() });
        round_trip(&Request::Stats);
    }

    #[test]
    fn every_response_kind_round_trips() {
        let report = VerificationReport {
            verified: true,
            instance_matches: vec![true, false, true],
            bit_agreement: 0.75,
            queries_issued: 42,
        };
        let digest = PayloadDigest { hi: 1, lo: 2 };
        round_trip(&Response::Pong {
            protocol_version: PROTOCOL_VERSION,
            format_version: crate::persist::FORMAT_VERSION,
            models_registered: 3,
            claims_cached: 9,
        });
        round_trip(&Response::Registered {
            model_id: "m".into(),
            num_trees: 16,
            digest,
        });
        round_trip(&Response::Docket {
            verdicts: vec![
                DocketVerdict::Report(report),
                DocketVerdict::Fault(WireFault::UnknownModel {
                    model_id: "ghost".into(),
                }),
                DocketVerdict::Fault(WireFault::Forbidden {
                    detail: "other tenant".into(),
                }),
            ],
        });
        round_trip(&Response::NeedPayload {
            digests: vec![digest, PayloadDigest { hi: 3, lo: 4 }],
        });
        round_trip(&Response::Models {
            model_ids: vec!["a".into(), "b".into()],
        });
        round_trip(&Response::Deregistered {
            model_id: "m".into(),
            existed: false,
        });
        round_trip(&Response::Stats {
            tenants: vec![crate::tenant::TenantStatsEntry {
                tenant: "alice".into(),
                models: 2,
                dockets: 10,
                claims: 640,
                cache_hits: 600,
                cache_misses: 40,
                evictions: 1,
                auth_failures: 3,
                claim_bytes: 1 << 20,
                in_flight: 4,
            }],
        });
        round_trip(&Response::Error {
            fault: WireFault::DocketTooLarge { size: 1000, max: 64 },
        });
        round_trip(&Response::Error {
            fault: WireFault::AuthFailed {
                detail: "bad tag".into(),
            },
        });
        round_trip(&Response::Error {
            fault: WireFault::QuotaExceeded {
                resource: "models".into(),
                used: 3,
                limit: 2,
            },
        });
    }

    #[test]
    fn correlation_ids_round_trip_the_full_u64_range() {
        for corr in [0u64, 1, u64::from(u32::MAX) + 1, u64::MAX] {
            let frame = encode_frame(corr, &Request::Ping).unwrap();
            let (decoded, _) = decode_frame::<Request>(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(decoded, corr);
        }
    }

    #[test]
    fn bad_magic_is_a_protocol_violation() {
        let mut frame = encode_frame(1, &Request::Ping).unwrap();
        frame[..4].copy_from_slice(b"WDTE"); // the *artefact* magic
        assert!(matches!(
            decode_frame::<Request>(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            WatermarkError::ProtocolViolation { .. }
        ));
    }

    #[test]
    fn future_version_is_a_typed_error() {
        let mut frame = encode_frame(1, &Request::Ping).unwrap();
        frame[4] = 0xFF;
        frame[5] = 0x7F;
        match decode_frame::<Request>(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err() {
            WatermarkError::UnsupportedProtocolVersion { found, supported } => {
                assert_eq!(found, 0x7FFF);
                assert_eq!(supported, PROTOCOL_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    /// A v1 frame (10-byte header: magic, version 1, length) must be
    /// refused as an unsupported *version* — on the prelude alone — rather
    /// than misparsed or reported as truncation, even though its header is
    /// shorter than the v2 header.
    #[test]
    fn v1_frames_are_refused_with_a_version_error() {
        let mut v1_frame = Vec::new();
        v1_frame.extend_from_slice(PROTO_MAGIC);
        v1_frame.extend_from_slice(&1u16.to_le_bytes());
        v1_frame.extend_from_slice(&4u32.to_le_bytes());
        v1_frame.extend_from_slice(&[0, 0, 0, 0]);
        let mut reader = std::io::Cursor::new(&v1_frame);
        match read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).unwrap_err() {
            WatermarkError::UnsupportedProtocolVersion { found, supported } => {
                assert_eq!(found, 1);
                assert_eq!(supported, PROTOCOL_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
        // The whole-frame decoder agrees, even though the v1 frame is
        // shorter than a v2 header.
        assert!(v1_frame.len() < FRAME_HEADER_BYTES);
        assert!(matches!(
            decode_frame::<Request>(&v1_frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            WatermarkError::UnsupportedProtocolVersion { .. }
        ));
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocating() {
        let mut frame = encode_frame(1, &Request::Ping).unwrap();
        frame[LENGTH_OFFSET..FRAME_HEADER_BYTES].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame::<Request>(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err() {
            WatermarkError::FrameTooLarge { size, max } => {
                assert_eq!(size, u64::from(u32::MAX));
                assert_eq!(max, DEFAULT_MAX_FRAME_BYTES as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // The streamed reader refuses on the header alone, without waiting
        // for (or allocating) the announced payload.
        let mut reader = std::io::Cursor::new(&frame[..FRAME_HEADER_BYTES]);
        assert!(matches!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            WatermarkError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn truncated_frames_are_protocol_violations() {
        let frame = encode_frame(
            1,
            &Request::ResolveDocketRef {
                bodies: vec![sample_claim()],
                disputes: vec![],
            },
        )
        .unwrap();
        for cut in [
            1,
            4,
            FRAME_HEADER_BYTES - 1,
            FRAME_HEADER_BYTES + 1,
            frame.len() - 1,
        ] {
            let mut reader = std::io::Cursor::new(&frame[..cut]);
            assert!(
                matches!(
                    read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
                    WatermarkError::ProtocolViolation { .. }
                ),
                "cut at {cut} bytes"
            );
        }
    }

    #[test]
    fn trailing_bytes_inside_a_frame_are_rejected() {
        let mut frame = encode_frame(1, &Request::Ping).unwrap();
        // Grow the payload and fix up the length prefix so the frame itself
        // is well-formed — the *payload* now has trailing bytes.
        frame.push(0);
        let announced = (frame.len() - FRAME_HEADER_BYTES) as u32;
        frame[LENGTH_OFFSET..FRAME_HEADER_BYTES].copy_from_slice(&announced.to_le_bytes());
        assert!(matches!(
            decode_frame::<Request>(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            WatermarkError::ProtocolViolation { .. }
        ));
    }

    #[test]
    fn authenticated_frames_verify_and_refuse_tampering_and_replay() {
        use crate::tenant::{KeyRing, TenantId};
        let tenant = TenantId::new("alice").unwrap();
        let frame = encode_frame_auth(9, &Request::Ping, &tenant, 5, b"s3cret").unwrap();
        let mut reader = std::io::Cursor::new(&frame);
        let (header, payload) = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        assert!(!header.is_anonymous());
        assert_eq!(header.correlation_id, 9);
        assert_eq!(header.sequence, 5);
        let mut ring = KeyRing::new();
        ring.insert(tenant.clone(), b"s3cret".to_vec());
        assert_eq!(ring.verify_frame(&header, &payload, 4).unwrap(), tenant);
        // The payload decodes exactly as an anonymous frame's would.
        let decoded: Request = decode_payload(&payload).unwrap();
        assert_eq!(decoded, Request::Ping);
        // A byte-identical replay is refused once the sequence is spent.
        assert!(matches!(
            ring.verify_frame(&header, &payload, 5).unwrap_err(),
            WatermarkError::AuthenticationFailed { .. }
        ));
        // Tampering with the payload breaks the tag.
        let mut tampered = payload.clone();
        tampered[0] ^= 1;
        assert!(matches!(
            ring.verify_frame(&header, &tampered, 4).unwrap_err(),
            WatermarkError::AuthenticationFailed { .. }
        ));
        // A key the judge does not hold breaks the tag too.
        let mut wrong_ring = KeyRing::new();
        wrong_ring.insert(tenant, b"other".to_vec());
        assert!(matches!(
            wrong_ring.verify_frame(&header, &payload, 4).unwrap_err(),
            WatermarkError::AuthenticationFailed { .. }
        ));
        // An anonymous frame is refused outright by a keyed receiver.
        let anon = encode_frame(9, &Request::Ping).unwrap();
        let mut reader = std::io::Cursor::new(&anon);
        let (anon_header, anon_payload) =
            read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        assert!(matches!(
            wrong_ring.verify_frame(&anon_header, &anon_payload, 0).unwrap_err(),
            WatermarkError::AuthenticationFailed { .. }
        ));
    }

    #[test]
    fn wrong_message_shape_is_a_protocol_violation() {
        // A valid frame carrying a Response where a Request is expected.
        let frame = encode_frame(1, &Response::Models { model_ids: vec![] }).unwrap();
        assert!(matches!(
            decode_frame::<Request>(&frame, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            WatermarkError::ProtocolViolation { .. }
        ));
    }

    #[test]
    fn claim_digests_cover_the_full_claim_content() {
        let claim = sample_claim();
        // Deterministic and equal for equal content.
        assert_eq!(
            PayloadDigest::of_claim(&claim),
            PayloadDigest::of_claim(&claim.clone())
        );
        // Sensitive to every component — including the test set, which
        // `disguise_seed` deliberately skips.
        let base = PayloadDigest::of_claim(&claim);
        let mut other_signature = claim.clone();
        other_signature.signature =
            Signature::from_bits(claim.signature.bits().iter().map(|&b| !b).collect());
        assert_ne!(PayloadDigest::of_claim(&other_signature), base);
        let mut other_trigger = claim.clone();
        other_trigger.trigger_set = claim.trigger_set.with_flipped_labels();
        assert_ne!(PayloadDigest::of_claim(&other_trigger), base);
        let mut other_test = claim.clone();
        other_test.test_set = claim.test_set.with_flipped_labels();
        assert_ne!(
            PayloadDigest::of_claim(&other_test),
            base,
            "the content digest must cover the test set"
        );
        // Domain separation: a claim digest never equals a model digest.
        let mut rng = SmallRng::seed_from_u64(11);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
        let model = RandomForest::fit(&dataset, &ForestParams::with_trees(2), &mut rng);
        assert_ne!(PayloadDigest::of_model(&model), base);
    }

    #[test]
    fn model_digests_are_content_sensitive() {
        let mut rng = SmallRng::seed_from_u64(12);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
        let model_a = RandomForest::fit(&dataset, &ForestParams::with_trees(3), &mut rng);
        let model_b = RandomForest::fit(&dataset, &ForestParams::with_trees(3), &mut rng);
        assert_eq!(
            PayloadDigest::of_model(&model_a),
            PayloadDigest::of_model(&model_a.clone())
        );
        assert_ne!(
            PayloadDigest::of_model(&model_a),
            PayloadDigest::of_model(&model_b),
            "independently trained forests must not share a digest"
        );
    }

    #[test]
    fn verdict_and_fault_conversions_round_trip() {
        let report = VerificationReport {
            verified: false,
            instance_matches: vec![false],
            bit_agreement: 0.5,
            queries_issued: 7,
        };
        assert_eq!(
            DocketVerdict::from_result(Ok(report.clone())).into_result().unwrap(),
            report
        );
        let err = WatermarkError::UnknownModel { model_id: "x".into() };
        assert_eq!(
            DocketVerdict::from_result(Err(err.clone())).into_result().unwrap_err(),
            err
        );
        for structured in [
            WatermarkError::DocketTooLarge { size: 100, max: 10 },
            WatermarkError::ProtocolViolation {
                detail: "junk".into(),
            },
            WatermarkError::UnsupportedProtocolVersion {
                found: 9,
                supported: 1,
            },
            WatermarkError::FrameTooLarge {
                size: 1 << 40,
                max: 1 << 28,
            },
            WatermarkError::AuthenticationFailed {
                detail: "bad tag".into(),
            },
            WatermarkError::Forbidden {
                detail: "model `m` belongs to another tenant".into(),
            },
            WatermarkError::QuotaExceeded {
                resource: "models".into(),
                used: 100,
                limit: 64,
            },
        ] {
            assert_eq!(WireFault::from_error(&structured).into_error(), structured);
            // A refused dispute in a docket comes back as the same error.
            assert_eq!(
                DocketVerdict::from_result(Err(structured.clone())).into_result().unwrap_err(),
                structured
            );
        }
        // Unstructured errors degrade to Remote but keep the message.
        let odd = WatermarkError::EmptyTrainingSet;
        match WireFault::from_error(&odd).into_error() {
            WatermarkError::Remote { message } => assert_eq!(message, odd.to_string()),
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    /// A relayed failure crosses a router hop unchanged: its message is
    /// not prefixed again by each hop.
    #[test]
    fn relayed_remote_errors_keep_their_message() {
        let remote = WatermarkError::Remote {
            message: "model `m` is homed on backend 0, which is unreachable".into(),
        };
        assert_eq!(WireFault::from_error(&remote).into_error(), remote);
        assert_eq!(
            DocketVerdict::from_result(Err(remote.clone())).into_result().unwrap_err(),
            remote
        );
    }

    /// The public header check refuses a short slice, as does the
    /// prelude check behind it, instead of slicing out of bounds.
    #[test]
    fn header_checks_refuse_short_slices() {
        let frame = encode_frame(1, &Request::Ping).unwrap();
        for cut in 0..FRAME_HEADER_BYTES {
            assert!(
                matches!(
                    check_header(&frame[..cut], DEFAULT_MAX_FRAME_BYTES),
                    Err(WatermarkError::ProtocolViolation { .. })
                ),
                "a {cut}-byte header"
            );
        }
        for cut in 0..FRAME_PRELUDE_BYTES {
            assert!(
                matches!(
                    check_prelude(&frame[..cut]),
                    Err(WatermarkError::ProtocolViolation { .. })
                ),
                "a {cut}-byte prelude"
            );
        }
        assert_eq!(
            check_header(&frame[..FRAME_HEADER_BYTES], DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .correlation_id,
            1
        );
    }

    /// Serves `bytes` in chunks ending at `ends` (the last is the whole
    /// stream), answering `WouldBlock` once between chunks.
    struct Drip<'a> {
        bytes: &'a [u8],
        ends: Vec<usize>,
        chunk: usize,
        pos: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.ends[self.chunk] && self.chunk + 1 < self.ends.len() {
                self.chunk += 1;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.ends[self.chunk] - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Every frame `source` yields until it ends, checking that each is
    /// returned with the source read exactly to that frame's end.
    fn drain_frames(source: &mut Drip<'_>, frame_ends: &[usize]) -> Vec<(FrameHeader, Vec<u8>)> {
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut frames = Vec::new();
        loop {
            match reader.read_from(source).unwrap() {
                FrameRead::Frame(header, payload) => {
                    assert_eq!(source.pos, frame_ends[frames.len()], "read past the frame");
                    frames.push((header, payload));
                }
                FrameRead::Pending => {}
                FrameRead::Closed => return frames,
            }
        }
    }

    /// Reassembly is one state machine over any source, so every way a
    /// pipelined stream can arrive is checked without a socket: split in
    /// two at every offset, one byte at a time, and cut off anywhere.
    #[test]
    fn every_split_point_of_a_pipelined_stream_reassembles_the_same_frames() {
        use crate::tenant::TenantId;
        let rows = [vec![0.5, -1.0], vec![2.0, 0.25]];
        let labels = vec![wdte_data::Label::Negative, wdte_data::Label::Positive];
        let tiny = |name: &str| {
            let features = wdte_data::DenseMatrix::from_rows(&rows).unwrap();
            wdte_data::Dataset::new(name, features, labels.clone()).unwrap()
        };
        let claim = OwnershipClaim::new(
            Signature::from_bits(vec![true, false, true]),
            tiny("trigger"),
            tiny("test"),
        );
        let docket = Request::ResolveDocketRef {
            disputes: vec![DisputeRef::new("m", PayloadDigest::of_claim(&claim))],
            bodies: vec![claim],
        };
        let tenant = TenantId::new("alice").unwrap();
        let frames = [
            encode_frame(11, &Request::Ping).unwrap(),
            encode_frame_auth(12, &docket, &tenant, 1, b"s3cret").unwrap(),
            encode_frame(13, &Request::ListModels).unwrap(),
        ];
        let stream = frames.concat();
        assert!(stream.len() < 2048, "a {}-byte stream", stream.len());
        let mut frame_ends = Vec::new();
        let mut end = 0;
        for frame in &frames {
            end += frame.len();
            frame_ends.push(end);
        }

        let mut whole = std::io::Cursor::new(&stream);
        let expected: Vec<(FrameHeader, Vec<u8>)> = (0..frames.len())
            .map(|_| read_frame(&mut whole, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap())
            .collect();
        assert_eq!(
            expected.iter().map(|(header, _)| header.correlation_id).collect::<Vec<_>>(),
            [11, 12, 13]
        );
        assert!(!expected[1].0.is_anonymous());

        let mut splits: Vec<Vec<usize>> =
            (0..=stream.len()).map(|cut| vec![cut, stream.len()]).collect();
        splits.push((1..=stream.len()).collect());
        for ends in splits {
            let mut source = Drip {
                bytes: &stream,
                ends: ends.clone(),
                chunk: 0,
                pos: 0,
            };
            assert_eq!(
                drain_frames(&mut source, &frame_ends),
                expected,
                "chunks ending at {:?}",
                &ends[..ends.len().min(3)]
            );
        }

        for cut in 1..stream.len() {
            let broken = frame_ends
                .iter()
                .position(|&end| end > cut)
                .expect("the cut is inside the stream");
            let start = if broken == 0 { 0 } else { frame_ends[broken - 1] };
            let mut prefix = &stream[..cut];
            let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
            let mut returned = 0;
            let outcome = loop {
                match reader.read_from(&mut prefix) {
                    Ok(FrameRead::Frame(..)) => returned += 1,
                    other => break other,
                }
            };
            assert_eq!(returned, broken, "frames whole before the cut at {cut}");
            if cut == start {
                assert!(
                    matches!(outcome, Ok(FrameRead::Closed)),
                    "a cut between frames at {cut}"
                );
                continue;
            }
            assert!(
                matches!(outcome, Err(WatermarkError::ProtocolViolation { .. })),
                "a cut at {cut}: {outcome:?}"
            );
            let blamed = if cut - start < FRAME_HEADER_BYTES {
                NO_CORRELATION
            } else {
                expected[broken].0.correlation_id
            };
            assert_eq!(reader.correlation_id(), blamed, "a cut at {cut}");
        }
    }
}

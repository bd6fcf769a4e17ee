//! # wdte-server
//!
//! Network front-end for the dispute-resolution service: the paper's
//! *judge* as an independently deployable process. A [`JudgeServer`]
//! listens on a TCP socket, speaks the versioned `WDTP` frame protocol
//! of [`wdte_core::proto`], and drives a shared
//! [`DisputeService`](wdte_core::DisputeService); a [`DisputeClient`]
//! gives owners and claimants a typed, pipelined API over the same wire.
//! With a [`wdte_core::KeyRing`] configured, the judge authenticates
//! every frame (HMAC-SHA-256 tag, per-connection replay protection) and
//! scopes models, claims and quotas to the sending tenant.
//!
//! Everything is hand-rolled on `std::net` — the build environment is
//! offline. Both front ends run one readiness-driven event loop: one
//! thread `poll(2)`s the listener and every connection's read side,
//! reassembles and authenticates frames, and hands each decoded request
//! to its front end's handler. The judge runs requests on the one
//! process-global work-stealing pool (`serve_judge --workers` sizes it;
//! [`ServerConfig::worker_threads`] scopes a per-request width limit over
//! it). Responses are written as they complete — out of order across a
//! connection's pipelined requests, matched back by correlation id — so
//! an idle connection costs a file descriptor, not a parked thread.
//! Claims and models are content-addressed: bodies travel once, later
//! requests reference them by digest and the judge answers a miss with
//! `NeedPayload`.
//!
//! For horizontal scale, a [`JudgeRouter`] fronts N backend judge
//! processes: it consistent-hashes `(tenant, model id)` keys across the
//! fleet (the [`wdte_core::fleet`] ring), splits dockets into
//! per-backend shards, stitches verdicts back into input order, and
//! degrades a dead backend to bounded retry-on-sibling or typed faults —
//! never a hung connection. It is the same event loop with a routing
//! handler that runs each request on its own thread, so clients speak to
//! the router exactly as to a single judge, pipelining included.
//!
//! ```rust,ignore
//! // Judge process:
//! let service = Arc::new(DisputeService::builder().warm_start_dir("results/models").build()?);
//! let server = JudgeServer::bind("127.0.0.1:7431", service, ServerConfig::default())?;
//! server.serve()?; // blocking event loop
//!
//! // Claimant process: stream dockets without waiting for verdicts.
//! let mut client = DisputeClient::connect("127.0.0.1:7431")?;
//! let tickets: Vec<_> = dockets.iter().map(|d| client.send_docket(d)).collect::<Result<_, _>>()?;
//! for ticket in tickets {
//!     let verdicts = client.recv_docket(ticket)?;
//! }
//! ```

// `deny` rather than `forbid`: the poll(2) FFI module in `server` carries
// the crate's one documented `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod router;
mod server;

pub use client::{
    ClientAuth, ClientConfig, DisputeClient, DocketOutcome, DocketTicket, PongInfo,
    MAX_REMEMBERED_CLAIMS,
};
pub use router::{JudgeRouter, RouterConfig, RunningRouter};
pub use server::{JudgeServer, RunningServer, ServerConfig, ServerHandle};

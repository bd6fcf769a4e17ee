//! Concurrent dispute-resolution service.
//!
//! The paper's verification protocol is a judge-mediated batch interaction,
//! and the ROADMAP north star is serving dispute traffic at scale. The
//! one-shot [`crate::verify_ownership`] entry point recompiles the suspect
//! forest on every call — fine for a single dispute, wasteful for a judge
//! adjudicating many claims against the same deployment. [`DisputeService`]
//! closes that gap:
//!
//! * **Registry** — suspect models are registered under a caller-chosen id
//!   and compiled exactly once into a shared [`Arc<CompiledForest>`],
//!   however many claims are later resolved against them. Registration
//!   publishes the `Arc` only after compilation completes, so concurrent
//!   resolvers can never observe a partially compiled forest.
//! * **Concurrency** — [`DisputeService::resolve_many`] fans independent
//!   disputes out across the shared work-stealing pool, and every
//!   verification batch is itself sharded by the compiled forest's own
//!   [`ModelOracle`](crate::ModelOracle) impl, through
//!   [`CompiledForest::par_predict_all_batch`] — a genuinely two-level
//!   fan-out: the pool schedules one dispute's batch shards onto workers
//!   that finished their own disputes early. Results are stitched back in
//!   input order, so reports are bit-identical to
//!   [`crate::verify_ownership`] regardless of the worker-thread count.
//! * **Refusals** — a claim whose rows no verification batch against its
//!   model can hold (trigger and disguise rows of different widths, or
//!   fewer columns than the model reads) is refused with
//!   [`WatermarkError::ProtocolViolation`] before any walk. The refusal
//!   fails that dispute only; its docket neighbours resolve.
//!
//! The service is `&self`-only and `Sync`: one instance can be shared
//! behind an `Arc` by any number of request threads.
//!
//! **Tenancy** — every model lives in a tenant namespace, and each
//! registry operation has one entry point that names the tenant
//! (`model_as`, `register_digested_as`, `deregister_as`, …). In-process
//! callers with no tenant pass [`TenantId::anonymous`]. `register`,
//! `resolve` and `resolve_many` are the trusted in-process conveniences:
//! they act on the anonymous namespace and check no quota.
//!
//! **Construction** goes through [`DisputeService::builder`], which also
//! warm-starts the registry from a directory of persisted models (a
//! [`ModelManifest`] written by the `table2` experiment), so a judge
//! process boots from disk alone. Each file is a persisted
//! [`RandomForest`], compiled once at boot; a compiled forest is never
//! read from disk:
//!
//! ```rust,ignore
//! let service = DisputeService::builder()
//!     .max_docket(1024)
//!     .warm_start_dir("results/models")
//!     .build()?;
//! ```

use crate::error::{WatermarkError, WatermarkResult};
use crate::persist;
use crate::proto::PayloadDigest;
use crate::tenant::{TenantId, TenantLedger, TenantQuotas, TenantStatsEntry};
use crate::verify::{verify_ownership, OwnershipClaim, VerificationReport};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use wdte_data::Dataset;
use wdte_trees::{CompiledForest, Kernel, RandomForest};

/// Default byte budget of the digest-keyed claim cache (256 MiB of claim
/// payload — roughly a few hundred typical claims).
pub const DEFAULT_CLAIM_CACHE_BYTES: usize = 256 << 20;

/// Fixed bookkeeping cost charged per cached claim on top of its payload
/// bytes, so per-tenant byte quotas account for what an entry *actually*
/// costs the judge: the 16-byte digest key stored twice (hash map + LRU
/// deque), the hash-map bucket, the `Arc` allocation header, and the
/// owner/model attribution sets. Deliberately a round, documented estimate
/// rather than `size_of` arithmetic, so the accounting is stable across
/// Rust versions and pinned by a unit test.
pub const CLAIM_ENTRY_OVERHEAD_BYTES: usize = 160;

/// File name of the model manifest inside a warm-start directory.
pub const MODEL_MANIFEST_FILE: &str = "manifest.json";

/// One dispute filed with the judge: a claim against a registered model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dispute {
    /// Registry id of the suspect model.
    pub model_id: String,
    /// The owner's evidence.
    pub claim: OwnershipClaim,
}

impl Dispute {
    /// Builds a dispute against the model registered under `model_id`.
    pub fn new(model_id: impl Into<String>, claim: OwnershipClaim) -> Self {
        Self {
            model_id: model_id.into(),
            claim,
        }
    }
}

/// One dispute of a content-addressed docket, claims shared rather than
/// owned: the form the wire front-end hands to
/// [`DisputeService::resolve_docket_shared_as`] after resolving digest
/// references against the claim cache. The digest keys the deduplication —
/// two disputes with the same `(model_id, digest)` pair are resolved once
/// and share the verdict.
#[derive(Debug, Clone)]
pub struct SharedDispute {
    /// Registry id of the suspect model.
    pub model_id: String,
    /// Content digest of the claim (as computed by
    /// [`ClaimCache::insert_for`]).
    pub digest: PayloadDigest,
    /// The owner's evidence, shared with the cache.
    pub claim: Arc<OwnershipClaim>,
}

impl SharedDispute {
    /// Builds a shared dispute.
    pub fn new(model_id: impl Into<String>, digest: PayloadDigest, claim: Arc<OwnershipClaim>) -> Self {
        Self {
            model_id: model_id.into(),
            digest,
            claim,
        }
    }
}

/// Digest-keyed cache of claim bodies, the server half of the v2 wire
/// protocol's content addressing: a claim uploaded once is later
/// referenced by its [`PayloadDigest`] alone. Digests are always computed
/// *here*, from the bytes actually received — a peer cannot bind a digest
/// to content the judge never saw. The digest is not collision-resistant,
/// so an upload whose digest is already cached is compared with the
/// cached body bit for bit, and a different body is refused.
///
/// Eviction is least-recently-used over a byte budget estimated from the
/// claim's dataset payloads (`0` = unlimited, matching the codebase's
/// 0-disables convention). Evicting an entry only drops the cache's
/// reference: in-flight resolutions holding the `Arc` finish unaffected,
/// and a peer that references an evicted digest is asked to re-upload via
/// `NeedPayload`.
#[derive(Debug)]
pub struct ClaimCache {
    budget_bytes: usize,
    inner: Mutex<ClaimCacheInner>,
}

#[derive(Debug, Default)]
struct ClaimCacheInner {
    map: HashMap<PayloadDigest, ClaimEntry>,
    /// Digests keyed by their entry's last-use stamp, so the first key is
    /// the least recently used and a touch is O(log n).
    order: BTreeMap<u64, PayloadDigest>,
    /// The stamp the next insert or touch takes; strictly increasing.
    next_stamp: u64,
    bytes: usize,
    /// Bytes attributed to each tenant: every owner of an entry is charged
    /// its full footprint (each of them uploaded it independently), so a
    /// tenant's attributed bytes never shrink because someone *else*
    /// uploaded the same claim.
    tenant_bytes: HashMap<TenantId, usize>,
}

#[derive(Debug)]
struct ClaimEntry {
    claim: Arc<OwnershipClaim>,
    footprint: usize,
    /// This entry's key in [`ClaimCacheInner::order`].
    stamp: u64,
    /// Tenants charged for this entry.
    owners: HashSet<TenantId>,
    /// Models the claim has been adjudicated against, for
    /// [`ClaimCache::drop_model`].
    models: HashSet<(TenantId, String)>,
}

/// Whether two claims are the same input to verification, bit for bit:
/// the signature bits and, for each set, its shape, class count, label
/// indices and the bits of every feature value. Comparing features with
/// `==` would refuse an identical claim that holds a NaN.
fn same_claim(a: &OwnershipClaim, b: &OwnershipClaim) -> bool {
    let same_set = |x: &Dataset, y: &Dataset| {
        let (xs, ys) = (x.features().as_slice(), y.features().as_slice());
        x.len() == y.len()
            && x.num_features() == y.num_features()
            && x.num_classes() == y.num_classes()
            && x.labels() == y.labels()
            && xs.iter().zip(ys).all(|(a, b)| a.to_bits() == b.to_bits())
    };
    a.signature.bits() == b.signature.bits()
        && same_set(&a.trigger_set, &b.trigger_set)
        && same_set(&a.test_set, &b.test_set)
}

/// Approximate heap footprint of a claim: the dataset payloads dominate
/// (8 bytes per feature value), signature and labels are rounding error
/// but counted for claims with degenerate shapes, plus the fixed
/// per-entry bookkeeping cost [`CLAIM_ENTRY_OVERHEAD_BYTES`].
fn claim_footprint(claim: &OwnershipClaim) -> usize {
    let dataset = |d: &Dataset| d.len() * (d.num_features() * 8 + 1);
    dataset(&claim.trigger_set)
        + dataset(&claim.test_set)
        + claim.signature.len()
        + CLAIM_ENTRY_OVERHEAD_BYTES
}

impl ClaimCache {
    /// Creates a cache with the given byte budget (`0` = unlimited).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            inner: Mutex::new(ClaimCacheInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ClaimCacheInner> {
        self.inner.lock().expect("claim cache lock is never poisoned")
    }

    /// Inserts a claim on `tenant`'s behalf, computing its digest from the
    /// content, and returns the digest with the (possibly pre-existing)
    /// shared body. Re-inserting an equal claim refreshes its recency
    /// instead of duplicating it. A claim whose digest is cached for a
    /// body that differs in any input verification reads is refused with
    /// [`WatermarkError::ProtocolViolation`], and the cached body is kept.
    /// The tenant's `max_claim_bytes` quota is checked against its
    /// *attributed* bytes **before** the claim body is allocated into the
    /// cache, and refused inserts leave the cache untouched. Re-inserting
    /// a claim another tenant already uploaded charges this tenant too
    /// (content is shared, accountability is not).
    pub fn insert_for(
        &self,
        tenant: &TenantId,
        quotas: &TenantQuotas,
        claim: OwnershipClaim,
    ) -> WatermarkResult<(PayloadDigest, Arc<OwnershipClaim>)> {
        let digest = PayloadDigest::of_claim(&claim);
        let footprint = claim_footprint(&claim);
        let mut inner = self.lock();
        let cached = inner.map.get(&digest);
        if cached.is_some_and(|entry| !same_claim(&entry.claim, &claim)) {
            return Err(WatermarkError::ProtocolViolation {
                detail: format!("claim body differs from the cached body with digest {digest}"),
            });
        }
        let already_owner = cached.is_some_and(|entry| entry.owners.contains(tenant));
        if !already_owner {
            let held = inner.tenant_bytes.get(tenant).copied().unwrap_or(0);
            quotas.check_claim_bytes(held + footprint)?;
        }
        if let Some(shared) = {
            let ClaimCacheInner {
                map, tenant_bytes, ..
            } = &mut *inner;
            map.get_mut(&digest).map(|entry| {
                if entry.owners.insert(tenant.clone()) {
                    *tenant_bytes.entry(tenant.clone()).or_insert(0) += entry.footprint;
                }
                Arc::clone(&entry.claim)
            })
        } {
            Self::touch(&mut inner, digest);
            return Ok((digest, shared));
        }
        let shared = Arc::new(claim);
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.map.insert(
            digest,
            ClaimEntry {
                claim: Arc::clone(&shared),
                footprint,
                stamp,
                owners: HashSet::from([tenant.clone()]),
                models: HashSet::new(),
            },
        );
        inner.order.insert(stamp, digest);
        inner.bytes += footprint;
        *inner.tenant_bytes.entry(tenant.clone()).or_insert(0) += footprint;
        if self.budget_bytes > 0 {
            while inner.bytes > self.budget_bytes {
                let Some((_, &oldest)) = inner.order.first_key_value() else {
                    break;
                };
                Self::drop_entry(&mut inner, &oldest);
            }
        }
        Ok((digest, shared))
    }

    /// Removes `digest` from the map and the recency order, and refunds its
    /// bytes to every owner.
    fn drop_entry(inner: &mut ClaimCacheInner, digest: &PayloadDigest) {
        if let Some(evicted) = inner.map.remove(digest) {
            inner.order.remove(&evicted.stamp);
            inner.bytes = inner.bytes.saturating_sub(evicted.footprint);
            for owner in &evicted.owners {
                if let Some(held) = inner.tenant_bytes.get_mut(owner) {
                    *held = held.saturating_sub(evicted.footprint);
                }
            }
        }
    }

    /// The cached claim with this digest, if present; refreshes recency.
    pub fn get(&self, digest: &PayloadDigest) -> Option<Arc<OwnershipClaim>> {
        let mut inner = self.lock();
        let found = inner.map.get(digest).map(|entry| Arc::clone(&entry.claim));
        if found.is_some() {
            Self::touch(&mut inner, *digest);
        }
        found
    }

    /// Records that the claim under `digest` was adjudicated against
    /// `(tenant, model_id)`, so a later [`drop_model`](Self::drop_model)
    /// for that model can drop it. No-op for unknown digests.
    pub fn associate(&self, digest: &PayloadDigest, tenant: &TenantId, model_id: &str) {
        let mut inner = self.lock();
        if let Some(entry) = inner.map.get_mut(digest) {
            entry.models.insert((tenant.clone(), model_id.to_string()));
        }
    }

    /// Drops every cached claim whose *only* remaining model association is
    /// `(tenant, model_id)` and detaches the association from the rest —
    /// called on deregistration so a retired model's evidence cannot be
    /// silently replayed against its successor under a stale digest.
    /// Returns the number of entries dropped.
    pub fn drop_model(&self, tenant: &TenantId, model_id: &str) -> usize {
        let mut inner = self.lock();
        let key = (tenant.clone(), model_id.to_string());
        let mut dropped: Vec<PayloadDigest> = Vec::new();
        for (digest, entry) in inner.map.iter_mut() {
            if entry.models.remove(&key) && entry.models.is_empty() {
                dropped.push(*digest);
            }
        }
        for digest in &dropped {
            Self::drop_entry(&mut inner, digest);
        }
        dropped.len()
    }

    /// Makes `digest` the most recently used entry; no-op if absent.
    fn touch(inner: &mut ClaimCacheInner, digest: PayloadDigest) {
        let ClaimCacheInner {
            map,
            order,
            next_stamp,
            ..
        } = inner;
        if let Some(entry) = map.get_mut(&digest) {
            order.remove(&entry.stamp);
            entry.stamp = *next_stamp;
            order.insert(entry.stamp, digest);
            *next_stamp += 1;
        }
    }

    /// Number of cached claims.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes of cached claim payload (including per-entry
    /// overhead).
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Bytes currently attributed to `tenant`.
    pub fn tenant_bytes(&self, tenant: &TenantId) -> usize {
        self.lock().tenant_bytes.get(tenant).copied().unwrap_or(0)
    }

    /// Every tenant with attributed bytes, for stats assembly.
    pub fn owner_tenants(&self) -> Vec<TenantId> {
        self.lock().tenant_bytes.keys().cloned().collect()
    }

    /// The configured byte budget (`0` = unlimited).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }
}

/// Manifest of persisted model artefacts inside a warm-start directory
/// (see [`MODEL_MANIFEST_FILE`]): the registry ids a booting judge should
/// serve, each mapped to an artefact file relative to the directory. The
/// manifest is itself a versioned `persist` artefact (JSON envelope), so a
/// stale or corrupted manifest fails with the same typed errors as any
/// other artefact rather than silently warm-starting a partial registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelManifest {
    /// The models to register at boot, in registration order.
    pub models: Vec<ManifestEntry>,
}

/// One entry of a [`ModelManifest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Registry id the model is served under.
    pub model_id: String,
    /// Artefact file name, relative to the manifest's directory: a
    /// persisted pointer-tree [`RandomForest`], compiled at boot. Any other
    /// payload, a compiled forest included, is refused with the model
    /// decoder's [`WatermarkError::CorruptedArtifact`].
    pub file: String,
}

impl ModelManifest {
    /// Loads the manifest of a warm-start directory.
    pub fn load_dir(dir: impl AsRef<Path>) -> WatermarkResult<Self> {
        persist::load(dir.as_ref().join(MODEL_MANIFEST_FILE))
    }

    /// Writes this manifest into `dir` as [`MODEL_MANIFEST_FILE`].
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> WatermarkResult<()> {
        persist::save(
            dir.as_ref().join(MODEL_MANIFEST_FILE),
            self,
            persist::Format::Json,
        )
    }
}

/// Configures and builds a [`DisputeService`] — its one construction
/// path.
#[derive(Debug, Clone, Default)]
pub struct DisputeServiceBuilder {
    max_docket: Option<usize>,
    warm_start_dirs: Vec<PathBuf>,
    claim_cache_bytes: Option<usize>,
    tenant_quotas: Option<TenantQuotas>,
}

impl DisputeServiceBuilder {
    /// Caps the number of disputes one docket may hold, for every tenant
    /// including the anonymous one (`serve_judge --max-docket`).
    /// [`DisputeService::resolve_docket_shared_as`] refuses an oversized
    /// docket whole with [`WatermarkError::DocketTooLarge`], and the wire
    /// front end checks the cap before it caches any claim body.
    /// Unlimited by default; passing `0` also means unlimited, matching
    /// the 0-disables convention of the `serve_judge` flags.
    pub fn max_docket(mut self, max: usize) -> Self {
        self.max_docket = (max > 0).then_some(max);
        self
    }

    /// Byte budget of the digest-keyed [`ClaimCache`] backing the wire
    /// protocol's content-addressed payloads (`serve_judge
    /// --claim-cache-mb`). `0` means unlimited, matching the 0-disables
    /// convention. Defaults to [`DEFAULT_CLAIM_CACHE_BYTES`].
    pub fn claim_cache_bytes(mut self, bytes: usize) -> Self {
        self.claim_cache_bytes = Some(bytes);
        self
    }

    /// Per-tenant quotas — models registered, attributed claim-cache bytes
    /// and in-flight requests — each checked *before* the corresponding
    /// allocation, by `register_digested_as`/`register_by_digest_as`,
    /// [`ClaimCache::insert_for`] and the server front end respectively.
    /// Defaults to [`TenantQuotas::default`] (every axis unlimited). The
    /// same quotas apply to every tenant, including the anonymous one;
    /// the trusted in-process `register` and warm start check none.
    pub fn tenant_quotas(mut self, quotas: TenantQuotas) -> Self {
        self.tenant_quotas = Some(quotas);
        self
    }

    /// Warm-starts the registry from a directory containing a
    /// [`ModelManifest`] plus the artefact files it names (as written by
    /// the `table2` experiment under `results/models/`). May be called
    /// multiple times; directories are loaded in call order at
    /// [`build`](Self::build) time.
    pub fn warm_start_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.warm_start_dirs.push(dir.into());
        self
    }

    /// Builds the service, registering every warm-start artefact. Fails
    /// with the underlying `persist` error if a manifest or artefact is
    /// missing, corrupted, or written by an unsupported format version; an
    /// artefact's error names its entry's model id and file.
    pub fn build(self) -> WatermarkResult<DisputeService> {
        let service = DisputeService {
            registry: Mutex::new(ModelRegistry::default()),
            claims: ClaimCache::new(self.claim_cache_bytes.unwrap_or(DEFAULT_CLAIM_CACHE_BYTES)),
            ledger: TenantLedger::new(),
            compile_count: AtomicUsize::new(0),
            max_docket: self.max_docket,
            quotas: self.tenant_quotas.unwrap_or_default(),
        };
        for dir in &self.warm_start_dirs {
            let manifest = ModelManifest::load_dir(dir)?;
            for entry in &manifest.models {
                let path = dir.join(&entry.file);
                service
                    .register_from_file(entry.model_id.clone(), &path)
                    .map_err(|err| name_entry(err, &entry.model_id, &path))?;
            }
        }
        Ok(service)
    }
}

/// Names the manifest entry a warm-start failure came from, keeping the
/// error's type: an I/O error already carries the path, so it gains the
/// model id; a decode error gains both.
fn name_entry(err: WatermarkError, model_id: &str, path: &Path) -> WatermarkError {
    let entry = format!("model `{model_id}` from `{}`", path.display());
    match err {
        WatermarkError::Io { path, message } => WatermarkError::Io {
            path,
            message: format!("model `{model_id}`: {message}"),
        },
        WatermarkError::CorruptedArtifact { detail } => WatermarkError::CorruptedArtifact {
            detail: format!("{entry}: {detail}"),
        },
        WatermarkError::UnrecognizedFormat { detail } => WatermarkError::UnrecognizedFormat {
            detail: format!("{entry}: {detail}"),
        },
        other => other,
    }
}

/// Key of one registry entry: the owning tenant plus the caller-chosen
/// model id. Namespaces are disjoint — two tenants can use the same id
/// without ever observing each other's models.
type ModelKey = (TenantId, String);

/// The registry: every model's compiled form by tenant and id, and the
/// digest index over them. Both sit under one lock, so a registration's
/// quota check, its insert and the pruning of the form it replaces are
/// one step that concurrent registrations cannot interleave.
#[derive(Debug, Default)]
struct ModelRegistry {
    models: HashMap<ModelKey, Arc<CompiledForest>>,
    /// Compiled models by tenant-scoped content digest, for digest-only
    /// re-registration ([`DisputeService::register_by_digest_as`]).
    /// Scoping by tenant means a digest learned out of band cannot
    /// resurrect another tenant's model. An entry is pruned when the last
    /// id serving its compiled form is deregistered or re-registered.
    digests: HashMap<(TenantId, PayloadDigest), Arc<CompiledForest>>,
}

impl ModelRegistry {
    /// Number of models in `tenant`'s namespace.
    fn tenant_models(&self, tenant: &TenantId) -> usize {
        self.models.keys().filter(|(owner, _)| owner == tenant).count()
    }

    /// The typed error for a model id absent from `tenant`'s namespace:
    /// [`WatermarkError::Forbidden`] if another tenant holds the id (a
    /// cross-namespace probe), [`WatermarkError::UnknownModel`] otherwise.
    fn missing_model(&self, tenant: &TenantId, model_id: &str) -> WatermarkError {
        if self.models.keys().any(|(owner, id)| id == model_id && owner != tenant) {
            WatermarkError::Forbidden {
                detail: format!("model `{model_id}` is not in tenant `{tenant}`'s namespace"),
            }
        } else {
            WatermarkError::UnknownModel {
                model_id: model_id.to_string(),
            }
        }
    }

    /// Checks `tenant`'s models-registered quota for registering `key`
    /// (re-registering a held id is replacement, not growth).
    fn check_quota(&self, quotas: &TenantQuotas, key: &ModelKey) -> WatermarkResult<()> {
        let additional = usize::from(!self.models.contains_key(key));
        quotas.check_models(self.tenant_models(&key.0) + additional)
    }

    /// Inserts (or replaces) an entry, pruning the replaced form.
    fn insert(&mut self, key: ModelKey, compiled: Arc<CompiledForest>) {
        let tenant = key.0.clone();
        if let Some(replaced) = self.models.insert(key, compiled) {
            self.prune(&tenant, &replaced);
        }
    }

    /// Removes an entry, pruning the removed form.
    fn remove(&mut self, key: &ModelKey) -> Option<Arc<CompiledForest>> {
        let removed = self.models.remove(key)?;
        self.prune(&key.0, &removed);
        Some(removed)
    }

    /// Drops `compiled` from `tenant`'s digest index once no id of the
    /// tenant serves it, so it can be neither kept resident nor brought
    /// back by digest.
    fn prune(&mut self, tenant: &TenantId, compiled: &Arc<CompiledForest>) {
        let serves = |owner: &TenantId, form: &Arc<CompiledForest>| {
            owner == tenant && Arc::ptr_eq(form, compiled)
        };
        if !self.models.iter().any(|((owner, _), form)| serves(owner, form)) {
            self.digests.retain(|(owner, _), form| !serves(owner, form));
        }
    }
}

/// A registry of compiled suspect models plus a concurrent resolver for
/// ownership claims against them. See the module docs for the guarantees.
///
/// Every model lives in a tenant namespace (see [`TenantId`]). The
/// tenant-taking entry points enforce namespace isolation
/// ([`WatermarkError::Forbidden`]) and [`TenantQuotas`]; anonymous
/// callers pass [`TenantId::anonymous`].
#[derive(Debug)]
pub struct DisputeService {
    registry: Mutex<ModelRegistry>,
    claims: ClaimCache,
    ledger: TenantLedger,
    compile_count: AtomicUsize,
    max_docket: Option<usize>,
    quotas: TenantQuotas,
}

impl DisputeService {
    /// Starts configuring a service. See [`DisputeServiceBuilder`].
    pub fn builder() -> DisputeServiceBuilder {
        DisputeServiceBuilder::default()
    }

    fn lock_registry(&self) -> std::sync::MutexGuard<'_, ModelRegistry> {
        self.registry.lock().expect("dispute registry lock is never poisoned")
    }

    /// The digest-keyed claim cache backing content-addressed payloads.
    pub fn claims(&self) -> &ClaimCache {
        &self.claims
    }

    /// The per-tenant accounting ledger. The server front end records auth
    /// failures, claim-cache traffic and the in-flight gauge here; the
    /// service itself records dockets.
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// The per-tenant quotas configured via
    /// [`DisputeServiceBuilder::tenant_quotas`].
    pub fn quotas(&self) -> &TenantQuotas {
        &self.quotas
    }

    /// The batch-inference kernel the service reports: [`Kernel::Auto`],
    /// which resolves to the one blocked walk every resolution runs.
    pub fn kernel(&self) -> Kernel {
        Kernel::Auto
    }

    /// Registers a pointer-tree model in the anonymous namespace,
    /// compiling it exactly once. The compiled form is shared by every
    /// subsequent resolution. Registering an id again replaces the
    /// previous model.
    pub fn register(&self, model_id: impl Into<String>, model: &RandomForest) -> Arc<CompiledForest> {
        // Compile outside the registry lock: registration of a large model
        // must not block resolutions against other models.
        let compiled = self.compile(model);
        self.publish_model(&TenantId::anonymous(), model_id.into(), Arc::clone(&compiled));
        compiled
    }

    /// Compiles a pointer-tree model, counting the compile.
    fn compile(&self, model: &RandomForest) -> Arc<CompiledForest> {
        self.compile_count.fetch_add(1, Ordering::Relaxed);
        Arc::new(CompiledForest::compile(model))
    }

    /// Registers a model in the anonymous namespace from a persisted
    /// pointer-tree [`RandomForest`] (the builder's warm start), compiling
    /// it once.
    fn register_from_file(
        &self,
        model_id: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> WatermarkResult<()> {
        let model: RandomForest = persist::load(path)?;
        let compiled = self.compile(&model);
        self.publish_model(&TenantId::anonymous(), model_id.into(), compiled);
        Ok(())
    }

    /// Inserts (or replaces) a registry entry without a quota check.
    fn publish_model(&self, tenant: &TenantId, model_id: String, compiled: Arc<CompiledForest>) {
        self.lock_registry().insert((tenant.clone(), model_id), compiled);
    }

    /// The compiled model registered under `model_id` in `tenant`'s
    /// namespace; an id held by another tenant is
    /// [`WatermarkError::Forbidden`].
    pub fn model_as(&self, tenant: &TenantId, model_id: &str) -> WatermarkResult<Arc<CompiledForest>> {
        let reg = self.lock_registry();
        match reg.models.get(&(tenant.clone(), model_id.to_string())) {
            Some(compiled) => Ok(Arc::clone(compiled)),
            None => Err(reg.missing_model(tenant, model_id)),
        }
    }

    /// Registers a pointer-tree model in `tenant`'s namespace and indexes
    /// the compiled form under the model's content digest, so a later
    /// [`register_by_digest_as`](Self::register_by_digest_as) can reuse it
    /// without re-uploading the model. The models-registered quota is
    /// checked before compiling, and again in the same lock acquisition as
    /// the insert, so concurrent registrations cannot overshoot it. The
    /// returned digest is echoed to the client. This is the registration
    /// path the wire front-end drives.
    pub fn register_digested_as(
        &self,
        tenant: &TenantId,
        model_id: impl Into<String>,
        model: &RandomForest,
    ) -> WatermarkResult<(PayloadDigest, Arc<CompiledForest>)> {
        let key = (tenant.clone(), model_id.into());
        self.lock_registry().check_quota(&self.quotas, &key)?;
        let digest = PayloadDigest::of_model(model);
        let compiled = self.compile(model);
        let mut reg = self.lock_registry();
        reg.check_quota(&self.quotas, &key)?;
        reg.digests.insert((tenant.clone(), digest), Arc::clone(&compiled));
        reg.insert(key, Arc::clone(&compiled));
        Ok((digest, compiled))
    }

    /// Registers an already-uploaded model under a (possibly new) id in
    /// `tenant`'s namespace by content digest alone. Only digests this
    /// tenant uploaded can match, and the models-registered quota is
    /// checked first. `None` if no model with that digest is indexed (the
    /// caller should fall back to a full upload).
    pub fn register_by_digest_as(
        &self,
        tenant: &TenantId,
        model_id: impl Into<String>,
        digest: PayloadDigest,
    ) -> WatermarkResult<Option<Arc<CompiledForest>>> {
        let key = (tenant.clone(), model_id.into());
        let mut reg = self.lock_registry();
        reg.check_quota(&self.quotas, &key)?;
        let Some(compiled) = reg.digests.get(&(tenant.clone(), digest)).cloned() else {
            return Ok(None);
        };
        reg.insert(key, Arc::clone(&compiled));
        Ok(Some(compiled))
    }

    /// Removes a model from `tenant`'s namespace; returns whether the id
    /// existed. Deregistering an id held by another tenant is
    /// [`WatermarkError::Forbidden`]. In-flight resolutions holding the
    /// `Arc` finish unaffected. Digest-index entries are pruned once no
    /// registry id shares the removed compiled form, so a deregistered
    /// model cannot be resurrected by digest — and the model's cached
    /// claims are dropped (see [`ClaimCache::drop_model`]).
    pub fn deregister_as(&self, tenant: &TenantId, model_id: &str) -> WatermarkResult<bool> {
        {
            let mut reg = self.lock_registry();
            if reg.remove(&(tenant.clone(), model_id.to_string())).is_none() {
                return match reg.missing_model(tenant, model_id) {
                    WatermarkError::UnknownModel { .. } => Ok(false),
                    forbidden => Err(forbidden),
                };
            }
        }
        // Evidence adjudicated only against the retired model must not be
        // silently replayable against a successor under a stale digest.
        self.claims.drop_model(tenant, model_id);
        Ok(true)
    }

    /// Ids of every model in `tenant`'s namespace, sorted
    /// lexicographically. The registry is a hash map, whose iteration
    /// order varies across runs (and Rust releases); sorting here makes
    /// registry listings — and the wire protocol's `ListModels` response
    /// built on top — deterministic. A tenant can never list another
    /// namespace — there is no cross-tenant variant.
    pub fn model_ids_for(&self, tenant: &TenantId) -> Vec<String> {
        let reg = self.lock_registry();
        let mut ids: Vec<String> = reg
            .models
            .keys()
            .filter(|(owner, _)| owner == tenant)
            .map(|(_, id)| id.clone())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of registered models across every namespace.
    pub fn len(&self) -> usize {
        self.lock_registry().models.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of [`CompiledForest::compile`] calls this service has
    /// performed — the compile-once guarantee made observable: resolving
    /// any number of claims never increments it.
    pub fn compile_count(&self) -> usize {
        self.compile_count.load(Ordering::Relaxed)
    }

    /// One tenant's `Stats` row: ledger counters plus the live gauges
    /// (models registered, attributed claim-cache bytes).
    pub fn stats_for(&self, tenant: &TenantId) -> TenantStatsEntry {
        let counters = self.ledger.counters(tenant);
        let models = self.lock_registry().tenant_models(tenant) as u64;
        TenantStatsEntry {
            tenant: tenant.to_string(),
            models,
            dockets: counters.dockets,
            claims: counters.claims,
            cache_hits: counters.cache_hits,
            cache_misses: counters.cache_misses,
            evictions: 0,
            auth_failures: counters.auth_failures,
            claim_bytes: self.claims.tenant_bytes(tenant) as u64,
            in_flight: counters.in_flight,
        }
    }

    /// Every tenant's `Stats` row, sorted by tenant id: the union of
    /// tenants seen by the ledger, the registry and the claim cache. This
    /// is what an *anonymous* (open) judge reports; an authenticated
    /// tenant only ever sees its own [`stats_for`](Self::stats_for) row.
    pub fn stats_all(&self) -> Vec<TenantStatsEntry> {
        let mut tenants: BTreeSet<TenantId> =
            self.ledger.snapshot().into_iter().map(|(tenant, _)| tenant).collect();
        tenants.extend(self.lock_registry().models.keys().map(|(owner, _)| owner.clone()));
        tenants.extend(self.claims.owner_tenants());
        tenants.iter().map(|tenant| self.stats_for(tenant)).collect()
    }

    /// Resolves one claim against a registered model. The verification
    /// batch is sharded across worker threads; the report is identical to
    /// [`crate::verify_ownership`] on the same model.
    pub fn resolve(
        &self,
        model_id: &str,
        claim: &OwnershipClaim,
    ) -> WatermarkResult<VerificationReport> {
        self.resolve_as(&TenantId::anonymous(), model_id, claim)
    }

    /// [`resolve`](Self::resolve) in `tenant`'s namespace: resolving
    /// against another tenant's model is [`WatermarkError::Forbidden`], and
    /// a claim whose rows no batch against the model can hold is
    /// [`WatermarkError::ProtocolViolation`], refused before any walk.
    pub fn resolve_as(
        &self,
        tenant: &TenantId,
        model_id: &str,
        claim: &OwnershipClaim,
    ) -> WatermarkResult<VerificationReport> {
        let model = self.model_as(tenant, model_id)?;
        check_claim_shape(&model, claim)?;
        Ok(verify_ownership(&*model, claim))
    }

    /// Resolves many disputes concurrently, returning one verdict per
    /// dispute in input order. Each dispute is an independent pool task
    /// whose verification batch is itself sharded across the same pool
    /// (two-level parallelism); disputes against the same model share its
    /// one compiled form.
    pub fn resolve_many(&self, disputes: &[Dispute]) -> Vec<WatermarkResult<VerificationReport>> {
        disputes
            .par_iter()
            .map(|dispute| self.resolve(&dispute.model_id, &dispute.claim))
            .collect()
    }

    /// Resolves a content-addressed docket in `tenant`'s namespace — the
    /// entry point the wire front-end drives. Disputes sharing a
    /// `(model_id, digest)` pair are resolved once and the verdict is
    /// scattered back to every duplicate position. Resolution is
    /// deterministic in the claim content (the disguise permutation is
    /// seeded from the claim itself), so the scattered verdicts are
    /// bit-identical to resolving each dispute independently — this is the
    /// wire path's throughput win, not a semantic change.
    ///
    /// The [`max_docket`](DisputeServiceBuilder::max_docket) cap counts
    /// the *pre-deduplication* docket size and is checked before any
    /// resolution work. An accepted docket is recorded in the ledger, and
    /// every referenced claim is associated with its model so
    /// deregistration can drop them.
    pub fn resolve_docket_shared_as(
        &self,
        tenant: &TenantId,
        disputes: &[SharedDispute],
    ) -> WatermarkResult<Vec<WatermarkResult<VerificationReport>>> {
        self.check_docket_size(disputes.len())?;
        for dispute in disputes {
            self.claims.associate(&dispute.digest, tenant, &dispute.model_id);
        }
        self.ledger.record_docket(tenant, disputes.len() as u64);
        let mut index_of: HashMap<(&str, PayloadDigest), usize> = HashMap::new();
        let mut distinct: Vec<&SharedDispute> = Vec::new();
        let slots: Vec<usize> = disputes
            .iter()
            .map(|dispute| {
                *index_of.entry((dispute.model_id.as_str(), dispute.digest)).or_insert_with(|| {
                    distinct.push(dispute);
                    distinct.len() - 1
                })
            })
            .collect();
        let resolved: Vec<WatermarkResult<VerificationReport>> = distinct
            .par_iter()
            .map(|dispute| self.resolve_as(tenant, &dispute.model_id, &dispute.claim))
            .collect();
        Ok(slots.into_iter().map(|slot| resolved[slot].clone()).collect())
    }

    /// Checks a docket size against the
    /// [`max_docket`](DisputeServiceBuilder::max_docket) cap without
    /// resolving anything, so the wire front end can refuse an oversized
    /// docket before it caches a single claim body.
    pub fn check_docket_size(&self, size: usize) -> WatermarkResult<()> {
        match self.max_docket {
            Some(max) if size > max => Err(WatermarkError::DocketTooLarge { size, max }),
            _ => Ok(()),
        }
    }
}

/// Refuses a claim whose verification batch the model could not walk:
/// trigger and non-empty disguise rows of different widths, or a batch
/// narrower than the model's feature count (which covers an empty 0×0
/// trigger set with no disguise rows).
fn check_claim_shape(model: &CompiledForest, claim: &OwnershipClaim) -> WatermarkResult<()> {
    let (trigger, test) = (claim.trigger_set.features(), claim.test_set.features());
    let Some(cols) = claim.batch_width() else {
        return Err(WatermarkError::ProtocolViolation {
            detail: format!(
                "claim's trigger rows have {} features but its disguise rows have {}",
                trigger.cols(),
                test.cols()
            ),
        });
    };
    if cols < model.num_features() {
        return Err(WatermarkError::ProtocolViolation {
            detail: format!(
                "claim's rows have {cols} features but the model reads {}",
                model.num_features()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WatermarkConfig;
    use crate::signature::Signature;
    use crate::watermark::Watermarker;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::VecDeque;
    use wdte_data::{Label, SyntheticSpec};

    fn embedded() -> (Dataset, crate::watermark::WatermarkOutcome) {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.7)
            .generate(&mut SmallRng::seed_from_u64(71));
        let mut rng = SmallRng::seed_from_u64(72);
        let (train, test) = dataset.split_stratified(0.75, &mut rng);
        let signature = Signature::random(10, 0.5, &mut rng);
        let watermarker = Watermarker::new(WatermarkConfig {
            num_trees: 10,
            ..WatermarkConfig::fast()
        });
        let outcome = watermarker.embed(&train, &signature, &mut rng).unwrap();
        (test, outcome)
    }

    fn claim_for(outcome: &crate::watermark::WatermarkOutcome, test: &Dataset) -> OwnershipClaim {
        OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            test.clone(),
        )
    }

    /// Caches `claim` for the anonymous tenant, with no quota.
    fn insert(cache: &ClaimCache, claim: OwnershipClaim) -> (PayloadDigest, Arc<OwnershipClaim>) {
        cache
            .insert_for(&TenantId::anonymous(), &TenantQuotas::default(), claim)
            .unwrap()
    }

    #[test]
    fn resolve_matches_the_one_shot_path_and_compiles_once() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().build().unwrap();
        service.register("bobs-api", &outcome.model);
        assert_eq!(service.compile_count(), 1);

        let direct = verify_ownership(&outcome.model, &claim);
        for _ in 0..5 {
            let resolved = service.resolve("bobs-api", &claim).unwrap();
            assert_eq!(resolved, direct);
            assert!(resolved.verified);
        }
        assert_eq!(service.compile_count(), 1, "resolutions never recompile");
    }

    #[test]
    fn resolve_many_returns_verdicts_in_input_order() {
        let (test, outcome) = embedded();
        let genuine = claim_for(&outcome, &test);
        let mut rng = SmallRng::seed_from_u64(73);
        let fake_signature = Signature::random(10, 0.5, &mut rng);
        assert!(fake_signature.hamming_distance(&outcome.signature) > 0);
        let forged = OwnershipClaim::new(fake_signature, outcome.trigger_set.clone(), test.clone());

        let service = DisputeService::builder().build().unwrap();
        service.register("m", &outcome.model);
        let disputes: Vec<Dispute> = (0..8)
            .map(|i| {
                let claim = if i % 2 == 0 {
                    genuine.clone()
                } else {
                    forged.clone()
                };
                Dispute::new("m", claim)
            })
            .collect();
        let verdicts = service.resolve_many(&disputes);
        assert_eq!(verdicts.len(), 8);
        for (i, verdict) in verdicts.iter().enumerate() {
            let report = verdict.as_ref().unwrap();
            assert_eq!(report.verified, i % 2 == 0, "dispute {i}");
        }
        assert_eq!(service.compile_count(), 1);
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().build().unwrap();
        let err = service.resolve("nobody", &claim).unwrap_err();
        assert!(matches!(err, WatermarkError::UnknownModel { model_id } if model_id == "nobody"));
    }

    #[test]
    fn registry_lifecycle() {
        let (_, outcome) = embedded();
        let service = DisputeService::builder().build().unwrap();
        let anon = TenantId::anonymous();
        assert!(service.is_empty());
        let (digest, _) = service.register_digested_as(&anon, "a", &outcome.model).unwrap();
        service.register_by_digest_as(&anon, "b", digest).unwrap().unwrap();
        assert_eq!(service.len(), 2);
        assert_eq!(service.model_ids_for(&anon), ["a", "b"]);
        // Only the pointer-tree upload paid a compile.
        assert_eq!(service.compile_count(), 1);
        assert!(service.deregister_as(&anon, "a").unwrap());
        assert!(
            !service.deregister_as(&anon, "a").unwrap(),
            "a second deregister finds nothing"
        );
        assert!(matches!(
            service.model_as(&anon, "a").unwrap_err(),
            WatermarkError::UnknownModel { .. }
        ));
        assert!(service.model_as(&anon, "b").is_ok());
        assert_eq!(service.len(), 1);
    }

    #[test]
    fn re_registration_replaces_the_model() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let mut rng = SmallRng::seed_from_u64(74);
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.4)
            .generate(&mut SmallRng::seed_from_u64(75));
        let unrelated = Watermarker::new(WatermarkConfig {
            num_trees: 10,
            ..WatermarkConfig::fast()
        })
        .train_baseline(&dataset, &mut rng);

        let service = DisputeService::builder().build().unwrap();
        service.register("m", &unrelated);
        assert!(!service.resolve("m", &claim).unwrap().verified);
        service.register("m", &outcome.model);
        assert!(service.resolve("m", &claim).unwrap().verified);
        assert_eq!(service.len(), 1);
    }

    /// `rows` rows cycled from `source` from row `start` on, with every
    /// seventh value replaced by one of the values walks get wrong.
    fn awkward_rows(source: &Dataset, start: usize, rows: usize) -> Dataset {
        const ODD: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let cols = source.num_features();
        let mut values = Vec::with_capacity(rows * cols);
        let mut labels = Vec::with_capacity(rows);
        for row in start..start + rows {
            values.extend_from_slice(source.instance(row % source.len()));
            labels.push(source.label(row % source.len()));
        }
        for (i, value) in values.iter_mut().enumerate().step_by(7) {
            *value = ODD[(i / 7) % ODD.len()];
        }
        let features = wdte_data::DenseMatrix::from_vec(rows, cols, values).unwrap();
        Dataset::with_classes("awkward", features, labels, source.num_classes()).unwrap()
    }

    /// Answers only `query`, so verification walks one row at a time.
    struct QueryOnly<'a>(&'a RandomForest);

    impl crate::ModelOracle for QueryOnly<'_> {
        fn num_trees(&self) -> usize {
            self.0.num_trees()
        }

        fn query(&self, instance: &[f64]) -> Vec<Label> {
            self.0.predict_all(instance)
        }
    }

    /// The service, the compiled forest and the pointer forest verify
    /// through one oracle: for batches on both sides of a shard boundary,
    /// with NaN, ±inf and −0.0 features, on pools of one and three
    /// workers, their reports equal the row-at-a-time reference.
    #[test]
    fn one_oracle_answers_every_batch_size_alike() {
        for k in [2usize, 3] {
            let mut rng = SmallRng::seed_from_u64(90 + k as u64);
            let dataset = wdte_data::MultiClassSpec::k_class(k).generate(&mut rng);
            let forest =
                RandomForest::fit(&dataset, &wdte_trees::ForestParams::with_trees(10), &mut rng);
            let compiled = CompiledForest::compile(&forest);
            let service = DisputeService::builder().build().unwrap();
            service.register("m", &forest);
            let signature = Signature::random(10, 0.5, &mut rng);
            for rows in [1usize, 255, 256, 257, 601] {
                let triggers = rows.min(12);
                let claim = OwnershipClaim::new(
                    signature.clone(),
                    awkward_rows(&dataset, 0, triggers),
                    awkward_rows(&dataset, triggers, rows - triggers),
                );
                let reference = verify_ownership(&QueryOnly(&forest), &claim);
                assert_eq!(reference.queries_issued, rows);
                for width in [1, 3] {
                    let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
                    let reports = pool.install(|| {
                        [
                            service.resolve_as(&TenantId::anonymous(), "m", &claim).unwrap(),
                            verify_ownership(&compiled, &claim),
                            verify_ownership(&forest, &claim),
                        ]
                    });
                    for (path, report) in ["resolve_as", "compiled", "forest"].iter().zip(&reports) {
                        assert_eq!(report, &reference, "k={k}, {rows} rows, width {width}: {path}");
                    }
                }
            }
        }
    }

    /// A compiled-forest artefact laid out as earlier builds persisted
    /// one: a JSON envelope around the SoA arrays of a lone-leaf tree.
    const COMPILED_FOREST_ARTEFACT: &str = r#"{
  "magic": "WDTE",
  "version": 2,
  "payload": {
    "feature": [4294967295],
    "threshold": [0.0],
    "left": [1],
    "right": [0],
    "tree_starts": [0, 1],
    "num_features": 1,
    "num_classes": 2
  }
}"#;

    #[test]
    fn register_from_file_accepts_pointer_and_refuses_compiled_artefacts() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let dir = std::env::temp_dir().join(format!("wdte-service-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let compiled_path = dir.join("model.compiled.json");
        let pointer_path = dir.join("model.wdte");
        std::fs::write(&compiled_path, COMPILED_FOREST_ARTEFACT).unwrap();
        persist::save(&pointer_path, &outcome.model, persist::Format::Binary).unwrap();

        let service = DisputeService::builder().build().unwrap();
        service.register_from_file("pointer", &pointer_path).unwrap();
        let from_pointer = service.resolve("pointer", &claim).unwrap();
        assert_eq!(from_pointer, verify_ownership(&outcome.model, &claim));
        assert!(from_pointer.verified);
        assert!(matches!(
            service.register_from_file("compiled", &compiled_path).unwrap_err(),
            WatermarkError::CorruptedArtifact { .. }
        ));
        assert!(service.register_from_file("missing", dir.join("nope.wdte")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_ids_are_sorted_regardless_of_registration_order() {
        let (_, outcome) = embedded();
        let service = DisputeService::builder().build().unwrap();
        for id in ["zeta", "alpha", "mid", "beta"] {
            service.register(id, &outcome.model);
        }
        assert_eq!(
            service.model_ids_for(&TenantId::anonymous()),
            ["alpha", "beta", "mid", "zeta"]
        );
    }

    #[test]
    fn builder_warm_starts_from_a_manifest_directory() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let dir = std::env::temp_dir().join(format!("wdte-warmstart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        persist::save(dir.join("a.model.wdte"), &outcome.model, persist::Format::Binary).unwrap();
        persist::save(dir.join("b.model.json"), &outcome.model, persist::Format::Json).unwrap();
        let manifest = ModelManifest {
            models: vec![
                ManifestEntry {
                    model_id: "deployment-a".into(),
                    file: "a.model.wdte".into(),
                },
                ManifestEntry {
                    model_id: "deployment-b".into(),
                    file: "b.model.json".into(),
                },
            ],
        };
        manifest.save_dir(&dir).unwrap();
        assert_eq!(ModelManifest::load_dir(&dir).unwrap(), manifest);

        let service = DisputeService::builder().warm_start_dir(&dir).build().unwrap();
        assert_eq!(
            service.model_ids_for(&TenantId::anonymous()),
            ["deployment-a", "deployment-b"]
        );
        // Each model is compiled once at boot.
        assert_eq!(service.compile_count(), 2);
        assert!(service.resolve("deployment-a", &claim).unwrap().verified);
        assert!(service.resolve("deployment-b", &claim).unwrap().verified);

        // A manifest naming a compiled-forest file fails the build with the
        // model decoder's typed error, naming the file.
        std::fs::write(dir.join("c.compiled.json"), COMPILED_FOREST_ARTEFACT).unwrap();
        let compiled = ModelManifest {
            models: vec![ManifestEntry {
                model_id: "deployment-c".into(),
                file: "c.compiled.json".into(),
            }],
        };
        compiled.save_dir(&dir).unwrap();
        assert!(matches!(
            DisputeService::builder().warm_start_dir(&dir).build().unwrap_err(),
            WatermarkError::CorruptedArtifact { detail } if detail.contains("c.compiled.json")
        ));

        // A manifest naming a missing artefact fails the whole build with a
        // typed error instead of booting a partial registry.
        let broken = ModelManifest {
            models: vec![ManifestEntry {
                model_id: "ghost".into(),
                file: "missing.wdte".into(),
            }],
        };
        broken.save_dir(&dir).unwrap();
        assert!(matches!(
            DisputeService::builder().warm_start_dir(&dir).build().unwrap_err(),
            WatermarkError::Io { .. }
        ));
        // No manifest at all is an Io error too.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            DisputeService::builder().warm_start_dir(&dir).build().unwrap_err(),
            WatermarkError::Io { .. }
        ));
    }

    #[test]
    fn warm_start_errors_name_the_model_and_the_file() {
        let (_, outcome) = embedded();
        let dir = std::env::temp_dir().join(format!("wdte-warmstart-named-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = String::from_utf8(persist::to_bytes(&outcome.model, persist::Format::Json)).unwrap();
        let corrupted = json.replacen("\"left\": 1,", "\"left\": 999999,", 1);
        assert_ne!(corrupted, json, "the envelope must contain a left child index");
        std::fs::write(dir.join("broken.model.json"), corrupted).unwrap();
        ModelManifest {
            models: vec![ManifestEntry {
                model_id: "deployment-x".into(),
                file: "broken.model.json".into(),
            }],
        }
        .save_dir(&dir)
        .unwrap();
        let err = DisputeService::builder().warm_start_dir(&dir).build().unwrap_err();
        let message = err.to_string();
        assert!(
            matches!(err, WatermarkError::CorruptedArtifact { .. }),
            "{message}"
        );
        for part in ["deployment-x", "broken.model.json", "child 999999 out of range"] {
            assert!(message.contains(part), "`{part}` missing from: {message}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_docket_refuses_oversized_dockets_whole() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().max_docket(2).build().unwrap();
        let anon = TenantId::anonymous();
        service.register("m", &outcome.model);
        let (digest, shared) = insert(service.claims(), claim.clone());
        let docket: Vec<SharedDispute> =
            (0..3).map(|_| SharedDispute::new("m", digest, Arc::clone(&shared))).collect();
        let verdicts = service.resolve_docket_shared_as(&anon, &docket[..2]).unwrap();
        assert!(verdicts.iter().all(|v| v.as_ref().unwrap().verified));
        assert_eq!(service.stats_for(&anon).dockets, 1);
        match service.resolve_docket_shared_as(&anon, &docket).unwrap_err() {
            WatermarkError::DocketTooLarge { size, max } => {
                assert_eq!((size, max), (3, 2));
            }
            other => panic!("expected DocketTooLarge, got {other:?}"),
        }
        assert_eq!(
            service.stats_for(&anon).dockets,
            1,
            "a refused docket is not recorded"
        );
        assert!(service.check_docket_size(2).is_ok());
        assert!(service.check_docket_size(3).is_err());
        // `resolve_many` stays uncapped for in-process callers.
        let big: Vec<Dispute> = (0..3).map(|_| Dispute::new("m", claim.clone())).collect();
        assert_eq!(service.resolve_many(&big).len(), 3);
        // 0 means unlimited (the 0-disables convention of serve_judge).
        let uncapped = DisputeService::builder().max_docket(0).build().unwrap();
        assert!(uncapped.check_docket_size(usize::MAX).is_ok());
    }

    #[test]
    fn claim_cache_dedups_and_evicts_by_lru_byte_budget() {
        let (test, outcome) = embedded();
        let big = claim_for(&outcome, &test);
        let small = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            outcome.trigger_set.clone(),
        );
        // Unlimited cache: re-inserting an equal claim dedups to one entry
        // sharing one body.
        let cache = ClaimCache::new(0);
        let (digest_a, body_a) = insert(&cache, big.clone());
        let (digest_b, body_b) = insert(&cache, big.clone());
        assert_eq!(digest_a, digest_b);
        assert!(Arc::ptr_eq(&body_a, &body_b));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&digest_a).as_deref(), Some(&big));
        assert!(cache.get(&PayloadDigest { hi: 0, lo: 0 }).is_none());

        // A budget that fits two big claims or (big + small), but not two
        // big claims *and* the small one: the third insertion must evict
        // exactly the least-recently-used entry, and `get` refreshes
        // recency.
        let budget = 2 * claim_footprint(&big) + claim_footprint(&small) - 1;
        let cache = ClaimCache::new(budget);
        let (big_digest, _) = insert(&cache, big.clone());
        let (small_digest, _) = insert(&cache, small.clone());
        assert_eq!(cache.len(), 2, "both claims fit the budget exactly");
        // Touch the big claim so the small one is now least recently used,
        // then overflow the budget: the small claim is evicted.
        assert!(cache.get(&big_digest).is_some());
        let third = OwnershipClaim::new(
            Signature::from_bits(outcome.signature.bits().iter().map(|&b| !b).collect()),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        let (third_digest, _) = insert(&cache, third);
        assert!(cache.get(&small_digest).is_none(), "LRU entry evicted");
        assert!(cache.get(&big_digest).is_some());
        assert!(cache.get(&third_digest).is_some());
        assert!(cache.bytes() <= budget);
    }

    #[test]
    fn claim_cache_recency_matches_the_lru_deque() {
        use rand::Rng;
        // The recency list the stamps replaced: a least-recently-used-first
        // deque, scanned and rotated on every touch.
        #[derive(Default)]
        struct DequeLru {
            order: VecDeque<PayloadDigest>,
            footprint: HashMap<PayloadDigest, usize>,
            bytes: usize,
        }
        impl DequeLru {
            fn touch(&mut self, digest: PayloadDigest) -> bool {
                let Some(position) = self.order.iter().position(|d| *d == digest) else {
                    return false;
                };
                self.order.remove(position);
                self.order.push_back(digest);
                true
            }
            fn insert(&mut self, digest: PayloadDigest, footprint: usize, budget: usize) {
                if self.touch(digest) {
                    return;
                }
                self.order.push_back(digest);
                self.footprint.insert(digest, footprint);
                self.bytes += footprint;
                while self.bytes > budget {
                    let oldest = self.order.pop_front().expect("over budget means non-empty");
                    self.bytes -= self.footprint.remove(&oldest).expect("tracked");
                }
            }
        }

        let mut rng = SmallRng::seed_from_u64(0x1AC);
        // Claims of 1..=4 disguise rows, so footprints differ and one
        // insert can evict several entries.
        let claims: Vec<OwnershipClaim> = (0..32)
            .map(|i| {
                let rows: Vec<Vec<f64>> = (0..1 + i % 4).map(|_| vec![rng.gen(), rng.gen()]).collect();
                let set = Dataset::new(
                    "c",
                    wdte_data::DenseMatrix::from_rows(&rows).unwrap(),
                    vec![Label::Positive; rows.len()],
                )
                .unwrap();
                OwnershipClaim::new(Signature::from_bits(vec![i % 2 == 0; 3]), set.clone(), set)
            })
            .collect();
        let budget = 6 * claim_footprint(&claims[1]);
        let cache = ClaimCache::new(budget);
        let mut reference = DequeLru::default();
        let quotas = TenantQuotas::unlimited();
        for step in 0..600 {
            let claim = &claims[rng.gen_range(0..claims.len())];
            let digest = PayloadDigest::of_claim(claim);
            if rng.gen_bool(0.5) {
                let owner = tenant(["a", "b"][step % 2]);
                cache.insert_for(&owner, &quotas, claim.clone()).unwrap();
                reference.insert(digest, claim_footprint(claim), budget);
            } else {
                assert_eq!(
                    cache.get(&digest).is_some(),
                    reference.touch(digest),
                    "step {step}"
                );
            }
            let order: Vec<PayloadDigest> = cache.lock().order.values().copied().collect();
            assert_eq!(order, Vec::from(reference.order.clone()), "step {step}");
            assert_eq!(cache.bytes(), reference.bytes, "step {step}");
        }
        assert!(cache.len() > 1, "the budget holds several claims");
    }

    #[test]
    fn resolve_docket_shared_dedups_to_bit_identical_verdicts() {
        let (test, outcome) = embedded();
        let genuine = claim_for(&outcome, &test);
        let forged = OwnershipClaim::new(
            Signature::from_bits(outcome.signature.bits().iter().map(|&b| !b).collect()),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        let service = DisputeService::builder().build().unwrap();
        service.register("m", &outcome.model);

        // A docket repeating two distinct claims many times, plus one
        // unknown-model dispute: exactly the wire fixture shape.
        let disputes: Vec<Dispute> = (0..12)
            .map(|i| {
                let claim = if i % 2 == 0 {
                    genuine.clone()
                } else {
                    forged.clone()
                };
                let model_id = if i == 5 { "ghost" } else { "m" };
                Dispute::new(model_id, claim)
            })
            .collect();
        let shared: Vec<SharedDispute> = disputes
            .iter()
            .map(|dispute| {
                let (digest, claim) = insert(service.claims(), dispute.claim.clone());
                SharedDispute::new(dispute.model_id.clone(), digest, claim)
            })
            .collect();
        let reference = service.resolve_many(&disputes);
        let anon = TenantId::anonymous();
        let deduped = service.resolve_docket_shared_as(&anon, &shared).unwrap();
        assert_eq!(deduped.len(), reference.len());
        for (i, (a, b)) in deduped.iter().zip(&reference).enumerate() {
            assert_eq!(a, b, "dispute {i}");
        }
        // Only two distinct claims ever entered the cache.
        assert_eq!(service.claims().len(), 2);

        // The docket cap counts pre-dedup size.
        let capped = DisputeService::builder().max_docket(3).build().unwrap();
        capped.register("m", &outcome.model);
        let oversized: Vec<SharedDispute> = shared[..4].to_vec();
        assert!(matches!(
            capped.resolve_docket_shared_as(&anon, &oversized).unwrap_err(),
            WatermarkError::DocketTooLarge { size: 4, max: 3 }
        ));
    }

    #[test]
    fn register_by_digest_reuses_the_compiled_form_until_deregistered() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().build().unwrap();
        let anon = TenantId::anonymous();
        let (digest, compiled) = service.register_digested_as(&anon, "a", &outcome.model).unwrap();
        assert_eq!(digest, PayloadDigest::of_model(&outcome.model));
        // Digest-only registration under a second id: no recompilation,
        // same compiled form, resolvable.
        let reused = service.register_by_digest_as(&anon, "b", digest).unwrap().unwrap();
        assert!(Arc::ptr_eq(&compiled, &reused));
        assert_eq!(service.compile_count(), 1);
        assert!(service.resolve("b", &claim).unwrap().verified);
        // Unknown digests miss.
        let unknown = PayloadDigest { hi: 1, lo: 2 };
        assert!(service.register_by_digest_as(&anon, "c", unknown).unwrap().is_none());
        // The index survives while any id still serves the compiled form …
        assert!(service.deregister_as(&anon, "a").unwrap());
        assert!(service.register_by_digest_as(&anon, "a2", digest).unwrap().is_some());
        // … and is pruned once the last id is gone.
        assert!(service.deregister_as(&anon, "a2").unwrap());
        assert!(service.deregister_as(&anon, "b").unwrap());
        assert!(
            service.register_by_digest_as(&anon, "d", digest).unwrap().is_none(),
            "a fully deregistered model must not be resurrectable by digest"
        );
    }

    fn tenant(name: &str) -> TenantId {
        TenantId::new(name).unwrap()
    }

    #[test]
    fn concurrent_registrations_never_overshoot_the_model_quota() {
        let (_, outcome) = embedded();
        let quotas = TenantQuotas {
            max_models: 1,
            ..TenantQuotas::default()
        };
        let acme = tenant("acme");
        for round in 0..20 {
            let service = DisputeService::builder().tenant_quotas(quotas).build().unwrap();
            let barrier = std::sync::Barrier::new(8);
            let results: Vec<WatermarkResult<()>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..8)
                    .map(|thread| {
                        let (service, barrier, acme, model) =
                            (&service, &barrier, &acme, &outcome.model);
                        scope.spawn(move || {
                            barrier.wait();
                            service.register_digested_as(acme, format!("m{thread}"), model).map(drop)
                        })
                    })
                    .collect();
                workers.into_iter().map(|worker| worker.join().unwrap()).collect()
            });
            assert_eq!(service.model_ids_for(&acme).len(), 1, "round {round}");
            assert_eq!(
                results.iter().filter(|result| result.is_ok()).count(),
                1,
                "round {round}"
            );
            for refused in results.iter().filter_map(|result| result.as_ref().err()) {
                assert!(
                    matches!(refused, WatermarkError::QuotaExceeded { resource, .. } if resource == "models"),
                    "round {round}: {refused:?}"
                );
            }
        }
    }

    #[test]
    fn re_registration_prunes_the_replaced_model_from_the_digest_index() {
        let (_, outcome) = embedded();
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.4)
            .generate(&mut SmallRng::seed_from_u64(75));
        let replacement = Watermarker::new(WatermarkConfig {
            num_trees: 10,
            ..WatermarkConfig::fast()
        })
        .train_baseline(&dataset, &mut SmallRng::seed_from_u64(74));
        let service = DisputeService::builder().build().unwrap();
        let acme = tenant("acme");
        let (first, _) = service.register_digested_as(&acme, "a", &outcome.model).unwrap();
        let (second, _) = service.register_digested_as(&acme, "a", &replacement).unwrap();
        assert_ne!(first, second);
        assert!(
            service.register_by_digest_as(&acme, "b", first).unwrap().is_none(),
            "a replaced model must not be re-registrable by its digest"
        );
        assert!(service.register_by_digest_as(&acme, "b", second).unwrap().is_some());
        assert_eq!(service.model_ids_for(&acme), ["a", "b"]);
    }

    #[test]
    fn tenant_namespaces_isolate_models() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().build().unwrap();
        let acme = tenant("acme");
        let rival = tenant("rival");
        service.register_digested_as(&acme, "prod", &outcome.model).unwrap();
        assert_eq!(service.model_ids_for(&acme), ["prod"]);
        assert!(service.model_ids_for(&rival).is_empty());
        assert!(service.resolve_as(&acme, "prod", &claim).unwrap().verified);
        // Probing another tenant's id is Forbidden, not UnknownModel.
        assert!(matches!(
            service.resolve_as(&rival, "prod", &claim).unwrap_err(),
            WatermarkError::Forbidden { .. }
        ));
        assert!(matches!(
            service.deregister_as(&rival, "prod").unwrap_err(),
            WatermarkError::Forbidden { .. }
        ));
        // A digest uploaded by one tenant never matches in another
        // namespace, even though the content is identical.
        let digest = PayloadDigest::of_model(&outcome.model);
        assert!(service.register_by_digest_as(&rival, "copy", digest).unwrap().is_none());
        assert!(service.register_by_digest_as(&acme, "copy", digest).unwrap().is_some());
        // An id registered nowhere stays UnknownModel.
        assert!(matches!(
            service.resolve_as(&rival, "ghost", &claim).unwrap_err(),
            WatermarkError::UnknownModel { .. }
        ));
        // Deregistering your own id works and leaves the rest untouched.
        assert!(service.deregister_as(&acme, "prod").unwrap());
        assert_eq!(service.model_ids_for(&acme), ["copy"]);
    }

    #[test]
    fn tenant_quotas_refuse_before_allocation() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let quotas = TenantQuotas {
            max_models: 1,
            max_claim_bytes: claim_footprint(&claim) + 10,
            max_in_flight: 0,
        };
        let service = DisputeService::builder().tenant_quotas(quotas).max_docket(2).build().unwrap();
        let acme = tenant("acme");
        service.register_digested_as(&acme, "one", &outcome.model).unwrap();
        let err = service.register_digested_as(&acme, "two", &outcome.model).unwrap_err();
        assert!(matches!(
            err,
            WatermarkError::QuotaExceeded { ref resource, used: 2, limit: 1 } if resource == "models"
        ));
        // Re-registering a held id is replacement, not growth.
        service.register_digested_as(&acme, "one", &outcome.model).unwrap();
        // Every tenant gets its own budget.
        service.register_digested_as(&tenant("other"), "one", &outcome.model).unwrap();

        // The docket cap applies to an authenticated tenant too, and a
        // refused docket is not recorded.
        let (digest, shared) =
            service.claims().insert_for(&acme, service.quotas(), claim.clone()).unwrap();
        let disputes: Vec<SharedDispute> =
            (0..3).map(|_| SharedDispute::new("one", digest, Arc::clone(&shared))).collect();
        assert!(matches!(
            service.resolve_docket_shared_as(&acme, &disputes).unwrap_err(),
            WatermarkError::DocketTooLarge { size: 3, max: 2 }
        ));
        assert_eq!(service.stats_for(&acme).dockets, 0);
        let verdicts = service.resolve_docket_shared_as(&acme, &disputes[..2]).unwrap();
        assert!(verdicts.iter().all(|v| v.as_ref().unwrap().verified));
        assert_eq!(service.stats_for(&acme).dockets, 1);

        // Claim-bytes axis: the refused insert allocates nothing, and
        // re-inserting an already-owned claim is never re-charged.
        service.claims().insert_for(&acme, service.quotas(), claim.clone()).unwrap();
        let small = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            outcome.trigger_set.clone(),
        );
        let before = service.claims().len();
        let err = service.claims().insert_for(&acme, service.quotas(), small.clone()).unwrap_err();
        assert!(matches!(
            err,
            WatermarkError::QuotaExceeded { ref resource, .. } if resource == "claim-bytes"
        ));
        assert_eq!(service.claims().len(), before, "refused insert allocates nothing");
        // The same claim fits another tenant's untouched budget.
        service.claims().insert_for(&tenant("other"), service.quotas(), small).unwrap();
    }

    /// Pins the claim-cache byte accounting: dataset payloads + signature +
    /// the documented fixed per-entry overhead, with every owner of a
    /// deduplicated entry charged its full footprint.
    #[test]
    fn claim_accounting_includes_entry_overhead_and_attributes_owners() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let payload = claim.trigger_set.len() * (claim.trigger_set.num_features() * 8 + 1)
            + claim.test_set.len() * (claim.test_set.num_features() * 8 + 1)
            + claim.signature.len();
        assert_eq!(claim_footprint(&claim), payload + CLAIM_ENTRY_OVERHEAD_BYTES);

        let cache = ClaimCache::new(0);
        insert(&cache, claim.clone());
        assert_eq!(cache.bytes(), claim_footprint(&claim));
        assert_eq!(
            cache.tenant_bytes(&TenantId::anonymous()),
            claim_footprint(&claim)
        );

        // Two tenants uploading the same claim share one body but are each
        // attributed its full cost.
        let cache = ClaimCache::new(0);
        let quotas = TenantQuotas::unlimited();
        cache.insert_for(&tenant("a"), &quotas, claim.clone()).unwrap();
        cache.insert_for(&tenant("b"), &quotas, claim.clone()).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), claim_footprint(&claim));
        assert_eq!(cache.tenant_bytes(&tenant("a")), claim_footprint(&claim));
        assert_eq!(cache.tenant_bytes(&tenant("b")), claim_footprint(&claim));
        assert_eq!(cache.tenant_bytes(&tenant("c")), 0);
    }

    #[test]
    fn deregistration_drops_the_models_cached_claims() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().build().unwrap();
        let acme = tenant("acme");
        service.register_digested_as(&acme, "prod", &outcome.model).unwrap();
        service.register_digested_as(&acme, "staging", &outcome.model).unwrap();

        // One claim adjudicated only against prod …
        let (digest, shared) =
            service.claims().insert_for(&acme, service.quotas(), claim.clone()).unwrap();
        let docket = [SharedDispute::new("prod", digest, Arc::clone(&shared))];
        service.resolve_docket_shared_as(&acme, &docket).unwrap();
        // … and one adjudicated against both models.
        let other = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            outcome.trigger_set.clone(),
        );
        let (other_digest, other_shared) =
            service.claims().insert_for(&acme, service.quotas(), other.clone()).unwrap();
        let docket = [
            SharedDispute::new("prod", other_digest, Arc::clone(&other_shared)),
            SharedDispute::new("staging", other_digest, other_shared),
        ];
        service.resolve_docket_shared_as(&acme, &docket).unwrap();
        assert_eq!(service.claims().len(), 2);

        assert!(service.deregister_as(&acme, "prod").unwrap());
        // The prod-only evidence is gone: a later digest reference must
        // re-upload instead of silently reusing a claim bound to the
        // retired model.
        assert!(service.claims().get(&digest).is_none(), "stale digest dropped");
        // Evidence still bound to a live model survives.
        assert!(service.claims().get(&other_digest).is_some());
        assert_eq!(service.claims().tenant_bytes(&acme), claim_footprint(&other));
    }

    #[test]
    fn stats_rows_report_counters_and_gauges() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().build().unwrap();
        let acme = tenant("acme");
        service.register_digested_as(&acme, "prod", &outcome.model).unwrap();
        let (digest, shared) =
            service.claims().insert_for(&acme, service.quotas(), claim.clone()).unwrap();
        let docket: Vec<SharedDispute> = (0..3)
            .map(|_| SharedDispute::new("prod", digest, Arc::clone(&shared)))
            .collect();
        service.resolve_docket_shared_as(&acme, &docket).unwrap();
        let row = service.stats_for(&acme);
        assert_eq!(row.tenant, "acme");
        assert_eq!((row.models, row.dockets, row.claims), (1, 1, 3));
        assert_eq!(row.claim_bytes as usize, claim_footprint(&claim));
        assert_eq!(row.in_flight, 0);

        // The open-judge view reports every namespace, sorted with the
        // anonymous tenant first (it sorts as the empty id).
        service.register("open-model", &outcome.model);
        let all = service.stats_all();
        let names: Vec<&str> = all.iter().map(|row| row.tenant.as_str()).collect();
        assert_eq!(names, ["anonymous", "acme"]);
        assert_eq!(all[0].models, 1);
        assert_eq!(all[1].dockets, 1);
    }

    /// The claim `proto`'s tests digest, built the same way.
    fn victim_claim() -> OwnershipClaim {
        let mut rng = SmallRng::seed_from_u64(9);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
        let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
        OwnershipClaim::new(Signature::random(8, 0.5, &mut rng), trigger, test)
    }

    /// Rebuilds `set` over `features` and a `num_classes`-class label space.
    fn rebuilt(set: &Dataset, features: wdte_data::DenseMatrix, num_classes: usize) -> Dataset {
        Dataset::with_classes(set.name.clone(), features, set.labels().to_vec(), num_classes).unwrap()
    }

    /// Two different claims with the victim claim's digest: an FNV second
    /// preimage that rewrites three feature values of test row 0, and a
    /// trigger set relabelled as a 3-class space, which the digest does
    /// not cover but verification reads (labels rotate modulo k).
    fn colliding_forgeries(victim: &OwnershipClaim) -> [OwnershipClaim; 2] {
        let genuine = [0x3fe496beec9c3a74_u64, 0x3fd9fa00c38c8249, 0x3fe72b98598a8374];
        let forged = [0xe74ed74462c1c566_u64, 0x8b7340840858353e, 0x9a27196e3dde97f3];
        let mut features = victim.test_set.features().clone();
        for (col, (&was, &now)) in genuine.iter().zip(&forged).enumerate() {
            assert_eq!(features.value(0, col).to_bits(), was, "fixture drifted");
            features.set(0, col, f64::from_bits(now));
        }
        let mut preimage = victim.clone();
        preimage.test_set = rebuilt(&victim.test_set, features, victim.test_set.num_classes());
        let mut relabelled = victim.clone();
        assert_eq!(victim.trigger_set.num_classes(), 2);
        relabelled.trigger_set = rebuilt(&victim.trigger_set, victim.trigger_set.features().clone(), 3);
        [preimage, relabelled]
    }

    #[test]
    fn a_colliding_claim_never_replaces_the_cached_body() {
        let victim = victim_claim();
        let quotas = TenantQuotas::unlimited();
        for (case, forged) in colliding_forgeries(&victim).into_iter().enumerate() {
            assert_eq!(
                PayloadDigest::of_claim(&forged),
                PayloadDigest::of_claim(&victim),
                "case {case}: the forgery must collide"
            );
            assert_ne!(forged, victim, "case {case}");
            let cache = ClaimCache::new(0);
            let (digest, _) = cache.insert_for(&tenant("mallory"), &quotas, forged.clone()).unwrap();
            let refused = cache.insert_for(&tenant("victim"), &quotas, victim.clone());
            assert!(
                matches!(refused, Err(WatermarkError::ProtocolViolation { .. })),
                "case {case}: the genuine claim was handed the forged body"
            );
            assert_eq!(
                *cache.get(&digest).unwrap(),
                forged,
                "case {case}: the cached body is kept"
            );
            assert_eq!(cache.tenant_bytes(&tenant("victim")), 0, "case {case}");
        }
    }

    #[test]
    fn an_identical_claim_with_nan_is_shared_across_tenants() {
        let victim = victim_claim();
        let mut features = victim.test_set.features().clone();
        features.set(0, 0, f64::NAN);
        let mut claim = victim.clone();
        claim.test_set = rebuilt(&victim.test_set, features, victim.test_set.num_classes());
        let cache = ClaimCache::new(0);
        let quotas = TenantQuotas::unlimited();
        let (first, body) = cache.insert_for(&tenant("a"), &quotas, claim.clone()).unwrap();
        let (second, shared) = cache.insert_for(&tenant("b"), &quotas, claim).unwrap();
        assert_eq!(first, second);
        assert!(Arc::ptr_eq(&body, &shared));
        assert_eq!(cache.len(), 1);
    }
}

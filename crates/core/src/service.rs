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
//!   verification batch is itself sharded through
//!   [`CompiledForest::par_predict_all_batch`] — a genuinely two-level
//!   fan-out: the pool schedules one dispute's batch shards onto workers
//!   that finished their own disputes early, instead of serializing the
//!   inner level as the old chunk-and-join shim did. Results are stitched
//!   back in input order, so reports are bit-identical to the sequential
//!   path regardless of the worker-thread count.
//!
//! The service is `&self`-only and `Sync`: one instance can be shared
//! behind an `Arc` by any number of request threads.
//!
//! **Construction** goes through [`DisputeService::builder`], which also
//! warm-starts the registry from a directory of persisted model artefacts
//! (a [`ModelManifest`] written by the `table2` experiment), so a judge
//! process boots from disk alone:
//!
//! ```rust,ignore
//! let service = DisputeService::builder()
//!     .batch_shard_rows(128)
//!     .max_docket(1024)
//!     .warm_start_dir("results/models")
//!     .build()?;
//! ```

use crate::error::{WatermarkError, WatermarkResult};
use crate::persist;
use crate::proto::PayloadDigest;
use crate::tenant::{TenantId, TenantLedger, TenantQuotas, TenantStatsEntry};
use crate::verify::{verify_ownership, ModelOracle, OwnershipClaim, VerificationReport};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use wdte_data::{Dataset, Label};
use wdte_trees::{CompiledForest, Kernel, RandomForest};

/// Default number of verification-batch rows each worker shard handles.
/// Small enough to spread one large claim across every core, large enough
/// that the per-shard row copy is negligible next to the tree walks.
pub const DEFAULT_BATCH_SHARD_ROWS: usize = 256;

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
/// [`DisputeService::resolve_docket_shared`] after resolving digest
/// references against the claim cache. The digest keys the deduplication —
/// two disputes with the same `(model_id, digest)` pair are resolved once
/// and share the verdict.
#[derive(Debug, Clone)]
pub struct SharedDispute {
    /// Registry id of the suspect model.
    pub model_id: String,
    /// Content digest of the claim (as computed by [`ClaimCache::insert`]).
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
/// to content the judge never saw, so a poisoned entry would require a
/// digest collision, not a lying client.
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
    /// Digests in least-recently-used-first order.
    order: VecDeque<PayloadDigest>,
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
    /// Tenants charged for this entry.
    owners: HashSet<TenantId>,
    /// Models the claim has been adjudicated against, for
    /// [`ClaimCache::drop_model`].
    models: HashSet<(TenantId, String)>,
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

    /// Inserts a claim, computing its digest from the content, and returns
    /// the digest with the (possibly pre-existing) shared body. Re-inserting
    /// an equal claim refreshes its recency instead of duplicating it.
    /// Attributes the bytes to the anonymous tenant with no quota — the
    /// in-process path; the wire front-end uses
    /// [`insert_for`](Self::insert_for).
    pub fn insert(&self, claim: OwnershipClaim) -> (PayloadDigest, Arc<OwnershipClaim>) {
        self.insert_for(&TenantId::anonymous(), &TenantQuotas::default(), claim)
            .expect("unlimited quotas never refuse an insert")
    }

    /// [`insert`](Self::insert) with per-tenant attribution: the tenant's
    /// `max_claim_bytes` quota is checked against its *attributed* bytes
    /// **before** the claim body is allocated into the cache, and refused
    /// inserts leave the cache untouched. Re-inserting a claim another
    /// tenant already uploaded charges this tenant too (content is shared,
    /// accountability is not).
    pub fn insert_for(
        &self,
        tenant: &TenantId,
        quotas: &TenantQuotas,
        claim: OwnershipClaim,
    ) -> WatermarkResult<(PayloadDigest, Arc<OwnershipClaim>)> {
        let digest = PayloadDigest::of_claim(&claim);
        let footprint = claim_footprint(&claim);
        let mut inner = self.lock();
        let already_owner = inner.map.get(&digest).is_some_and(|entry| entry.owners.contains(tenant));
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
        inner.map.insert(
            digest,
            ClaimEntry {
                claim: Arc::clone(&shared),
                footprint,
                owners: HashSet::from([tenant.clone()]),
                models: HashSet::new(),
            },
        );
        inner.order.push_back(digest);
        inner.bytes += footprint;
        *inner.tenant_bytes.entry(tenant.clone()).or_insert(0) += footprint;
        if self.budget_bytes > 0 {
            while inner.bytes > self.budget_bytes {
                let Some(oldest) = inner.order.pop_front() else {
                    break;
                };
                Self::drop_entry(&mut inner, &oldest);
            }
        }
        Ok((digest, shared))
    }

    /// Removes `digest` from the map and refunds its bytes to every owner.
    /// The caller is responsible for the `order` deque.
    fn drop_entry(inner: &mut ClaimCacheInner, digest: &PayloadDigest) {
        if let Some(evicted) = inner.map.remove(digest) {
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
        inner.order.retain(|d| !dropped.contains(d));
        dropped.len()
    }

    fn touch(inner: &mut ClaimCacheInner, digest: PayloadDigest) {
        if let Some(position) = inner.order.iter().position(|d| *d == digest) {
            inner.order.remove(position);
            inner.order.push_back(digest);
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
    /// Artefact file name, relative to the manifest's directory. Either a
    /// persisted pointer-tree [`RandomForest`] or a [`CompiledForest`].
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

/// Configures and builds a [`DisputeService`] — the one construction
/// path besides [`DisputeService::default`].
#[derive(Debug, Clone, Default)]
pub struct DisputeServiceBuilder {
    batch_shard_rows: Option<usize>,
    max_docket: Option<usize>,
    warm_start_dirs: Vec<PathBuf>,
    claim_cache_bytes: Option<usize>,
    model_cache_bytes: Option<usize>,
    tenant_quotas: Option<TenantQuotas>,
}

impl DisputeServiceBuilder {
    /// Sets the verification-batch shard size (rows per worker task;
    /// clamped to at least 1). Defaults to [`DEFAULT_BATCH_SHARD_ROWS`].
    pub fn batch_shard_rows(mut self, rows: usize) -> Self {
        self.batch_shard_rows = Some(rows.max(1));
        self
    }

    /// Caps the number of disputes [`DisputeService::resolve_docket`]
    /// accepts in one docket; oversized dockets are refused whole with
    /// [`WatermarkError::DocketTooLarge`]. Unlimited by default; passing
    /// `0` also means unlimited, matching the 0-disables convention of the
    /// `serve_judge` flags.
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

    /// Byte budget for resident compiled forests (`serve_judge
    /// --model-cache-mb`). When the resident set exceeds the budget, the
    /// least-recently-used *evictable* model is dropped to its persisted
    /// artefact and transparently recompiled on the next resolution
    /// against it. Only file-backed models are evictable (a wire-uploaded
    /// model has no artefact to fall back to), and warm-start models are
    /// pinned. `0` means unlimited (the default), matching the 0-disables
    /// convention.
    pub fn model_cache_bytes(mut self, bytes: usize) -> Self {
        self.model_cache_bytes = Some(bytes);
        self
    }

    /// Per-tenant quotas enforced on the wire-facing (`*_as`) entry points
    /// — models registered, docket size, attributed claim-cache bytes and
    /// in-flight requests — each checked *before* the corresponding
    /// allocation. Defaults to [`TenantQuotas::default`] (every axis
    /// unlimited). The same quotas apply to every tenant, including the
    /// anonymous one; trusted in-process callers using the legacy entry
    /// points are never quota-checked.
    pub fn tenant_quotas(mut self, quotas: TenantQuotas) -> Self {
        self.tenant_quotas = Some(quotas);
        self
    }

    /// Warm-starts the registry from a directory containing a
    /// [`ModelManifest`] plus the artefact files it names (as written by
    /// the `table2` experiment under `results/models/`). May be called
    /// multiple times; directories are loaded in call order at
    /// [`build`](Self::build) time. Warm-start models are *pinned*: they
    /// count toward the model-cache budget but are never evicted.
    pub fn warm_start_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.warm_start_dirs.push(dir.into());
        self
    }

    /// Builds the service, registering every warm-start artefact. Fails
    /// with the underlying `persist` error if a manifest or artefact is
    /// missing, corrupted, or written by an unsupported format version.
    pub fn build(self) -> WatermarkResult<DisputeService> {
        let service = DisputeService::with_options(
            self.batch_shard_rows.unwrap_or(DEFAULT_BATCH_SHARD_ROWS),
            self.max_docket,
            self.claim_cache_bytes.unwrap_or(DEFAULT_CLAIM_CACHE_BYTES),
            self.model_cache_bytes.unwrap_or(0),
            self.tenant_quotas.unwrap_or_default(),
        );
        for dir in &self.warm_start_dirs {
            let manifest = ModelManifest::load_dir(dir)?;
            for entry in &manifest.models {
                service.register_file_inner(
                    &TenantId::anonymous(),
                    entry.model_id.clone(),
                    dir.join(&entry.file),
                    true,
                )?;
            }
        }
        Ok(service)
    }
}

/// Key of one registry entry: the owning tenant plus the caller-chosen
/// model id. Namespaces are disjoint — two tenants can use the same id
/// without ever observing each other's models.
type ModelKey = (TenantId, String);

/// One registered model. `compiled: None` means the model was evicted to
/// its persisted artefact and will be transparently recompiled on the next
/// resolution against it.
#[derive(Debug)]
struct ModelEntry {
    compiled: Option<Arc<CompiledForest>>,
    /// Estimated resident bytes of the compiled form (counted while
    /// resident, refunded on eviction).
    footprint: usize,
    /// Pinned entries (warm-start models) are never evicted.
    pinned: bool,
    /// Persisted artefact backing the entry; only file-backed models are
    /// evictable, because a wire-uploaded model has nothing to fall back
    /// to.
    source: Option<PathBuf>,
}

impl ModelEntry {
    fn evictable(&self) -> bool {
        !self.pinned && self.source.is_some()
    }
}

#[derive(Debug, Default)]
struct ModelRegistry {
    map: HashMap<ModelKey, ModelEntry>,
    /// Resident, evictable keys in least-recently-used-first order.
    order: VecDeque<ModelKey>,
    /// Estimated bytes of all resident compiled forests.
    resident_bytes: usize,
}

impl ModelRegistry {
    fn touch(&mut self, key: &ModelKey) {
        if let Some(position) = self.order.iter().position(|k| k == key) {
            let key = self.order.remove(position).expect("position is in bounds");
            self.order.push_back(key);
        }
    }

    fn tenant_models(&self, tenant: &TenantId) -> usize {
        self.map.keys().filter(|(owner, _)| owner == tenant).count()
    }

    /// The typed error for a model id absent from `tenant`'s namespace:
    /// [`WatermarkError::Forbidden`] if another tenant holds the id (a
    /// cross-namespace probe), [`WatermarkError::UnknownModel`] otherwise.
    fn missing(&self, tenant: &TenantId, model_id: &str) -> WatermarkError {
        if self.map.keys().any(|(owner, id)| id == model_id && owner != tenant) {
            WatermarkError::Forbidden {
                detail: format!("model `{model_id}` is not in tenant `{tenant}`'s namespace"),
            }
        } else {
            WatermarkError::UnknownModel {
                model_id: model_id.to_string(),
            }
        }
    }
}

/// A registry of compiled suspect models plus a concurrent resolver for
/// ownership claims against them. See the module docs for the guarantees.
///
/// Every model lives in a tenant namespace (see [`TenantId`]); the
/// original single-tenant entry points operate on the anonymous namespace
/// and behave exactly as before, while the `*_as` variants the wire
/// front-end drives enforce namespace isolation
/// ([`WatermarkError::Forbidden`]) and [`TenantQuotas`].
#[derive(Debug)]
pub struct DisputeService {
    registry: Mutex<ModelRegistry>,
    /// Compiled models by tenant-scoped content digest, for digest-only
    /// re-registration ([`Self::register_by_digest`]). Scoping by tenant
    /// means a digest learned out of band cannot resurrect another
    /// tenant's model. Entries are pruned when the last registry id
    /// sharing the compiled form is deregistered or evicted.
    model_digests: RwLock<HashMap<(TenantId, PayloadDigest), Arc<CompiledForest>>>,
    claims: ClaimCache,
    ledger: TenantLedger,
    compile_count: AtomicUsize,
    batch_shard_rows: usize,
    max_docket: Option<usize>,
    model_cache_bytes: usize,
    quotas: TenantQuotas,
}

impl Default for DisputeService {
    fn default() -> Self {
        Self::with_options(
            DEFAULT_BATCH_SHARD_ROWS,
            None,
            DEFAULT_CLAIM_CACHE_BYTES,
            0,
            TenantQuotas::default(),
        )
    }
}

impl DisputeService {
    /// Starts configuring a service. See [`DisputeServiceBuilder`].
    pub fn builder() -> DisputeServiceBuilder {
        DisputeServiceBuilder::default()
    }

    fn with_options(
        batch_shard_rows: usize,
        max_docket: Option<usize>,
        claim_cache_bytes: usize,
        model_cache_bytes: usize,
        quotas: TenantQuotas,
    ) -> Self {
        Self {
            registry: Mutex::new(ModelRegistry::default()),
            model_digests: RwLock::new(HashMap::new()),
            claims: ClaimCache::new(claim_cache_bytes),
            ledger: TenantLedger::new(),
            compile_count: AtomicUsize::new(0),
            batch_shard_rows,
            max_docket,
            model_cache_bytes,
            quotas,
        }
    }

    fn lock_registry(&self) -> std::sync::MutexGuard<'_, ModelRegistry> {
        self.registry.lock().expect("dispute registry lock is never poisoned")
    }

    /// The digest-keyed claim cache backing content-addressed payloads.
    pub fn claims(&self) -> &ClaimCache {
        &self.claims
    }

    /// The per-tenant accounting ledger. The server front end records auth
    /// failures and the in-flight gauge here; the service itself records
    /// dockets, cache traffic and evictions.
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// The per-tenant quotas configured via
    /// [`DisputeServiceBuilder::tenant_quotas`].
    pub fn quotas(&self) -> &TenantQuotas {
        &self.quotas
    }

    /// The batch-inference kernel every resolution runs:
    /// [`Kernel::Auto`].
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
        let compiled = Arc::new(CompiledForest::compile(model));
        self.compile_count.fetch_add(1, Ordering::Relaxed);
        self.publish_model(
            &TenantId::anonymous(),
            model_id.into(),
            Arc::clone(&compiled),
            false,
            None,
        );
        compiled
    }

    /// Registers an already-compiled model (e.g. loaded from a persisted
    /// artefact) without paying another compilation.
    pub fn register_compiled(
        &self,
        model_id: impl Into<String>,
        compiled: CompiledForest,
    ) -> Arc<CompiledForest> {
        let compiled = Arc::new(compiled);
        self.publish_model(
            &TenantId::anonymous(),
            model_id.into(),
            Arc::clone(&compiled),
            false,
            None,
        );
        compiled
    }

    /// Registers a model from a persisted artefact: either a
    /// [`CompiledForest`] (as written by `save_model_artifacts` /
    /// `persist::save`) or a pointer-tree [`RandomForest`], which is then
    /// compiled once. File-backed models are *evictable* under the
    /// [`model_cache_bytes`](DisputeServiceBuilder::model_cache_bytes)
    /// budget: the artefact path is retained and the model is recompiled
    /// transparently on the next resolution after an eviction.
    pub fn register_from_file(
        &self,
        model_id: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> WatermarkResult<Arc<CompiledForest>> {
        self.register_file_inner(
            &TenantId::anonymous(),
            model_id.into(),
            path.as_ref().to_path_buf(),
            false,
        )
    }

    fn register_file_inner(
        &self,
        tenant: &TenantId,
        model_id: String,
        path: PathBuf,
        pinned: bool,
    ) -> WatermarkResult<Arc<CompiledForest>> {
        let compiled = self.load_artefact(&path)?;
        self.publish_model(tenant, model_id, Arc::clone(&compiled), pinned, Some(path));
        Ok(compiled)
    }

    /// Decodes (and, for pointer-tree artefacts, compiles) a persisted
    /// model without touching the registry.
    fn load_artefact(&self, path: &Path) -> WatermarkResult<Arc<CompiledForest>> {
        let bytes = std::fs::read(path).map_err(|err| WatermarkError::Io {
            path: path.display().to_string(),
            message: err.to_string(),
        })?;
        match persist::from_bytes::<CompiledForest>(&bytes) {
            Ok(compiled) => Ok(Arc::new(compiled)),
            // Container-level failures (wrong magic, future format version)
            // would hit any payload type: propagate.
            Err(
                err @ (WatermarkError::UnrecognizedFormat { .. }
                | WatermarkError::UnsupportedFormatVersion { .. }),
            ) => Err(err),
            // The container decoded but the payload is not a compiled
            // forest — fall back to a pointer-tree model and compile it. If
            // that fails too, the file is neither kind of model artefact:
            // report the first decode error, which names the corruption
            // precisely rather than a misleading shape mismatch.
            Err(first) => match persist::from_bytes::<RandomForest>(&bytes) {
                Ok(model) => {
                    let compiled = Arc::new(CompiledForest::compile(&model));
                    self.compile_count.fetch_add(1, Ordering::Relaxed);
                    Ok(compiled)
                }
                Err(_) => Err(first),
            },
        }
    }

    /// Inserts (or replaces) a registry entry and enforces the model-cache
    /// byte budget, evicting least-recently-used file-backed models.
    fn publish_model(
        &self,
        tenant: &TenantId,
        model_id: String,
        compiled: Arc<CompiledForest>,
        pinned: bool,
        source: Option<PathBuf>,
    ) {
        let key = (tenant.clone(), model_id);
        let footprint = compiled.resident_bytes();
        let mut reg = self.lock_registry();
        if let Some(old) = reg.map.remove(&key) {
            if old.compiled.is_some() {
                reg.resident_bytes = reg.resident_bytes.saturating_sub(old.footprint);
            }
            reg.order.retain(|k| k != &key);
        }
        let entry = ModelEntry {
            compiled: Some(compiled),
            footprint,
            pinned,
            source,
        };
        if entry.evictable() {
            reg.order.push_back(key.clone());
        }
        reg.resident_bytes += footprint;
        reg.map.insert(key.clone(), entry);
        self.enforce_model_budget(&mut reg, &key);
    }

    /// Evicts least-recently-used evictable models until the resident set
    /// fits the budget. The entry just published (`keep`) is exempt, so a
    /// budget smaller than one model degrades to cache-nothing rather than
    /// evicting what the caller is about to use.
    fn enforce_model_budget(&self, reg: &mut ModelRegistry, keep: &ModelKey) {
        if self.model_cache_bytes == 0 {
            return;
        }
        while reg.resident_bytes > self.model_cache_bytes {
            let Some(position) = reg.order.iter().position(|key| key != keep) else {
                break;
            };
            let key = reg.order.remove(position).expect("position is in bounds");
            let Some(entry) = reg.map.get_mut(&key) else {
                continue;
            };
            if let Some(evicted) = entry.compiled.take() {
                reg.resident_bytes = reg.resident_bytes.saturating_sub(entry.footprint);
                self.ledger.record_evictions(&key.0, 1);
                // The digest index must not keep the evicted form resident:
                // prune this tenant's entries sharing it. A later
                // RegisterByDigest misses and falls back to a full upload.
                self.model_digests
                    .write()
                    .expect("model digest index lock is never poisoned")
                    .retain(|(owner, _), compiled| {
                        !(owner == &key.0 && Arc::ptr_eq(compiled, &evicted))
                    });
            }
        }
    }

    /// The compiled model registered under `model_id` in the anonymous
    /// namespace, if any; an evicted file-backed model is transparently
    /// recompiled (errors from the reload surface as `None` here — use
    /// [`model_as`](Self::model_as) for the typed error).
    pub fn model(&self, model_id: &str) -> Option<Arc<CompiledForest>> {
        self.model_as(&TenantId::anonymous(), model_id).ok()
    }

    /// The compiled model registered under `model_id` in `tenant`'s
    /// namespace. An evicted entry is recompiled from its persisted
    /// artefact before returning (counted as a cache miss in the ledger);
    /// an id held by another tenant is [`WatermarkError::Forbidden`].
    pub fn model_as(&self, tenant: &TenantId, model_id: &str) -> WatermarkResult<Arc<CompiledForest>> {
        let key = (tenant.clone(), model_id.to_string());
        let source = {
            let mut reg = self.lock_registry();
            let resident = match reg.map.get(&key) {
                Some(entry) => match &entry.compiled {
                    Some(compiled) => Some((Arc::clone(compiled), entry.evictable())),
                    None => None,
                },
                None => return Err(reg.missing(tenant, model_id)),
            };
            if let Some((compiled, evictable)) = resident {
                if evictable {
                    reg.touch(&key);
                }
                return Ok(compiled);
            }
            reg.map
                .get(&key)
                .and_then(|entry| entry.source.clone())
                .expect("evicted entries always retain their artefact path")
        };
        // Transparent recompile-on-miss, outside the lock so resolutions
        // against other models proceed. Two racing misses may both reload;
        // the second publish wins and the budget holds either way.
        self.ledger.record_cache_misses(tenant, 1);
        let compiled = self.load_artefact(&source)?;
        self.publish_model(
            tenant,
            model_id.to_string(),
            Arc::clone(&compiled),
            false,
            Some(source),
        );
        Ok(compiled)
    }

    /// Checks the models-registered quota for registering `model_id`
    /// (re-registering an existing id never counts as growth).
    fn check_model_quota(&self, tenant: &TenantId, model_id: &str) -> WatermarkResult<()> {
        let reg = self.lock_registry();
        let additional = usize::from(!reg.map.contains_key(&(tenant.clone(), model_id.to_string())));
        self.quotas.check_models(reg.tenant_models(tenant) + additional)
    }

    /// Registers a pointer-tree model like [`register`](Self::register) and
    /// additionally indexes the compiled form under the model's content
    /// digest, so a later [`register_by_digest`](Self::register_by_digest)
    /// can reuse it without re-uploading the model. The returned digest is
    /// echoed to the client.
    pub fn register_digested(
        &self,
        model_id: impl Into<String>,
        model: &RandomForest,
    ) -> (PayloadDigest, Arc<CompiledForest>) {
        self.register_digested_inner(&TenantId::anonymous(), model_id.into(), model)
    }

    /// [`register_digested`](Self::register_digested) in `tenant`'s
    /// namespace, with the models-registered quota checked before
    /// compiling. This is the registration path the wire front-end drives.
    pub fn register_digested_as(
        &self,
        tenant: &TenantId,
        model_id: impl Into<String>,
        model: &RandomForest,
    ) -> WatermarkResult<(PayloadDigest, Arc<CompiledForest>)> {
        let model_id = model_id.into();
        self.check_model_quota(tenant, &model_id)?;
        Ok(self.register_digested_inner(tenant, model_id, model))
    }

    fn register_digested_inner(
        &self,
        tenant: &TenantId,
        model_id: String,
        model: &RandomForest,
    ) -> (PayloadDigest, Arc<CompiledForest>) {
        let digest = PayloadDigest::of_model(model);
        let compiled = Arc::new(CompiledForest::compile(model));
        self.compile_count.fetch_add(1, Ordering::Relaxed);
        self.publish_model(tenant, model_id, Arc::clone(&compiled), false, None);
        self.model_digests
            .write()
            .expect("model digest index lock is never poisoned")
            .insert((tenant.clone(), digest), Arc::clone(&compiled));
        (digest, compiled)
    }

    /// Registers an already-uploaded model under a (possibly new) id by
    /// content digest alone; `None` if no model with that digest is
    /// indexed (the caller should fall back to a full upload).
    pub fn register_by_digest(
        &self,
        model_id: impl Into<String>,
        digest: PayloadDigest,
    ) -> Option<Arc<CompiledForest>> {
        self.register_by_digest_inner(&TenantId::anonymous(), model_id.into(), digest)
    }

    /// [`register_by_digest`](Self::register_by_digest) in `tenant`'s
    /// namespace: only digests this tenant uploaded can match, and the
    /// models-registered quota is checked first.
    pub fn register_by_digest_as(
        &self,
        tenant: &TenantId,
        model_id: impl Into<String>,
        digest: PayloadDigest,
    ) -> WatermarkResult<Option<Arc<CompiledForest>>> {
        let model_id = model_id.into();
        self.check_model_quota(tenant, &model_id)?;
        Ok(self.register_by_digest_inner(tenant, model_id, digest))
    }

    fn register_by_digest_inner(
        &self,
        tenant: &TenantId,
        model_id: String,
        digest: PayloadDigest,
    ) -> Option<Arc<CompiledForest>> {
        let compiled = self
            .model_digests
            .read()
            .expect("model digest index lock is never poisoned")
            .get(&(tenant.clone(), digest))
            .cloned()?;
        self.publish_model(tenant, model_id, Arc::clone(&compiled), false, None);
        Some(compiled)
    }

    /// Removes a model from the anonymous namespace; returns the compiled
    /// form if the id was registered *and resident*. In-flight resolutions
    /// holding the `Arc` finish unaffected. Digest-index entries are
    /// pruned once no registry id shares the removed compiled form, so a
    /// deregistered model cannot be resurrected by digest — and the
    /// model's cached claims are dropped (see [`ClaimCache::drop_model`]).
    pub fn deregister(&self, model_id: &str) -> Option<Arc<CompiledForest>> {
        match self.deregister_inner(&TenantId::anonymous(), model_id) {
            Ok((_, removed)) => removed,
            Err(_) => None,
        }
    }

    /// [`deregister`](Self::deregister) in `tenant`'s namespace. Returns
    /// whether the id existed; attempting to deregister an id held by
    /// another tenant is [`WatermarkError::Forbidden`].
    pub fn deregister_as(&self, tenant: &TenantId, model_id: &str) -> WatermarkResult<bool> {
        self.deregister_inner(tenant, model_id).map(|(existed, _)| existed)
    }

    fn deregister_inner(
        &self,
        tenant: &TenantId,
        model_id: &str,
    ) -> WatermarkResult<(bool, Option<Arc<CompiledForest>>)> {
        let key = (tenant.clone(), model_id.to_string());
        let removed = {
            let mut reg = self.lock_registry();
            match reg.map.remove(&key) {
                Some(entry) => {
                    reg.order.retain(|k| k != &key);
                    if entry.compiled.is_some() {
                        reg.resident_bytes = reg.resident_bytes.saturating_sub(entry.footprint);
                    }
                    entry.compiled
                }
                None => {
                    let missing = reg.missing(tenant, model_id);
                    return match missing {
                        WatermarkError::UnknownModel { .. } => Ok((false, None)),
                        forbidden => Err(forbidden),
                    };
                }
            }
        };
        if let Some(removed_arc) = &removed {
            let still_registered = self.lock_registry().map.iter().any(|((owner, _), entry)| {
                owner == tenant
                    && entry
                        .compiled
                        .as_ref()
                        .is_some_and(|compiled| Arc::ptr_eq(compiled, removed_arc))
            });
            if !still_registered {
                self.model_digests
                    .write()
                    .expect("model digest index lock is never poisoned")
                    .retain(|(owner, _), compiled| {
                        !(owner == tenant && Arc::ptr_eq(compiled, removed_arc))
                    });
            }
        }
        // Evidence adjudicated only against the retired model must not be
        // silently replayable against a successor under a stale digest.
        self.claims.drop_model(tenant, model_id);
        Ok((true, removed))
    }

    /// Ids of every model in the anonymous namespace, sorted
    /// lexicographically. The registry is a hash map, whose iteration
    /// order varies across runs (and Rust releases); sorting here makes
    /// registry listings — and the wire protocol's `ListModels` response
    /// built on top — deterministic.
    pub fn model_ids(&self) -> Vec<String> {
        self.model_ids_for(&TenantId::anonymous())
    }

    /// Ids of every model in `tenant`'s namespace, sorted. A tenant can
    /// never list another namespace — there is no cross-tenant variant.
    pub fn model_ids_for(&self, tenant: &TenantId) -> Vec<String> {
        let reg = self.lock_registry();
        let mut ids: Vec<String> = reg
            .map
            .keys()
            .filter(|(owner, _)| owner == tenant)
            .map(|(_, id)| id.clone())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The docket-size cap configured via
    /// [`DisputeServiceBuilder::max_docket`], if any.
    pub fn max_docket(&self) -> Option<usize> {
        self.max_docket
    }

    /// The model-cache byte budget (`0` = unlimited).
    pub fn model_cache_bytes(&self) -> usize {
        self.model_cache_bytes
    }

    /// Estimated bytes of all resident compiled forests, across tenants.
    pub fn resident_model_bytes(&self) -> usize {
        self.lock_registry().resident_bytes
    }

    /// Number of registered models across every namespace (evicted
    /// file-backed models still count — they are registered, just not
    /// resident).
    pub fn len(&self) -> usize {
        self.lock_registry().map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of [`CompiledForest::compile`] calls this service has
    /// performed — the compile-once guarantee made observable: resolving
    /// any number of claims never increments it (evicting a model under
    /// the byte budget and resolving against it again does, once per
    /// reload of a pointer-tree artefact).
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
            evictions: counters.evictions,
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
        tenants.extend(self.lock_registry().map.keys().map(|(owner, _)| owner.clone()));
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
    /// against another tenant's model is [`WatermarkError::Forbidden`],
    /// and an evicted model is transparently recompiled first.
    pub fn resolve_as(
        &self,
        tenant: &TenantId,
        model_id: &str,
        claim: &OwnershipClaim,
    ) -> WatermarkResult<VerificationReport> {
        let compiled = self.model_as(tenant, model_id)?;
        let oracle = ShardedOracle {
            compiled: &compiled,
            shard_rows: self.batch_shard_rows,
            kernel: self.kernel(),
        };
        Ok(verify_ownership(&oracle, claim))
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

    /// [`resolve_many`](Self::resolve_many) with the configured
    /// [`max_docket`](DisputeServiceBuilder::max_docket) cap enforced:
    /// oversized dockets are refused whole, before any resolution work.
    /// This is the entry point the network front-end drives.
    pub fn resolve_docket(
        &self,
        disputes: &[Dispute],
    ) -> WatermarkResult<Vec<WatermarkResult<VerificationReport>>> {
        if let Some(max) = self.max_docket {
            if disputes.len() > max {
                return Err(WatermarkError::DocketTooLarge {
                    size: disputes.len(),
                    max,
                });
            }
        }
        Ok(self.resolve_many(disputes))
    }

    /// Resolves a content-addressed docket with deduplication: disputes
    /// sharing a `(model_id, digest)` pair are resolved once and the
    /// verdict is scattered back to every duplicate position. Resolution
    /// is deterministic in the claim content (the disguise permutation is
    /// seeded from the claim itself), so the scattered verdicts are
    /// bit-identical to resolving each dispute independently — this is the
    /// wire path's throughput win, not a semantic change.
    ///
    /// The [`max_docket`](DisputeServiceBuilder::max_docket) cap counts
    /// the *pre-deduplication* docket size, mirroring
    /// [`resolve_docket`](Self::resolve_docket).
    pub fn resolve_docket_shared(
        &self,
        disputes: &[SharedDispute],
    ) -> WatermarkResult<Vec<WatermarkResult<VerificationReport>>> {
        if let Some(max) = self.max_docket {
            if disputes.len() > max {
                return Err(WatermarkError::DocketTooLarge {
                    size: disputes.len(),
                    max,
                });
            }
        }
        Ok(self.resolve_shared_inner(&TenantId::anonymous(), disputes))
    }

    /// [`resolve_docket_shared`](Self::resolve_docket_shared) in
    /// `tenant`'s namespace — the entry point the wire front-end drives.
    /// Enforces the tighter of the global docket cap and the tenant's
    /// docket quota (both pre-dedup, both before any resolution work),
    /// records the docket in the ledger, and associates every referenced
    /// claim with its model so deregistration can drop them.
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
        Ok(self.resolve_shared_inner(tenant, disputes))
    }

    /// Checks a docket size against the global cap and the per-tenant
    /// docket quota (the smaller of the two wins), without resolving
    /// anything. Quotas are uniform across tenants, so no tenant argument
    /// is needed.
    pub fn check_docket_size(&self, size: usize) -> WatermarkResult<()> {
        if let Some(max) = self.max_docket {
            if size > max {
                return Err(WatermarkError::DocketTooLarge { size, max });
            }
        }
        self.quotas.check_docket(size)
    }

    fn resolve_shared_inner(
        &self,
        tenant: &TenantId,
        disputes: &[SharedDispute],
    ) -> Vec<WatermarkResult<VerificationReport>> {
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
        slots.into_iter().map(|slot| resolved[slot].clone()).collect()
    }
}

/// Oracle adapter sharding each verification batch across worker threads,
/// through the service's inference kernel.
struct ShardedOracle<'a> {
    compiled: &'a CompiledForest,
    shard_rows: usize,
    kernel: Kernel,
}

impl ModelOracle for ShardedOracle<'_> {
    fn num_trees(&self) -> usize {
        self.compiled.num_trees()
    }

    fn query(&self, instance: &[f64]) -> Vec<Label> {
        self.compiled.predict_all(instance)
    }

    fn query_batch(&self, batch: &Dataset) -> Vec<Vec<Label>> {
        self.compiled
            .par_predict_all_batch(batch.features(), self.shard_rows, self.kernel)
            .iter()
            .map(<[Label]>::to_vec)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WatermarkConfig;
    use crate::signature::Signature;
    use crate::watermark::Watermarker;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::SyntheticSpec;

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
        assert!(service.is_empty());
        service.register("a", &outcome.model);
        let compiled = CompiledForest::compile(&outcome.model);
        service.register_compiled("b", compiled);
        assert_eq!(service.len(), 2);
        let mut ids = service.model_ids();
        ids.sort();
        assert_eq!(ids, ["a", "b"]);
        // Only the pointer-tree registration paid a compile.
        assert_eq!(service.compile_count(), 1);
        assert!(service.deregister("a").is_some());
        assert!(service.model("a").is_none());
        assert!(service.model("b").is_some());
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

    #[test]
    fn sharded_batches_match_for_every_shard_size() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let reference = verify_ownership(&outcome.model, &claim);
        for shard_rows in [1, 7, 64, DEFAULT_BATCH_SHARD_ROWS, usize::MAX] {
            let service = DisputeService::builder().batch_shard_rows(shard_rows).build().unwrap();
            service.register("m", &outcome.model);
            assert_eq!(
                service.resolve("m", &claim).unwrap(),
                reference,
                "shard_rows={shard_rows}"
            );
        }
    }

    #[test]
    fn every_kernel_resolves_to_identical_reports() {
        // Kernel choice is pure throughput: reports (scores included)
        // must be bit-identical to the one-shot reference under every
        // kernel, and the service runs Auto.
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let reference = verify_ownership(&outcome.model, &claim);
        let service = DisputeService::builder().build().unwrap();
        assert_eq!(service.kernel(), Kernel::Auto);
        let compiled = service.register("m", &outcome.model);
        assert_eq!(service.resolve("m", &claim).unwrap(), reference);
        for kernel in Kernel::ALL {
            let oracle = ShardedOracle {
                compiled: &compiled,
                shard_rows: 7,
                kernel,
            };
            assert_eq!(verify_ownership(&oracle, &claim), reference, "kernel {kernel}");
        }
    }

    #[test]
    fn register_from_file_accepts_compiled_and_pointer_artefacts() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let dir = std::env::temp_dir().join(format!("wdte-service-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let compiled_path = dir.join("model.compiled.json");
        let pointer_path = dir.join("model.wdte");
        persist::save(
            &compiled_path,
            &CompiledForest::compile(&outcome.model),
            persist::Format::Json,
        )
        .unwrap();
        persist::save(&pointer_path, &outcome.model, persist::Format::Binary).unwrap();

        let service = DisputeService::builder().build().unwrap();
        service.register_from_file("compiled", &compiled_path).unwrap();
        service.register_from_file("pointer", &pointer_path).unwrap();
        let from_compiled = service.resolve("compiled", &claim).unwrap();
        let from_pointer = service.resolve("pointer", &claim).unwrap();
        assert_eq!(from_compiled, from_pointer);
        assert!(from_compiled.verified);
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
        assert_eq!(service.model_ids(), ["alpha", "beta", "mid", "zeta"]);
    }

    #[test]
    fn builder_warm_starts_from_a_manifest_directory() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let dir = std::env::temp_dir().join(format!("wdte-warmstart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        persist::save(dir.join("a.model.wdte"), &outcome.model, persist::Format::Binary).unwrap();
        persist::save(
            dir.join("b.compiled.json"),
            &CompiledForest::compile(&outcome.model),
            persist::Format::Json,
        )
        .unwrap();
        let manifest = ModelManifest {
            models: vec![
                ManifestEntry {
                    model_id: "deployment-a".into(),
                    file: "a.model.wdte".into(),
                },
                ManifestEntry {
                    model_id: "deployment-b".into(),
                    file: "b.compiled.json".into(),
                },
            ],
        };
        manifest.save_dir(&dir).unwrap();
        assert_eq!(ModelManifest::load_dir(&dir).unwrap(), manifest);

        let service = DisputeService::builder().warm_start_dir(&dir).build().unwrap();
        assert_eq!(service.model_ids(), ["deployment-a", "deployment-b"]);
        // Only the pointer-tree artefact needed a compile at boot.
        assert_eq!(service.compile_count(), 1);
        assert!(service.resolve("deployment-a", &claim).unwrap().verified);
        assert!(service.resolve("deployment-b", &claim).unwrap().verified);

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
    fn max_docket_refuses_oversized_dockets_whole() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().max_docket(2).build().unwrap();
        service.register("m", &outcome.model);
        assert_eq!(service.max_docket(), Some(2));
        let small: Vec<Dispute> = (0..2).map(|_| Dispute::new("m", claim.clone())).collect();
        let verdicts = service.resolve_docket(&small).unwrap();
        assert!(verdicts.iter().all(|v| v.as_ref().unwrap().verified));
        let big: Vec<Dispute> = (0..3).map(|_| Dispute::new("m", claim.clone())).collect();
        match service.resolve_docket(&big).unwrap_err() {
            WatermarkError::DocketTooLarge { size, max } => {
                assert_eq!((size, max), (3, 2));
            }
            other => panic!("expected DocketTooLarge, got {other:?}"),
        }
        // `resolve_many` stays uncapped for in-process callers.
        assert_eq!(service.resolve_many(&big).len(), 3);
        // 0 means unlimited (the 0-disables convention of serve_judge).
        let uncapped = DisputeService::builder().max_docket(0).build().unwrap();
        assert_eq!(uncapped.max_docket(), None);
    }

    /// The builder with explicit options resolves identically to the
    /// all-defaults service: shard size is a throughput knob, never a
    /// behaviour knob.
    #[test]
    fn builder_shard_size_does_not_change_behaviour() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let via_default = DisputeService::default();
        let via_shards = DisputeService::builder().batch_shard_rows(7).build().unwrap();
        for service in [&via_default, &via_shards] {
            service.register("m", &outcome.model);
            assert!(service.resolve("m", &claim).unwrap().verified);
            assert_eq!(service.max_docket(), None);
        }
        assert_eq!(
            via_default.resolve("m", &claim).unwrap(),
            via_shards.resolve("m", &claim).unwrap()
        );
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
        let (digest_a, body_a) = cache.insert(big.clone());
        let (digest_b, body_b) = cache.insert(big.clone());
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
        let (big_digest, _) = cache.insert(big.clone());
        let (small_digest, _) = cache.insert(small.clone());
        assert_eq!(cache.len(), 2, "both claims fit the budget exactly");
        // Touch the big claim so the small one is now least recently used,
        // then overflow the budget: the small claim is evicted.
        assert!(cache.get(&big_digest).is_some());
        let third = OwnershipClaim::new(
            Signature::from_bits(outcome.signature.bits().iter().map(|&b| !b).collect()),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        let (third_digest, _) = cache.insert(third);
        assert!(cache.get(&small_digest).is_none(), "LRU entry evicted");
        assert!(cache.get(&big_digest).is_some());
        assert!(cache.get(&third_digest).is_some());
        assert!(cache.bytes() <= budget);
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
                let (digest, claim) = service.claims().insert(dispute.claim.clone());
                SharedDispute::new(dispute.model_id.clone(), digest, claim)
            })
            .collect();
        let reference = service.resolve_many(&disputes);
        let deduped = service.resolve_docket_shared(&shared).unwrap();
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
            capped.resolve_docket_shared(&oversized).unwrap_err(),
            WatermarkError::DocketTooLarge { size: 4, max: 3 }
        ));
    }

    #[test]
    fn register_by_digest_reuses_the_compiled_form_until_deregistered() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let service = DisputeService::builder().build().unwrap();
        let (digest, compiled) = service.register_digested("a", &outcome.model);
        assert_eq!(digest, PayloadDigest::of_model(&outcome.model));
        // Digest-only registration under a second id: no recompilation,
        // same compiled form, resolvable.
        let reused = service.register_by_digest("b", digest).unwrap();
        assert!(Arc::ptr_eq(&compiled, &reused));
        assert_eq!(service.compile_count(), 1);
        assert!(service.resolve("b", &claim).unwrap().verified);
        // Unknown digests miss.
        assert!(service.register_by_digest("c", PayloadDigest { hi: 1, lo: 2 }).is_none());
        // The index survives while any id still serves the compiled form …
        service.deregister("a");
        assert!(service.register_by_digest("a2", digest).is_some());
        // … and is pruned once the last id is gone.
        service.deregister("a2");
        service.deregister("b");
        assert!(
            service.register_by_digest("d", digest).is_none(),
            "a fully deregistered model must not be resurrectable by digest"
        );
    }

    fn tenant(name: &str) -> TenantId {
        TenantId::new(name).unwrap()
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
            max_docket: 2,
            max_claim_bytes: claim_footprint(&claim) + 10,
            max_in_flight: 0,
        };
        let service = DisputeService::builder().tenant_quotas(quotas).build().unwrap();
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

        // Docket axis: the per-tenant quota applies even with no global cap.
        let (digest, shared) =
            service.claims().insert_for(&acme, service.quotas(), claim.clone()).unwrap();
        let disputes: Vec<SharedDispute> =
            (0..3).map(|_| SharedDispute::new("one", digest, Arc::clone(&shared))).collect();
        assert!(matches!(
            service.resolve_docket_shared_as(&acme, &disputes).unwrap_err(),
            WatermarkError::QuotaExceeded { ref resource, .. } if resource == "docket"
        ));
        let verdicts = service.resolve_docket_shared_as(&acme, &disputes[..2]).unwrap();
        assert!(verdicts.iter().all(|v| v.as_ref().unwrap().verified));

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

    #[test]
    fn model_cache_evicts_lru_and_recompiles_transparently() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let reference = verify_ownership(&outcome.model, &claim);
        let dir = std::env::temp_dir().join(format!("wdte-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path_a = dir.join("a.wdte");
        let path_b = dir.join("b.wdte");
        persist::save(&path_a, &outcome.model, persist::Format::Binary).unwrap();
        persist::save(&path_b, &outcome.model, persist::Format::Binary).unwrap();
        // A budget that fits one compiled forest but not two.
        let budget = CompiledForest::compile(&outcome.model).resident_bytes() * 3 / 2;
        let service = DisputeService::builder().model_cache_bytes(budget).build().unwrap();
        let anon = TenantId::anonymous();

        service.register_from_file("a", &path_a).unwrap();
        service.register_from_file("b", &path_b).unwrap();
        assert_eq!(service.len(), 2, "an evicted model stays registered");
        assert_eq!(service.model_ids(), ["a", "b"]);
        assert!(service.resident_model_bytes() <= budget);
        assert_eq!(
            service.ledger().counters(&anon).evictions,
            1,
            "registering b evicted a"
        );

        // Resolving against the evicted model transparently reloads and
        // recompiles it — bit-identical verdict, one recorded cache miss —
        // and LRU pressure then pushes b out.
        assert_eq!(service.resolve("a", &claim).unwrap(), reference);
        assert_eq!(service.ledger().counters(&anon).cache_misses, 1);
        assert_eq!(service.ledger().counters(&anon).evictions, 2);
        assert!(service.resident_model_bytes() <= budget);
        assert_eq!(service.resolve("b", &claim).unwrap(), reference);
        assert_eq!(service.ledger().counters(&anon).cache_misses, 2);

        // A wire-registered model has no artefact to fall back to: it is
        // never evicted, whatever the budget says.
        service.register("wire-only", &outcome.model);
        assert!(service.resolve("wire-only", &claim).unwrap().verified);
        assert!(service.resolve("wire-only", &claim).unwrap().verified);
        assert_eq!(
            service.ledger().counters(&anon).cache_misses,
            2,
            "resident models never miss"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_models_are_pinned_and_never_evicted() {
        let (test, outcome) = embedded();
        let claim = claim_for(&outcome, &test);
        let dir = std::env::temp_dir().join(format!("wdte-pinned-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        persist::save(dir.join("m.wdte"), &outcome.model, persist::Format::Binary).unwrap();
        ModelManifest {
            models: vec![ManifestEntry {
                model_id: "warm".into(),
                file: "m.wdte".into(),
            }],
        }
        .save_dir(&dir)
        .unwrap();
        // A budget far smaller than the model: a pinned entry still boots
        // resident and stays resident.
        let service = DisputeService::builder()
            .warm_start_dir(&dir)
            .model_cache_bytes(1)
            .build()
            .unwrap();
        assert_eq!(service.compile_count(), 1);
        assert!(service.resolve("warm", &claim).unwrap().verified);
        assert!(service.resolve("warm", &claim).unwrap().verified);
        assert_eq!(service.compile_count(), 1, "pinned models never leave residency");
        assert_eq!(service.ledger().counters(&TenantId::anonymous()).evictions, 0);
        let _ = std::fs::remove_dir_all(&dir);
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
        cache.insert(claim.clone());
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
}

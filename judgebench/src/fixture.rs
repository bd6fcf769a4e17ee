//! Generated inputs: watermarked fixture models and the claims and dockets
//! the load generator sends. Everything is a pure function of the workload
//! seed, so a docket can be regenerated after the run to check its
//! verdicts against the in-process reference.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use wdte_core::{
    watermark_holds, Dispute, DisputeRef, OwnershipClaim, PayloadDigest, Signature, VerificationReport,
    WatermarkConfig, WatermarkOutcome, Watermarker,
};
use wdte_data::{Dataset, SyntheticSpec};

use crate::stats::Fnv;

/// Claims per docket of distinct traffic.
pub const DOCKET_CLAIMS: usize = 16;

/// Claims per docket of repeat traffic: the shape of the older
/// `open_loop_wire_load` row (a 64-claim docket over a few distinct
/// claims), and enough per-frame work that the rate repeats from run to
/// run on a shared two-core host.
pub const REPEAT_DOCKET_CLAIMS: usize = 64;

/// Held-out rows a fixture keeps as decoys, which bounds claim bodies at
/// ≈25 KB for the tabular fixtures.
pub const MAX_DECOYS: usize = 96;

/// Warm claims per tenant in the repeat workloads.
pub const REPEAT_POOL: usize = 8;

/// Mixes the workload seed with stream coordinates into one RNG seed.
pub fn derive_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut hash = Fnv::new();
    hash.eat(seed);
    for &part in parts {
        hash.eat(part);
    }
    hash.finish()
}

/// RNG of one stream of the workload.
pub fn rng_for(seed: u64, parts: &[u64]) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(seed, parts))
}

/// A watermarked model and the owner's evidence, under the registry id
/// the wire workloads address it by.
pub struct ModelFixture {
    pub id: String,
    pub outcome: WatermarkOutcome,
    /// The training split (kept for the training-layer replays).
    pub train: Dataset,
    /// Held-out rows: claims draw their disguise (decoy) rows from here.
    pub decoys: Dataset,
}

/// One training input of the owner's path: a dataset recipe and the
/// embedding configuration.
#[derive(Clone)]
pub struct EmbedInput {
    pub name: &'static str,
    pub spec: SyntheticSpec,
    pub num_trees: usize,
}

impl EmbedInput {
    /// The dispute workloads' fixture: small and fast to embed, with
    /// ≈25 KB claim bodies.
    pub fn dispute_fixture() -> Self {
        Self {
            name: "breast-cancer-x0.8",
            spec: SyntheticSpec::breast_cancer_like().scaled(0.8),
            num_trees: 16,
        }
    }

    /// The owner's-path inputs, sized at roughly 0.2–0.5 s per embedding
    /// on one core.
    pub fn owner_inputs() -> Vec<Self> {
        vec![
            Self {
                name: "breast-cancer-x6",
                spec: SyntheticSpec::breast_cancer_like().scaled(6.0),
                num_trees: 32,
            },
            Self {
                name: "ijcnn1-x0.25",
                spec: SyntheticSpec::ijcnn1_like().scaled(0.25),
                num_trees: 32,
            },
        ]
    }

    pub fn config(&self) -> WatermarkConfig {
        WatermarkConfig {
            num_trees: self.num_trees,
            ..WatermarkConfig::fast()
        }
    }

    /// Generates the dataset and splits it into training rows and at
    /// most `MAX_DECOYS` held-out decoy rows.
    pub fn generate(&self, seed: u64) -> (Dataset, Dataset) {
        let mut rng = rng_for(seed, &[0xDA7A]);
        let dataset = self.spec.generate(&mut rng);
        let (train, held_out) = dataset.split_stratified(0.8, &mut rng);
        let kept: Vec<usize> = (0..held_out.len().min(MAX_DECOYS)).collect();
        let decoys = held_out.select(&kept).expect("indices are in range");
        (train, decoys)
    }

    /// The owner signature for this input.
    pub fn signature(&self, seed: u64) -> Signature {
        Signature::random(self.num_trees, 0.5, &mut rng_for(seed, &[0x5169]))
    }

    /// The embedding RNG for attempt `attempt` of this input.
    pub fn embed_rng(&self, seed: u64, attempt: u64) -> SmallRng {
        rng_for(seed, &[0xE3BED, attempt])
    }
}

/// Embeds `input` until the watermark holds on every trigger instance
/// (the first attempt almost always does).
pub fn embed_fixture(input: &EmbedInput, seed: u64, id: String) -> Result<ModelFixture, String> {
    let (train, decoys) = input.generate(seed);
    let signature = input.signature(seed);
    let watermarker = Watermarker::new(input.config());
    for attempt in 0..8 {
        let outcome = watermarker
            .embed(&train, &signature, &mut input.embed_rng(seed, attempt))
            .map_err(|e| format!("embedding {}: {e}", input.name))?;
        if watermark_holds(&outcome.model, &outcome.signature, &outcome.trigger_set) {
            return Ok(ModelFixture {
                id,
                outcome,
                train,
                decoys,
            });
        }
    }
    Err(format!(
        "the watermark of {} never held in 8 attempts",
        input.name
    ))
}

/// A claim against `fixture` with a fresh disguise subset, so its content
/// digest is new. Genuine claims carry the owner's signature and trigger
/// set; forged ones a random signature over random held-out rows.
pub fn fresh_claim(fixture: &ModelFixture, genuine: bool, rng: &mut SmallRng) -> OwnershipClaim {
    let decoys = &fixture.decoys;
    let mut order: Vec<usize> = (0..decoys.len()).collect();
    order.shuffle(rng);
    let keep = decoys.len() - decoys.len() / 8;
    let disguise = decoys.select(&order[..keep]).expect("decoy indices are valid");
    if genuine {
        OwnershipClaim::new(
            fixture.outcome.signature.clone(),
            fixture.outcome.trigger_set.clone(),
            disguise,
        )
    } else {
        let trigger_rows = fixture.outcome.trigger_set.len().min(decoys.len());
        let forged = decoys.select(&order[keep - trigger_rows..keep]).expect("indices are valid");
        OwnershipClaim::new(
            Signature::random(fixture.outcome.signature.len(), 0.5, rng),
            forged,
            disguise,
        )
    }
}

/// One warm claim of a repeat pool.
pub struct PoolClaim {
    pub model_id: String,
    pub digest: PayloadDigest,
    pub claim: Arc<OwnershipClaim>,
    pub genuine: bool,
    /// The in-process reference verdict.
    pub expected: VerificationReport,
}

/// A tenant's warm pool: the claims and the digest-addressed bodies
/// `DisputeClient::send_docket_ref` inlines on first use.
pub struct Pool {
    pub claims: Vec<PoolClaim>,
    pub bodies: HashMap<PayloadDigest, Arc<OwnershipClaim>>,
}

/// How a workload builds its dockets.
pub enum Traffic {
    /// Every claim is new: bodies travel in full, nothing dedups.
    Distinct {
        /// Per connection, the models its dockets cycle through.
        models: Vec<Vec<Arc<ModelFixture>>>,
    },
    /// Claims drawn from a small warm pool per connection; after warm-up
    /// they travel as digests.
    Repeat { pools: Vec<Pool> },
}

/// A generated docket in the form the client sends it.
pub enum Docket {
    Full(Vec<Dispute>),
    Refs(Vec<DisputeRef>),
}

/// A generated docket plus what the correctness gate needs to know.
pub struct Generated {
    pub docket: Docket,
    /// Per claim: genuine (the verdict must be `verified`) or forged.
    pub genuine: Vec<bool>,
    /// Per claim, for repeat traffic: the pool index.
    pub picks: Vec<usize>,
}

impl Traffic {
    /// Docket `index` of connection `conn`.
    pub fn generate(&self, seed: u64, conn: usize, index: u64) -> Generated {
        let mut rng = rng_for(seed, &[0xD0C, conn as u64, index]);
        match self {
            Traffic::Distinct { models } => {
                let models = &models[conn];
                let mut disputes = Vec::with_capacity(DOCKET_CLAIMS);
                let mut genuine = Vec::with_capacity(DOCKET_CLAIMS);
                for j in 0..DOCKET_CLAIMS {
                    let model = &models[(index as usize * DOCKET_CLAIMS + j) % models.len()];
                    let is_genuine = rng.gen_bool(0.5);
                    disputes.push(Dispute::new(
                        model.id.clone(),
                        fresh_claim(model, is_genuine, &mut rng),
                    ));
                    genuine.push(is_genuine);
                }
                Generated {
                    docket: Docket::Full(disputes),
                    genuine,
                    picks: Vec::new(),
                }
            }
            Traffic::Repeat { pools } => {
                let pool = &pools[conn];
                let picks: Vec<usize> =
                    (0..REPEAT_DOCKET_CLAIMS).map(|_| rng.gen_range(0..pool.claims.len())).collect();
                let refs = picks
                    .iter()
                    .map(|&k| DisputeRef::new(pool.claims[k].model_id.clone(), pool.claims[k].digest))
                    .collect();
                Generated {
                    docket: Docket::Refs(refs),
                    genuine: picks.iter().map(|&k| pool.claims[k].genuine).collect(),
                    picks,
                }
            }
        }
    }
}

impl Generated {
    pub fn claims(&self) -> usize {
        self.genuine.len()
    }

    /// Distinct `(model, claim)` pairs: what the judge actually verifies
    /// after in-docket deduplication.
    pub fn distinct(&self) -> usize {
        match &self.docket {
            Docket::Full(disputes) => {
                let mut seen = std::collections::HashSet::new();
                for dispute in disputes {
                    seen.insert((dispute.model_id.as_str(), PayloadDigest::of_claim(&dispute.claim)));
                }
                seen.len()
            }
            Docket::Refs(refs) => {
                let mut seen = std::collections::HashSet::new();
                for r in refs {
                    seen.insert((r.model_id.as_str(), r.digest));
                }
                seen.len()
            }
        }
    }
}

/// Builds one tenant's warm pool: `REPEAT_POOL` claims, alternating
/// genuine and forged, claim `k` addressed to `models[k % models.len()]`.
/// Reference verdicts are filled in by the caller.
pub fn build_pool(
    seed: u64,
    conn: usize,
    models: &[Arc<ModelFixture>],
) -> Vec<(String, OwnershipClaim, bool)> {
    let mut rng = rng_for(seed, &[0x9001, conn as u64]);
    (0..REPEAT_POOL)
        .map(|k| {
            let model = &models[k % models.len()];
            let genuine = k % 2 == 0;
            (model.id.clone(), fresh_claim(model, genuine, &mut rng), genuine)
        })
        .collect()
}

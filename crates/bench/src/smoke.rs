//! The fixture and checks shared by the smoke binaries.
//!
//! `judge_smoke`, `fleet_smoke` and `scaling_smoke` all watermark one
//! 16-tree model, forge a rival claim against it and resolve a docket
//! that mixes the two. `judge_smoke` and `fleet_smoke` also serve that
//! docket, with a ghost model id and a malformed claim in it, and compare
//! every served verdict with in-process resolution.
//! This module holds those shared parts. Each binary keeps its own flag
//! parser and hands the parsed values in here.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use wdte_core::{
    Dispute, DisputeService, KeyRing, OwnershipClaim, Signature, TenantId, VerificationReport,
    WatermarkConfig, WatermarkResult, Watermarker,
};
use wdte_data::{Dataset, DenseMatrix, SyntheticSpec};
use wdte_server::{ClientAuth, DisputeClient};
use wdte_trees::RandomForest;

/// One verdict, served or in-process.
pub type Verdict = WatermarkResult<VerificationReport>;

/// A model id no judge ever registers. A docket built with `ghost` names
/// it once, so a smoke also covers typed-error transport.
pub const GHOST_MODEL: &str = "ghost-deployment";

/// A watermarked model with one genuine and one forged ownership claim.
/// The same seed gives the same fixture, bit for bit.
pub struct Fixture {
    /// The watermarked 16-tree forest.
    pub model: RandomForest,
    /// The owner's claim: the embedded signature and its trigger set.
    pub genuine: OwnershipClaim,
    /// A rival claim: another identity passing test rows off as triggers.
    pub forged: OwnershipClaim,
    /// The genuine claim with every row one column narrower than the
    /// model: a judge refuses it as a malformed claim.
    pub narrow: OwnershipClaim,
}

impl Fixture {
    /// The fixture `judge_smoke` and `fleet_smoke` serve.
    pub fn smoke() -> Result<Self, String> {
        Self::embed(0x5A5A, 0.6, None)
    }

    /// Embeds a 16-tree watermark on a breast-cancer-like dataset of
    /// `scale` drawn from `seed`, and builds both claims. Their test rows
    /// are the held-out split, or with `decoy_scale` a fresh draw of that
    /// scale: only trigger rows decide a verdict, so a large decoy draw
    /// makes each verification batch deployment-sized without making the
    /// embedding dearer.
    pub fn embed(seed: u64, scale: f64, decoy_scale: Option<f64>) -> Result<Self, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(scale).generate(&mut rng);
        let (train, test) = dataset.split_stratified(0.8, &mut rng);
        let signature = Signature::from_identity("alice@modelcorp.example", 16);
        let config = WatermarkConfig {
            num_trees: 16,
            ..WatermarkConfig::fast()
        };
        let outcome = Watermarker::new(config)
            .embed(&train, &signature, &mut rng)
            .map_err(|err| format!("embedding failed: {err}"))?;
        let decoys = match decoy_scale {
            Some(scale) => SyntheticSpec::breast_cancer_like().scaled(scale).generate(&mut rng),
            None => test.clone(),
        };
        let forged = OwnershipClaim::new(
            Signature::from_identity("mallory@pirate.example", 16),
            test.select(&(0..outcome.trigger_set.len()).collect::<Vec<_>>())
                .map_err(|err| format!("forged trigger selection failed: {err}"))?,
            decoys.clone(),
        );
        let genuine = OwnershipClaim::new(outcome.signature, outcome.trigger_set, decoys);
        let narrow = OwnershipClaim::new(
            genuine.signature.clone(),
            without_last_column(&genuine.trigger_set)?,
            without_last_column(&genuine.test_set)?,
        );
        Ok(Self {
            genuine,
            forged,
            narrow,
            model: outcome.model,
        })
    }

    /// `claims` disputes, genuine and forged in turn, naming the ids of
    /// `ids` in turn. With `ghost`, dispute `claims / 2` names
    /// [`GHOST_MODEL`] instead, and one more dispute carries the
    /// [`narrow`](Self::narrow) claim against the next id, so a smoke also
    /// covers typed-error transport for an unknown model and for a
    /// malformed claim.
    pub fn docket(&self, claims: usize, ids: &[String], ghost: bool) -> Vec<Dispute> {
        let mut docket: Vec<Dispute> = (0..claims)
            .map(|i| {
                let claim = if i % 2 == 0 { &self.genuine } else { &self.forged };
                let id = if ghost && i == claims / 2 {
                    GHOST_MODEL
                } else {
                    ids[i % ids.len()].as_str()
                };
                Dispute::new(id, claim.clone())
            })
            .collect();
        if ghost {
            docket.push(Dispute::new(
                ids[claims % ids.len()].as_str(),
                self.narrow.clone(),
            ));
        }
        docket
    }

    /// An in-process judge holding the model under every id of `ids`.
    pub fn service(&self, ids: &[String]) -> Result<DisputeService, String> {
        let service = DisputeService::builder().build().map_err(|err| err.to_string())?;
        for id in ids {
            service.register(id.clone(), &self.model);
        }
        Ok(service)
    }
}

/// `set` with the last column of every row dropped.
fn without_last_column(set: &Dataset) -> Result<Dataset, String> {
    let cols = set.num_features().saturating_sub(1);
    let values = set.features().iter_rows().flat_map(|row| &row[..cols]).copied().collect();
    DenseMatrix::from_vec(set.len(), cols, values)
        .and_then(|features| {
            Dataset::with_classes(
                set.name.clone(),
                features,
                set.labels().to_vec(),
                set.num_classes(),
            )
        })
        .map_err(|err| format!("narrowing a claim set failed: {err}"))
}

/// FNV-1a over the debug rendering of a verdict vector: a cheap,
/// process-independent fingerprint (float debug formatting is the
/// shortest round-trip form, so equal bits render equally).
pub fn fingerprint(verdicts: &[Verdict]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{verdicts:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The number of upheld claims, or an error unless the docket upheld
/// some claims but not all: a fixture that stops mixing genuine and
/// forged claims makes a smoke vacuous.
pub fn check_split(verdicts: &[Verdict]) -> Result<usize, String> {
    let upheld = verdicts
        .iter()
        .filter(|v| v.as_ref().is_ok_and(|report| report.verified))
        .count();
    if upheld == 0 || upheld >= verdicts.len() {
        return Err(format!(
            "implausible verdict split ({upheld}/{} upheld): the fixture must mix genuine and forged claims",
            verdicts.len()
        ));
    }
    Ok(upheld)
}

/// Client credentials from `--key-file PATH --tenant NAME`: both or
/// neither. Neither means an anonymous client.
pub fn client_auth(key_file: Option<&str>, tenant: Option<&str>) -> Result<Option<ClientAuth>, String> {
    let (path, name) = match (key_file, tenant) {
        (None, None) => return Ok(None),
        (Some(path), Some(name)) => (path, name),
        _ => return Err("--key-file and --tenant must be given together".to_string()),
    };
    let ring = KeyRing::load(Path::new(path))
        .map_err(|err| format!("could not load --key-file {path}: {err}"))?;
    let tenant = TenantId::new(name).map_err(|err| format!("--tenant: {err}"))?;
    let secret = ring
        .key(&tenant)
        .ok_or_else(|| format!("tenant `{tenant}` is not enrolled in {path}"))?;
    Ok(Some(ClientAuth::new(tenant, secret.to_vec())))
}

/// A client of `addr`, authenticated when `auth` is given.
pub fn connect(addr: &str, auth: Option<&ClientAuth>) -> Result<DisputeClient, String> {
    match auth {
        Some(auth) => DisputeClient::connect_authenticated(addr, auth.clone()),
        None => DisputeClient::connect(addr),
    }
    .map_err(|err| format!("could not reach {addr}: {err}"))
}

/// Serves `docket` through `client` and compares it with `reference`,
/// its in-process verdicts. In order:
/// - one docket resolved serially must match `reference` verdict by
///   verdict and uphold a plausible share of claims;
/// - three more copies pipelined and redeemed out of order must match the
///   serial verdicts (the repeats travel as digests);
/// - the far end must then report cached claims and at least four
///   dockets in its stats.
///
/// `hop` names what served the docket in messages ("wire", "fleet").
pub fn serve_and_compare(
    client: &mut DisputeClient,
    docket: &[Dispute],
    reference: &[Verdict],
    hop: &str,
) -> Result<(), String> {
    let served = client
        .resolve_docket(docket)
        .map_err(|err| format!("{hop} docket resolution failed: {err}"))?;
    if served.len() != reference.len() {
        return Err(format!(
            "{hop} docket has {} verdicts, expected {}",
            served.len(),
            reference.len()
        ));
    }
    for (i, (remote, local)) in served.iter().zip(reference).enumerate() {
        if remote != local {
            return Err(format!(
                "verdict {i} differs between {hop} and in-process:\n  {hop}: {remote:?}\n  local: {local:?}"
            ));
        }
    }
    let upheld = check_split(&served)?;
    println!(
        "resolved {} disputes ({hop}): {upheld} upheld, all bit-identical to in-process resolution",
        served.len()
    );

    let tickets = (0..3)
        .map(|_| client.send_docket(docket))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| format!("pipelined send failed: {err}"))?;
    for (i, ticket) in tickets.into_iter().rev().enumerate() {
        let pipelined = client
            .recv_docket(ticket)
            .map_err(|err| format!("pipelined recv failed: {err}"))?;
        if pipelined != served {
            return Err(format!(
                "pipelined docket {i} differs from the sequential verdicts"
            ));
        }
    }
    let cached = client.ping().map_err(|err| format!("ping failed: {err}"))?.claims_cached;
    if cached == 0 {
        return Err(format!("the {hop} cached no claim payloads after four dockets"));
    }
    println!("pipelined 3 dockets out of order, bit-identical again ({cached} claims cached)");
    // Accounting must have seen this client's traffic: its own row (or,
    // anonymously, some row) has at least the four dockets just resolved.
    let stats = client.stats().map_err(|err| format!("stats failed: {err}"))?;
    let dockets: u64 = stats.iter().map(|row| row.dockets).sum();
    if dockets < 4 {
        return Err(format!(
            "{hop} stats report {dockets} dockets across {} tenants after four resolutions",
            stats.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdte_core::WatermarkError;

    #[test]
    fn the_smoke_docket_mixes_verdicts_and_is_reproducible() {
        let ids = ["smoke-deployment".to_string()];
        let resolve = || {
            let fixture = Fixture::smoke().unwrap();
            let docket = fixture.docket(16, &ids, true);
            fixture.service(&ids).unwrap().resolve_many(&docket)
        };
        let verdicts = resolve();
        assert_eq!(verdicts.len(), 17);
        // Upheld count strictly between 0 and the docket size, and a report
        // that rejects a claim: the ghost's typed error alone would let an
        // all-upheld docket pass the split check.
        check_split(&verdicts).unwrap();
        assert!(verdicts.iter().any(|v| v.as_ref().is_ok_and(|report| !report.verified)));
        assert!(
            matches!(&verdicts[8], Err(WatermarkError::UnknownModel { model_id }) if model_id == GHOST_MODEL),
            "the ghost dispute resolved to {:?}",
            verdicts[8]
        );
        assert!(
            matches!(&verdicts[16], Err(WatermarkError::ProtocolViolation { detail }) if detail.contains("features")),
            "the narrow claim resolved to {:?}",
            verdicts[16]
        );
        assert_eq!(fingerprint(&verdicts), fingerprint(&resolve()));
    }

    /// A key file in the temp dir, removed on drop.
    struct KeyFile(std::path::PathBuf);

    impl KeyFile {
        fn new(tag: &str, text: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("wdte-smoke-{tag}-{}.keys", std::process::id()));
            std::fs::write(&path, text).unwrap();
            Self(path)
        }

        fn path(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for KeyFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn client_auth_needs_both_flags_or_neither() {
        assert!(client_auth(None, None).unwrap().is_none());
        for (key_file, tenant) in [(Some("judge.keys"), None), (None, Some("ci"))] {
            let err = client_auth(key_file, tenant).unwrap_err();
            assert!(err.contains("must be given together"), "{err}");
        }
    }

    #[test]
    fn client_auth_refuses_unreadable_files_and_unenrolled_tenants() {
        let keys = KeyFile::new("auth", "ci:smoke secret\n");
        let auth = client_auth(Some(keys.path()), Some("ci")).unwrap().unwrap();
        assert_eq!(auth.tenant().as_str(), "ci");

        let err = client_auth(Some(keys.path()), Some("acme")).unwrap_err();
        assert!(err.contains("tenant `acme` is not enrolled"), "{err}");

        let missing =
            std::env::temp_dir().join(format!("wdte-smoke-missing-{}.keys", std::process::id()));
        let err = client_auth(missing.to_str(), Some("ci")).unwrap_err();
        assert!(err.contains("could not load --key-file"), "{err}");
    }
}

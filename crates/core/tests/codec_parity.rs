//! Parity of the direct binary codec with the `Value` route it replaced.
//!
//! `serde::binary` writes and reads typed values straight from the bytes;
//! the `Value` route (`to_value` + `encode_value`, `decode_value` +
//! `from_value`) is kept as the reference. This suite holds the direct
//! path to it on generated WDTP messages and models (same bytes out), on
//! every single-bit flip, byte inversion and truncation of a valid docket
//! payload and `RegisterModel` payload (same accept/refuse decision, same
//! value, same error variant), and on
//! hand-built payloads the encoder never writes: permuted, duplicated and
//! unknown map keys, non-canonical number tags and the pre-k-class forms
//! (both refuse them), and nesting past `MAX_DEPTH`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::binary::{self, MAX_DEPTH};
use serde::{Deserialize, Serialize, Value};
use std::mem::discriminant;
use wdte_core::proto::{self, DisputeRef, DocketVerdict, PayloadDigest, Request, Response, WireFault};
use wdte_core::verify::VerificationReport;
use wdte_core::{
    OwnershipClaim, Signature, TenantId, TenantStatsEntry, WatermarkError, WatermarkResult,
};
use wdte_data::{ConfusionMatrix, Dataset, DenseMatrix, Label, MultiClassSpec};
use wdte_trees::{ForestParams, RandomForest, TreeParams};

/// The reference encoder: the `Value` tree, then the tree codec.
fn value_route_bytes<T: Serialize + ?Sized>(message: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    binary::encode_value(&message.to_value(), &mut bytes);
    bytes
}

/// The reference decoder, with the error mapping `proto::decode_payload`
/// applies.
fn value_route_decode<T: Deserialize>(payload: &[u8]) -> WatermarkResult<T> {
    let violation = |detail: String| WatermarkError::ProtocolViolation { detail };
    let value = binary::decode_value_bytes(payload).map_err(|err| violation(err.to_string()))?;
    T::from_value(&value).map_err(|err| violation(format!("payload does not decode: {err}")))
}

/// Both decoders agree on `payload`: both accept it with bit-identical
/// values, or both refuse it with the same error variant. Returns whether
/// it was accepted.
fn assert_decoders_agree<T: Deserialize + Serialize>(payload: &[u8], context: &str) -> bool {
    let direct = proto::decode_payload::<T>(payload);
    let reference = value_route_decode::<T>(payload);
    match (&direct, &reference) {
        (Ok(direct), Ok(reference)) => {
            // Compared through the reference encoder: bit-exact, NaN-safe.
            assert_eq!(
                value_route_bytes(direct),
                value_route_bytes(reference),
                "{context}: both decoders accept but decode different values"
            );
            true
        }
        (Err(direct), Err(reference)) => {
            assert_eq!(
                discriminant(direct),
                discriminant(reference),
                "{context}: refused as {direct:?} directly but {reference:?} through Value"
            );
            false
        }
        _ => panic!(
            "{context}: direct decoder says {:?} but the Value route says {:?}",
            direct.as_ref().err(),
            reference.as_ref().err()
        ),
    }
}

/// An `f64` feature, often one of the values codecs get wrong.
fn feature(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::from_bits(0x7ff8_0000_dead_beef),
        _ => rng.gen_range(-1.0..1.0),
    }
}

/// A small k-class dataset with special floats among its features.
fn dataset(rng: &mut SmallRng) -> Dataset {
    let (rows, cols, classes) = (rng.gen_range(0..6), rng.gen_range(1..5), rng.gen_range(2..7));
    let values = (0..rows * cols).map(|_| feature(rng)).collect();
    let labels = (0..rows)
        .map(|_| Label::new(rng.gen_range(0..classes), classes).unwrap())
        .collect();
    Dataset::with_classes(
        format!("gen-{rows}x{cols}"),
        DenseMatrix::from_vec(rows, cols, values).unwrap(),
        labels,
        classes,
    )
    .unwrap()
}

fn claim(rng: &mut SmallRng) -> OwnershipClaim {
    let bits = (0..rng.gen_range(1..20)).map(|_| rng.gen()).collect();
    OwnershipClaim::new(Signature::from_bits(bits), dataset(rng), dataset(rng))
}

fn forest(rng: &mut SmallRng) -> RandomForest {
    let classes = rng.gen_range(2..5);
    forest_of(classes, rng)
}

fn forest_of(classes: usize, rng: &mut SmallRng) -> RandomForest {
    let data = MultiClassSpec::k_class(classes).scaled(0.1).generate(rng);
    RandomForest::fit(&data, &ForestParams::with_trees(rng.gen_range(1..4)), rng)
}

fn digest(rng: &mut SmallRng) -> PayloadDigest {
    PayloadDigest {
        hi: rng.gen(),
        lo: rng.gen(),
    }
}

fn report(rng: &mut SmallRng) -> VerificationReport {
    VerificationReport {
        verified: rng.gen(),
        instance_matches: (0..rng.gen_range(0..8)).map(|_| rng.gen()).collect(),
        bit_agreement: feature(rng),
        queries_issued: rng.gen_range(0..1000),
    }
}

fn every_request(rng: &mut SmallRng) -> Vec<Request> {
    let bodies: Vec<OwnershipClaim> = (0..rng.gen_range(0..3)).map(|_| claim(rng)).collect();
    vec![
        Request::Ping,
        Request::RegisterModel {
            model_id: "model-α".into(),
            model: forest(rng),
        },
        Request::RegisterModelRef {
            model_id: String::new(),
            digest: digest(rng),
        },
        Request::ResolveDocketRef {
            disputes: bodies
                .iter()
                .map(|c| DisputeRef::new("m", PayloadDigest::of_claim(c)))
                .collect(),
            bodies,
        },
        Request::ListModels,
        Request::Deregister { model_id: "m".into() },
        Request::Stats,
    ]
}

fn every_response(rng: &mut SmallRng) -> Vec<Response> {
    let faults = vec![
        WireFault::UnknownModel { model_id: "x".into() },
        WireFault::DocketTooLarge {
            size: rng.gen(),
            max: 64,
        },
        WireFault::BadRequest {
            detail: "junk".into(),
        },
        WireFault::UnsupportedProtocolVersion {
            found: rng.gen::<u32>() as u16,
            supported: proto::PROTOCOL_VERSION,
        },
        WireFault::FrameTooLarge {
            size: rng.gen(),
            max: rng.gen(),
        },
        WireFault::Internal {
            detail: String::new(),
        },
        WireFault::AuthFailed {
            detail: "bad tag".into(),
        },
        WireFault::Forbidden {
            detail: "other tenant".into(),
        },
        WireFault::QuotaExceeded {
            resource: "models".into(),
            used: rng.gen(),
            limit: rng.gen(),
        },
    ];
    let mut responses = vec![
        Response::Pong {
            protocol_version: rng.gen::<u32>() as u16,
            format_version: rng.gen::<u32>() as u16,
            models_registered: rng.gen(),
            claims_cached: rng.gen(),
        },
        Response::Registered {
            model_id: "m".into(),
            num_trees: rng.gen(),
            digest: digest(rng),
        },
        Response::Docket {
            // Every fault can also refuse a single dispute.
            verdicts: std::iter::once(DocketVerdict::Report(report(rng)))
                .chain(faults.iter().cloned().map(DocketVerdict::Fault))
                .collect(),
        },
        Response::NeedPayload {
            digests: (0..rng.gen_range(0..4)).map(|_| digest(rng)).collect(),
        },
        Response::Models {
            model_ids: vec!["a".into(), "b".into()],
        },
        Response::Deregistered {
            model_id: "m".into(),
            existed: rng.gen(),
        },
        Response::Stats {
            tenants: vec![TenantStatsEntry {
                tenant: "alice".into(),
                models: rng.gen(),
                dockets: rng.gen(),
                claims: rng.gen(),
                cache_hits: rng.gen(),
                cache_misses: rng.gen(),
                evictions: rng.gen(),
                auth_failures: rng.gen(),
                claim_bytes: rng.gen(),
                in_flight: rng.gen(),
            }],
        },
    ];
    responses.extend(faults.into_iter().map(|fault| Response::Error { fault }));
    responses
}

/// Encodes `message` both ways, checks the bytes match, and checks both
/// decoders read the bytes back to `message`.
fn assert_parity<T: Serialize + Deserialize + std::fmt::Debug>(message: &T) {
    let direct = binary::to_vec(message);
    assert_eq!(
        direct,
        value_route_bytes(message),
        "encoders differ on {message:?}"
    );
    assert!(assert_decoders_agree::<T>(&direct, "round trip"));
    let decoded: T = proto::decode_payload(&direct).unwrap();
    assert_eq!(binary::to_vec(&decoded), direct, "decoding changed {message:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_request_kind_encodes_and_decodes_like_the_value_route(seed in any::<u64>()) {
        for request in every_request(&mut SmallRng::seed_from_u64(seed)) {
            assert_parity(&request);
        }
    }

    #[test]
    fn every_response_kind_encodes_and_decodes_like_the_value_route(seed in any::<u64>()) {
        for response in every_response(&mut SmallRng::seed_from_u64(seed)) {
            assert_parity(&response);
        }
    }

    #[test]
    fn models_encode_to_the_value_route_bytes_for_every_k(seed in any::<u64>(), pick in 0usize..3) {
        let classes = [2, 3, 5][pick];
        let model = forest_of(classes, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(model.num_classes(), classes);
        assert_parity(&model);
        assert_parity(&Request::RegisterModel { model_id: "m".into(), model });
    }
}

/// A small valid docket payload: two inlined claims and their references.
fn docket_payload() -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(0xD0C);
    let bodies = vec![claim(&mut rng), claim(&mut rng)];
    let request = Request::ResolveDocketRef {
        disputes: bodies
            .iter()
            .map(|c| DisputeRef::new("m", PayloadDigest::of_claim(c)))
            .collect(),
        bodies,
    };
    binary::to_vec(&request)
}

/// A small binary forest: two shallow trees, so a byte sweep stays short.
fn small_forest() -> RandomForest {
    let mut rng = SmallRng::seed_from_u64(0xF0);
    let data = MultiClassSpec::k_class(2).scaled(0.05).generate(&mut rng);
    let params = ForestParams {
        tree: TreeParams::with_max_depth(3),
        ..ForestParams::with_trees(2)
    };
    RandomForest::fit(&data, &params, &mut rng)
}

/// A valid `RegisterModel` payload carrying [`small_forest`].
fn register_payload() -> Vec<u8> {
    binary::to_vec(&Request::RegisterModel {
        model_id: "m".into(),
        model: small_forest(),
    })
}

/// Every single-bit flip and byte inversion of `payload` is judged alike
/// by both decoders; returns how many mutations still decoded.
fn flip_sweep<T: Deserialize + Serialize>(payload: &[u8], name: &str) -> usize {
    let mut accepted = 0;
    for position in 0..payload.len() {
        for mask in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
            let mut mutated = payload.to_vec();
            mutated[position] ^= mask;
            let context = format!("{name}: byte {position} ^ {mask:#04x}");
            accepted += usize::from(assert_decoders_agree::<T>(&mutated, &context));
        }
    }
    accepted
}

/// Every strict prefix of `payload` is refused by both decoders.
fn truncation_sweep<T: Deserialize + Serialize>(payload: &[u8], name: &str) {
    for cut in 0..payload.len() {
        assert!(!assert_decoders_agree::<T>(
            &payload[..cut],
            &format!("{name}: cut at {cut}")
        ));
    }
    assert!(assert_decoders_agree::<T>(
        payload,
        &format!("{name}: the whole payload")
    ));
}

#[test]
fn every_bit_flip_and_byte_inversion_is_judged_alike() {
    // Flips inside float payloads still decode: each sweep must exercise
    // the accept side too, not only refusals.
    assert!(flip_sweep::<Request>(&docket_payload(), "docket") > 0);
    assert!(flip_sweep::<Request>(&register_payload(), "RegisterModel") > 0);
}

#[test]
fn every_truncation_is_refused_alike() {
    truncation_sweep::<Request>(&docket_payload(), "docket");
    truncation_sweep::<Request>(&register_payload(), "RegisterModel");
}

/// The entries of one `Value::Map`.
type Entries = Vec<(String, Value)>;

/// Applies `edit` to every struct map in `value` (maps whose keys are
/// field names, not enum variant tags), innermost first.
fn edit_struct_maps(value: &mut Value, edit: &mut dyn FnMut(&mut Entries)) {
    match value {
        Value::Seq(items) => items.iter_mut().for_each(|item| edit_struct_maps(item, edit)),
        Value::Map(entries) => {
            for (_, item) in entries.iter_mut() {
                edit_struct_maps(item, edit);
            }
            if entries.first().is_some_and(|(key, _)| key.starts_with(char::is_lowercase)) {
                edit(entries);
            }
        }
        _ => {}
    }
}

fn docket_value() -> Value {
    Request::from_value(&binary::decode_value_bytes(&docket_payload()).unwrap())
        .unwrap()
        .to_value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fields in any order, later duplicates (even ill-typed ones) and
    /// unknown keys (even deeply nested ones) are read the same way: the
    /// first occurrence wins and the rest only has to be well-formed.
    #[test]
    fn permuted_duplicated_and_unknown_keys_decode_alike(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut value = docket_value();
        edit_struct_maps(&mut value, &mut |entries| {
            match rng.gen_range(0..4) {
                0 => entries.reverse(),
                1 => entries.rotate_left(1),
                _ => {}
            }
            if rng.gen_bool(0.5) {
                let (key, _) = entries[rng.gen_range(0..entries.len())].clone();
                entries.push((key, Value::Str("a later duplicate".into())));
            }
            if rng.gen_bool(0.5) {
                let junk = Value::Map(vec![("nested".into(), Value::Seq(vec![Value::Null; 3]))]);
                entries.insert(rng.gen_range(0..=entries.len()), ("unknown".into(), junk));
            }
        });
        let payload = binary::to_vec(&value);
        prop_assert!(assert_decoders_agree::<Request>(&payload, "shuffled keys"));
        let decoded: Request = proto::decode_payload(&payload).unwrap();
        prop_assert_eq!(binary::to_vec(&decoded), docket_payload());
    }
}

#[test]
fn a_duplicate_key_counts_only_once_it_is_well_formed_and_first() {
    // An ill-typed *first* occurrence is refused even if a good one follows.
    let mut value = docket_value();
    edit_struct_maps(&mut value, &mut |entries| {
        if let Some(index) = entries.iter().position(|(key, _)| key == "rows") {
            entries.insert(index, ("rows".into(), Value::Str("four".into())));
        }
    });
    assert!(!assert_decoders_agree::<Request>(
        &binary::to_vec(&value),
        "ill-typed first"
    ));

    // A missing field is refused.
    let mut value = docket_value();
    edit_struct_maps(&mut value, &mut |entries| {
        entries.retain(|(key, _)| key != "cols")
    });
    assert!(!assert_decoders_agree::<Request>(
        &binary::to_vec(&value),
        "missing field"
    ));

    // A truncated unknown entry is refused although nothing reads it.
    let mut value = docket_value();
    edit_struct_maps(&mut value, &mut |entries| {
        entries.push(("unknown".into(), Value::Str("tail".into())));
    });
    let mut payload = binary::to_vec(&value);
    payload.pop();
    assert!(!assert_decoders_agree::<Request>(&payload, "truncated unknown"));
}

/// Nests `inner` inside `levels` single-element sequences.
fn nested(levels: usize, inner: Value) -> Value {
    (0..levels).fold(inner, |value, _| Value::Seq(vec![value]))
}

#[test]
fn nesting_past_max_depth_is_refused_alike_wherever_it_sits() {
    for levels in [MAX_DEPTH - 8, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 8] {
        // Under an unknown key, where nothing reads it.
        let mut value = docket_value();
        edit_struct_maps(&mut value, &mut |entries| {
            entries.push(("unknown".into(), nested(levels, Value::Null)));
        });
        let payload = binary::to_vec(&value);
        let accepted =
            assert_decoders_agree::<Request>(&payload, &format!("unknown key, {levels} levels"));
        // The struct maps sit a few levels down, so only the shallowest
        // nesting fits under the limit.
        assert_eq!(accepted, levels == MAX_DEPTH - 8, "{levels} levels");

        // In place of a typed field.
        let mut value = docket_value();
        edit_struct_maps(&mut value, &mut |entries| {
            for (key, item) in entries.iter_mut() {
                if key == "values" {
                    *item = nested(levels, Value::F64(1.0));
                }
            }
        });
        let payload = binary::to_vec(&value);
        assert!(!assert_decoders_agree::<Request>(
            &payload,
            &format!("typed field, {levels} levels")
        ));
    }
    // A bare deep sequence is the same refusal for any target type.
    let deep = binary::to_vec(&nested(MAX_DEPTH + 1, Value::Null));
    assert!(!assert_decoders_agree::<Vec<Vec<f64>>>(&deep, "bare nesting"));
    assert!(!assert_decoders_agree::<Request>(&deep, "bare nesting"));
}

/// `value` with the first number of the first non-empty `field` sequence
/// rewritten by `retag`, re-encoded.
fn with_first_number_retagged(
    mut value: Value,
    field: &str,
    retag: impl Fn(&Value) -> Value,
) -> Vec<u8> {
    let mut done = false;
    edit_struct_maps(&mut value, &mut |entries| {
        for (key, item) in entries.iter_mut() {
            match (key.as_str(), item) {
                (name, Value::Seq(items)) if name == field && !done && !items.is_empty() => {
                    items[0] = retag(&items[0]);
                    done = true;
                }
                _ => {}
            }
        }
    });
    assert!(done, "the fixture has a non-empty `{field}` sequence");
    binary::to_vec(&value)
}

#[test]
fn non_canonical_number_tags_decode_alike() {
    // One number under a tag no encoder writes for it: both routes refuse
    // the payload, with the same error variant.
    for number in [Value::U64(3), Value::I64(-2), Value::Null] {
        let retag = |_: &Value| number.clone();
        let payload = with_first_number_retagged(docket_value(), "values", retag);
        assert!(!assert_decoders_agree::<Request>(
            &payload,
            &format!("a feature as {number:?}")
        ));
        let payload = with_first_number_retagged(register_request_value(), "counts", retag);
        assert!(!assert_decoders_agree::<Request>(
            &payload,
            &format!("a leaf weight as {number:?}")
        ));
    }
    let payload = with_first_number_retagged(docket_value(), "labels", |label| {
        Value::I64(label.as_u64().expect("labels are U64") as i64)
    });
    assert!(!assert_decoders_agree::<Request>(&payload, "a label as I64"));
}

/// The registration fixture as a `Value` tree.
fn register_request_value() -> Value {
    Request::from_value(&binary::decode_value_bytes(&register_payload()).unwrap())
        .unwrap()
        .to_value()
}

#[test]
fn pre_k_class_forms_are_refused_alike() {
    // Labels as the pre-k-class variant names.
    let mut value = docket_value();
    let mut renamed = 0;
    edit_struct_maps(&mut value, &mut |entries| {
        for (key, item) in entries.iter_mut() {
            if let ("labels", Value::Seq(labels)) = (key.as_str(), item) {
                for label in labels.iter_mut() {
                    let name = match label {
                        Value::U64(0) => "Negative",
                        Value::U64(1) => "Positive",
                        _ => continue,
                    };
                    *label = Value::Str(name.into());
                    renamed += 1;
                }
            }
        }
    });
    assert!(renamed > 0, "the fixture has binary labels to rename");
    assert!(!assert_decoders_agree::<Request>(
        &binary::to_vec(&value),
        "variant-name labels"
    ));

    // Datasets without `num_classes`.
    let mut value = docket_value();
    edit_struct_maps(&mut value, &mut |entries| {
        entries.retain(|(key, _)| key != "num_classes")
    });
    assert!(!assert_decoders_agree::<Request>(
        &binary::to_vec(&value),
        "dataset without a class count"
    ));

    // Leaf counts as the `{negative, positive}` map.
    let mut request = register_request_value();
    let mut leaves = 0;
    edit_struct_maps(&mut request, &mut |entries| {
        for (key, item) in entries.iter_mut() {
            if let ("counts", Value::Seq(counts)) = (key.as_str(), &mut *item) {
                leaves += 1;
                *item = Value::Map(vec![
                    ("positive".into(), counts[1].clone()),
                    ("negative".into(), counts[0].clone()),
                ]);
            }
        }
    });
    assert!(leaves > 0, "the fixture has leaves to rewrite");
    assert!(!assert_decoders_agree::<Request>(
        &binary::to_vec(&request),
        "named-map leaf counts"
    ));

    // A forest without `num_classes`.
    let mut request = register_request_value();
    let mut dropped = false;
    edit_struct_maps(&mut request, &mut |entries| {
        if entries.iter().any(|(key, _)| key == "feature_subsets") {
            entries.retain(|(key, _)| key != "num_classes");
            dropped = true;
        }
    });
    assert!(dropped, "the fixture has a forest map");
    assert!(!assert_decoders_agree::<Request>(
        &binary::to_vec(&request),
        "forest without a class count"
    ));

    // A confusion matrix as the four binary counts, complete or not.
    let count = |key: &str, n: u64| (key.to_string(), Value::U64(n));
    let mut four = vec![
        count("true_positive", 2),
        count("true_negative", 1),
        count("false_positive", 3),
        count("false_negative", 4),
    ];
    assert!(!assert_decoders_agree::<ConfusionMatrix>(
        &binary::to_vec(&Value::Map(four.clone())),
        "four-count matrix"
    ));
    four.pop();
    assert!(!assert_decoders_agree::<ConfusionMatrix>(
        &binary::to_vec(&Value::Map(four)),
        "four-count matrix without a count"
    ));
}

#[test]
fn typed_constructors_still_validate_on_the_direct_path() {
    // A matrix whose shape disagrees with its values.
    let mut value = docket_value();
    edit_struct_maps(&mut value, &mut |entries| {
        for (key, item) in entries.iter_mut() {
            if key == "rows" {
                *item = Value::U64(1_000);
            }
        }
    });
    assert!(!assert_decoders_agree::<Request>(
        &binary::to_vec(&value),
        "bad shape"
    ));

    // A label outside the declared class count.
    let mut value = docket_value();
    edit_struct_maps(&mut value, &mut |entries| {
        for (key, item) in entries.iter_mut() {
            if key == "num_classes" {
                *item = Value::U64(1);
            }
        }
    });
    let payload = binary::to_vec(&value);
    // k is clamped to 2, so only datasets using class >= 2 are refused;
    // either way both routes must agree.
    assert_decoders_agree::<Request>(&payload, "too few classes");

    // An empty signature.
    let mut value = docket_value();
    edit_struct_maps(&mut value, &mut |entries| {
        for (key, item) in entries.iter_mut() {
            if key == "bits" {
                *item = Value::Seq(Vec::new());
            }
        }
    });
    let payload = binary::to_vec(&value);
    assert!(!assert_decoders_agree::<Request>(&payload, "empty signature"));
    assert!(matches!(
        proto::decode_payload::<Request>(&payload).unwrap_err(),
        WatermarkError::ProtocolViolation { .. }
    ));
}

/// The `Value` tree of [`register_payload`] with `edit` applied to every
/// struct map, re-encoded.
fn edited_registration(edit: &mut dyn FnMut(&mut Entries)) -> Vec<u8> {
    let mut value = Request::from_value(&binary::decode_value_bytes(&register_payload()).unwrap())
        .unwrap()
        .to_value();
    edit_struct_maps(&mut value, edit);
    binary::to_vec(&value)
}

#[test]
fn model_checks_still_refuse_on_the_direct_path() {
    let refused = |context: &str, edit: &mut dyn FnMut(&mut Entries)| {
        let payload = edited_registration(edit);
        assert!(!assert_decoders_agree::<Request>(&payload, context), "{context}");
    };
    // A child index past the arena, and a child pointing back at the root.
    for child in [Value::U64(10_000), Value::U64(0)] {
        refused("bad child", &mut |entries| {
            for (key, item) in entries.iter_mut() {
                if key == "right" {
                    *item = child.clone();
                }
            }
        });
    }
    // A node testing a feature the tree does not have.
    refused("feature out of range", &mut |entries| {
        for (key, item) in entries.iter_mut() {
            if key == "feature" {
                *item = Value::U64(1 << 20);
            }
        }
    });
    // An empty feature subset, and a subset naming a missing feature.
    for subset in [Value::Seq(Vec::new()), Value::Seq(vec![Value::U64(1 << 20)])] {
        refused("bad subset", &mut |entries| {
            for (key, item) in entries.iter_mut() {
                if let ("feature_subsets", Value::Seq(subsets)) = (key.as_str(), item) {
                    subsets[0] = subset.clone();
                }
            }
        });
    }
    // Fewer declared classes than a leaf predicts.
    refused("too few classes", &mut |entries| {
        for (key, item) in entries.iter_mut() {
            if key == "num_classes" {
                *item = Value::U64(1);
            }
            if key == "label" {
                *item = Value::U64(2);
            }
        }
    });
    // Leaf counts tracking more classes than a label can name.
    let mut first = true;
    refused("too many counts", &mut |entries| {
        for (key, item) in entries.iter_mut() {
            if key == "counts" && std::mem::take(&mut first) {
                *item = Value::Seq(vec![Value::F64(0.0); Label::MAX_CLASSES + 1]);
            }
        }
    });
}

#[test]
fn confusion_matrices_and_tenant_ids_decode_like_the_value_route() {
    let truth = [0, 1, 2, 1].map(|i| Label::new(i, 3).unwrap());
    let predicted = [0, 2, 2, 1].map(|i| Label::new(i, 3).unwrap());
    assert_parity(&ConfusionMatrix::from_predictions(&truth, &predicted));
    let count = |key: &str, n: u64| (key.to_string(), Value::U64(n));
    let ragged = Value::Map(vec![
        count("classes", 3),
        ("cells".into(), Value::Seq(vec![Value::U64(1); 8])),
    ]);
    assert!(!assert_decoders_agree::<ConfusionMatrix>(
        &binary::to_vec(&ragged),
        "8 cells for 3 classes"
    ));

    assert_parity(&TenantId::new("acme-1").unwrap());
    assert_parity(&TenantId::anonymous());
    for bad in [
        Value::Str("no spaces".into()),
        Value::Str("x".repeat(17)),
        Value::U64(7),
    ] {
        assert!(!assert_decoders_agree::<TenantId>(
            &binary::to_vec(&bad),
            &format!("{bad:?}")
        ));
    }
}

/// A recursive type, the only kind whose typed reads can reach the depth
/// limit on their own.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Chain {
    next: Option<Vec<Chain>>,
}

fn chain(links: usize) -> Chain {
    (0..links).fold(Chain { next: None }, |chain, _| Chain {
        next: Some(vec![chain]),
    })
}

#[test]
fn recursive_types_hit_the_depth_limit_at_the_same_level() {
    // Each link adds a map and a sequence level: the innermost `next`
    // value sits at depth 2 * links + 1.
    for links in [1, MAX_DEPTH / 2 - 1, MAX_DEPTH / 2, MAX_DEPTH / 2 + 1, MAX_DEPTH] {
        let payload = binary::to_vec(&chain(links));
        assert_eq!(payload, value_route_bytes(&chain(links)));
        let accepted = assert_decoders_agree::<Chain>(&payload, &format!("{links} links"));
        assert_eq!(accepted, 2 * links < MAX_DEPTH, "{links} links");
    }
}

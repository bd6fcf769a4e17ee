//! Command-line checks of the `serve_judge` binary: flag parsing, and a
//! warm start from a manifest directory checked over the wire.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use wdte_core::persist::{self, Format};
use wdte_core::{ManifestEntry, ModelManifest, OwnershipClaim, Signature, WatermarkConfig, Watermarker};
use wdte_data::SyntheticSpec;
use wdte_server::DisputeClient;

/// A MiB flag whose byte count overflows `usize` must be refused, not
/// wrapped: `2^44 MiB` is `2^64` bytes, which `<< 20` turned into 0, and 0
/// reads as "no limit". Parsing stops at the bad value, before `--help`
/// could exit successfully.
#[test]
fn mib_flags_refuse_a_byte_count_overflow() {
    for flag in ["--claim-cache-mb", "--quota-claim-mb"] {
        let output = Command::new(env!("CARGO_BIN_EXE_serve_judge"))
            .args([flag, "17592186044416", "--help"])
            .output()
            .expect("serve_judge runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{flag}: overflow was accepted");
        assert!(
            stderr.contains(flag),
            "{flag}: stderr does not name the flag: {stderr}"
        );
    }
}

/// Runs `serve_judge` with `args` and waits up to five seconds for it to
/// exit. A process still running then is killed, and `None` returned.
fn exit_within_five_seconds(args: &[&str]) -> Option<(ExitStatus, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve_judge"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve_judge starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(status) = child.try_wait().expect("serve_judge can be waited on") {
            let mut stderr = String::new();
            let _ = child.stderr.take().expect("stderr is piped").read_to_string(&mut stderr);
            return Some((status, stderr));
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A flag the chosen mode would ignore is refused, naming the flag:
/// a judge-only flag under `--router`, and a router-only flag without it.
/// Neither process may start serving.
#[test]
fn flags_the_mode_would_ignore_are_refused() {
    let cases: [(&[&str], &str); 2] = [
        (
            &[
                "--addr",
                "127.0.0.1:0",
                "--router",
                "--backends",
                "127.0.0.1:9",
                "--workers",
                "2",
            ],
            "--workers",
        ),
        (
            &["--addr", "127.0.0.1:0", "--backends", "127.0.0.1:9"],
            "--backends",
        ),
    ];
    for (args, flag) in cases {
        let Some((status, stderr)) = exit_within_five_seconds(args) else {
            panic!("{args:?}: serve_judge kept serving");
        };
        assert!(!status.success(), "{args:?}: the ignored flag was accepted");
        assert!(
            stderr.contains(flag),
            "{args:?}: stderr does not name {flag}: {stderr}"
        );
    }
}

/// A compiled-forest artefact laid out as earlier builds persisted one: a
/// JSON envelope around the SoA arrays of a lone-leaf tree.
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

/// A fresh warm-start directory holding a manifest of `entries`
/// (`(model id, file)` pairs); the files themselves are the caller's.
fn warm_start_dir(tag: &str, entries: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wdte-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the warm-start dir");
    let models = entries
        .iter()
        .map(|&(model_id, file)| ManifestEntry {
            model_id: model_id.into(),
            file: file.into(),
        })
        .collect();
    ModelManifest { models }.save_dir(&dir).expect("write the manifest");
    dir
}

/// Kills the judge when the test ends, whether it passed or panicked.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Waits up to five seconds for `serve_judge` to write its port file.
fn wait_for_port(judge: &mut KillOnDrop, port_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(addr) = std::fs::read_to_string(port_file) {
            return addr;
        }
        if let Some(status) = judge.0.try_wait().expect("serve_judge can be waited on") {
            panic!("serve_judge exited during its warm start: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "serve_judge wrote no port file within 5 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `serve_judge --warm-start` serves every model of the manifest, binary
/// and JSON alike, and upholds the owner's genuine claim over the wire.
#[test]
fn warm_start_serves_every_manifest_model() {
    let dataset = SyntheticSpec::breast_cancer_like()
        .scaled(0.6)
        .generate(&mut SmallRng::seed_from_u64(31));
    let mut rng = SmallRng::seed_from_u64(32);
    let (train, test) = dataset.split_stratified(0.75, &mut rng);
    let signature = Signature::random(12, 0.5, &mut rng);
    let outcome = Watermarker::new(WatermarkConfig {
        num_trees: 12,
        ..WatermarkConfig::fast()
    })
    .embed(&train, &signature, &mut rng)
    .unwrap();
    let claim = OwnershipClaim::new(signature, outcome.trigger_set.clone(), test);

    let dir = warm_start_dir("serves", &[("binary", "a.model.wdte"), ("json", "b.model.json")]);
    persist::save(dir.join("a.model.wdte"), &outcome.model, Format::Binary).unwrap();
    persist::save(dir.join("b.model.json"), &outcome.model, Format::Json).unwrap();
    let port_file = dir.join("judge.port");
    let mut judge = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_serve_judge"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--warm-start")
            .arg(&dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve_judge starts"),
    );
    let addr = wait_for_port(&mut judge, &port_file);

    let mut client = DisputeClient::connect(addr.as_str()).expect("the judge accepts a client");
    assert_eq!(client.ping().unwrap().models_registered, 2);
    for model_id in ["binary", "json"] {
        let report = client.resolve(model_id, &claim).unwrap();
        assert!(report.verified, "{model_id}: the genuine claim was refused");
    }
    drop(judge);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest naming a compiled-forest file stops `serve_judge` before it
/// serves, with the file named on stderr.
#[test]
fn warm_start_refuses_a_compiled_forest_file() {
    let dir = warm_start_dir("compiled", &[("compiled", "c.compiled.json")]);
    std::fs::write(dir.join("c.compiled.json"), COMPILED_FOREST_ARTEFACT).unwrap();
    let dir_arg = dir.to_str().expect("temp paths are UTF-8");
    let Some((status, stderr)) =
        exit_within_five_seconds(&["--addr", "127.0.0.1:0", "--warm-start", dir_arg])
    else {
        panic!("serve_judge kept serving a compiled-forest warm start");
    };
    assert!(!status.success(), "the compiled-forest file was accepted");
    assert!(
        stderr.contains("c.compiled.json"),
        "stderr does not name the file: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

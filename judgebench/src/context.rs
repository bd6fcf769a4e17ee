//! Run context printed with every result, so rows from different commits
//! or hosts can be compared and a kernel flip shows up as a cause.

use std::path::Path;

use crate::stats::{json_number, json_string, Fnv};
use crate::wire::{CLAIM_CACHE_BYTES, PIPELINE_DEPTH};
use crate::workload::{Bench, RunConfig};

/// `(key, JSON value)` pairs describing the run.
pub fn collect(cfg: &RunConfig, bench: &Bench) -> Vec<(String, String)> {
    let mut kernels = Vec::new();
    for (backend, (service, _)) in bench.topology.backends.iter().enumerate() {
        for tenant in &bench.topology.tenants {
            for model_id in service.model_ids_for(&tenant.id) {
                let resolved = service
                    .model_as(&tenant.id, &model_id)
                    .ok()
                    .and_then(|model| model.resolved_kernel(service.kernel()))
                    .map_or_else(|| "unresolved".to_string(), |k| k.to_string());
                kernels.push(format!(
                    "{}: {}",
                    json_string(&format!("backend{backend}/{}/{model_id}", tenant.id)),
                    json_string(&resolved)
                ));
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("workload".into(), json_string(cfg.workload.name())),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), json_number(cfg.seconds)),
        ("traced".into(), cfg.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("pool_width".into(), rayon::current_num_threads().to_string()),
        ("tenants".into(), bench.topology.tenants.len().to_string()),
        ("connections".into(), bench.clients.len().to_string()),
        ("backends".into(), bench.topology.backends.len().to_string()),
        ("routed".into(), bench.topology.router.is_some().to_string()),
        ("pipeline_depth".into(), PIPELINE_DEPTH.to_string()),
        ("latency_rate_dockets_per_s".into(), json_number(cfg.rate)),
        ("claim_cache_bytes".into(), CLAIM_CACHE_BYTES.to_string()),
        ("resolved_kernels".into(), format!("{{{}}}", kernels.join(", "))),
        (
            "commit".into(),
            json_string(&std::env::var("GIT_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("source_digest".into(), json_string(&source_digest())),
    ]
}

/// Digest of the workspace sources the benchmark builds against (every
/// file under `crates/` plus the root manifests). The checkout the
/// benchmark runs in need not be a git repository; this identifies the
/// code either way.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    for root in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.into());
    }
    files.sort();
    let mut hash = Fnv::new();
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            hash.eat_bytes(file.to_string_lossy().as_bytes());
            hash.eat(bytes.len() as u64);
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                hash.eat(u64::from_le_bytes(word));
            }
        }
    }
    format!("{:016x}", hash.finish())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.file_name().is_some_and(|n| n == "target" || n == "results") {
            continue;
        }
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

//! `judge_smoke` — end-to-end smoke check against a running `serve_judge`.
//!
//! Builds the deterministic watermarked model and mixed docket of
//! genuine and forged claims of [`wdte_bench::smoke`], registers the
//! model with the remote judge, resolves the docket over the wire, and
//! fails (nonzero exit) unless every served verdict is *bit-identical* to
//! the in-process `DisputeService::resolve_many` on the same docket. This
//! is the CI gate for the network layer: the wire must never change a
//! verdict.
//!
//! ```text
//! judge_smoke --addr HOST:PORT [--claims N] [--key-file PATH --tenant NAME]
//! ```
//!
//! `--key-file PATH --tenant NAME` authenticates every frame as `NAME`
//! using the secret on that tenant's line of the key file (the same file
//! handed to `serve_judge --key-file`). Every assertion is identical in
//! both modes — authentication must never change a verdict.

use std::process::ExitCode;
use wdte_bench::smoke::{self, Fixture};
use wdte_server::ClientAuth;

const MODEL_ID: &str = "smoke-deployment";

fn run(addr: &str, claims: usize, auth: Option<ClientAuth>) -> Result<(), String> {
    let fixture = Fixture::smoke()?;
    let ids = [MODEL_ID.to_string()];
    let docket = fixture.docket(claims, &ids, true);
    let reference = fixture.service(&ids)?.resolve_many(&docket);

    if let Some(auth) = &auth {
        println!("authenticating as tenant `{}`", auth.tenant());
    }
    let mut client = smoke::connect(addr, auth.as_ref())?;
    let pong = client.ping().map_err(|err| format!("ping failed: {err}"))?;
    println!(
        "judge at {addr}: protocol v{}, format v{}, {} models registered, {} claims cached",
        pong.protocol_version, pong.format_version, pong.models_registered, pong.claims_cached
    );
    let trees = client
        .register_model(MODEL_ID, &fixture.model)
        .map_err(|err| format!("registration failed: {err}"))?;
    if trees != fixture.model.num_trees() {
        return Err(format!(
            "judge registered {trees} trees, expected {}",
            fixture.model.num_trees()
        ));
    }
    if !client
        .list_models()
        .map_err(|err| format!("list_models failed: {err}"))?
        .contains(&MODEL_ID.to_string())
    {
        return Err("registered model missing from the judge's listing".to_string());
    }
    smoke::serve_and_compare(&mut client, &docket, &reference, "wire")?;
    // Leave the judge as we found it.
    client
        .deregister(MODEL_ID)
        .map_err(|err| format!("deregister failed: {err}"))?
        .then_some(())
        .ok_or("deregister reported the model as never registered")?;
    Ok(())
}

fn main() -> ExitCode {
    let mut addr = None;
    let mut claims = 64usize;
    let mut key_file: Option<String> = None;
    let mut tenant: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--addr" => addr = argv.next(),
            "--claims" => match argv.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 2 => claims = n,
                _ => {
                    eprintln!("judge_smoke: --claims needs an integer >= 2");
                    return ExitCode::FAILURE;
                }
            },
            "--key-file" => key_file = argv.next(),
            "--tenant" => tenant = argv.next(),
            other => {
                eprintln!(
                    "judge_smoke: unknown flag `{other}` \
                     (usage: --addr HOST:PORT [--claims N] \
                     [--key-file PATH --tenant NAME])"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("judge_smoke: --addr HOST:PORT is required");
        return ExitCode::FAILURE;
    };
    let auth = match smoke::client_auth(key_file.as_deref(), tenant.as_deref()) {
        Ok(auth) => auth,
        Err(message) => {
            eprintln!("judge_smoke: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&addr, claims, auth) {
        Ok(()) => {
            println!("judge_smoke: PASS");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("judge_smoke: FAIL: {message}");
            ExitCode::FAILURE
        }
    }
}

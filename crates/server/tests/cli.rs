//! Command-line checks of the `serve_judge` binary that need no client.

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

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

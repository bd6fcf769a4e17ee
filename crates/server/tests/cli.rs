//! Command-line checks of the `serve_judge` binary that need no socket.

use std::process::Command;

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

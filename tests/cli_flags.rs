//! `eqasm-cli` refuses out-of-range loadgen flag values: each exits
//! nonzero and names the flag and what it wants on stderr. The parser
//! rejects them before it connects anywhere, so this starts no server
//! and drives no load.

use std::process::Command;

#[test]
fn loadgen_flags_reject_out_of_range_values() {
    let cases = [
        ("--initial-rps", "0", "a positive rate"),
        ("--rps-step", "-1", "a positive rate increment"),
        ("--rps-factor", "1", "a factor > 1"),
        ("--max-rps", "0", "a positive rate"),
        ("--rung-secs", "0", "a positive duration"),
        ("--drain-secs", "-0.5", "a duration in seconds"),
        ("--stop-failure-rate", "1.5", "a fraction in 0..=1"),
        ("--stop-p50-ms", "0", "a positive duration in ms"),
        ("--connections", "0", "a positive count"),
        ("--watchers", "-1", "a connection count"),
        ("--subscribe-ratio", "-0.1", "a fraction in 0..=1"),
        ("--churn-secs", "0", "a positive duration"),
    ];
    for (flag, value, wants) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_eqasm-cli"))
            .args(["loadgen", "--connect", "127.0.0.1:9", flag, value])
            .output()
            .expect("eqasm-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} was accepted");
        let line = format!("error: {flag} wants {wants}\n");
        assert!(stderr.starts_with(&line), "{flag} {value}: {stderr}");
    }
}

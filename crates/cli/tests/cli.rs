//! Binary-level checks of the argument surface: every refusal below must
//! come before the command does any work, as a one-line error and exit 1.

use std::process::{Command, Output};

fn npcgra(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_npcgra"))
        .args(line.split_whitespace())
        .output()
        .expect("run npcgra")
}

/// Exit status 1, nothing on stdout (no work was started), and the first
/// stderr line is the error.
fn refused_with(line: &str, needle: &str) {
    let out = npcgra(line);
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "'{line}' must exit 1; stderr: {stderr}");
    assert!(stdout.is_empty(), "'{line}' printed before refusing: {stdout}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error: ") && first.contains(needle),
        "'{line}': no '{needle}' in '{first}'"
    );
}

#[test]
fn every_subcommand_refuses_a_flag_it_does_not_read() {
    for cmd in ["run-layer", "trace", "energy", "disasm"] {
        refused_with(
            &format!("{cmd} --kind dw --channels 2 --size 8x8 --bogus-flag"),
            "--bogus-flag",
        );
    }
    refused_with("time-model --model v1 --bogus-flag", "--bogus-flag");
    refused_with("serve-net --seconds 0.1 --bogus-flag", "--bogus-flag");
    refused_with("chaos-bench --bogus-flag --seconds 0.2", "--bogus-flag");
    // A real flag of another mode is as wrong as a typo: the failover soak
    // never read --tier, and used to run the default tier in silence.
    refused_with("chaos-bench --pipeline --tier fast", "--tier");
}

#[test]
fn chaos_bench_refuses_an_assertion_without_its_mode() {
    refused_with("chaos-bench --assert-slo", "--assert-slo");
    refused_with("chaos-bench --assert-liveness", "--assert-liveness");
    refused_with("chaos-bench --assert-durability", "--assert-durability");
}

#[test]
fn chaos_bench_refuses_an_overload_factor_out_of_range() {
    refused_with("chaos-bench --overload --overload-factor 200", "--overload-factor");
}

#[test]
fn serve_net_refuses_a_window_that_is_not_a_duration() {
    // `inf` used to panic inside `Duration::from_secs_f64` after binding;
    // `-1` used to serve forever in silence.
    refused_with("serve-net --seconds inf", "--seconds");
    refused_with("serve-net --seconds -1", "--seconds");
}

#[test]
fn serve_bench_is_gone() {
    refused_with("serve-bench", "unknown command 'serve-bench'");
}

#[test]
fn a_known_flag_still_runs() {
    let out = npcgra("run-layer --kind dw --channels 2 --size 8x8 --machine 2x2");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("bit-exact vs golden reference"));
}

//! Every `ldafp` command refuses an option it does not read, so a
//! misdirected flag exits 1 naming the command and the option instead of
//! being silently ignored.

use ldafp_cli::args::COMMAND_OPTIONS;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ldafp");

/// Runs `ldafp <args>` and asserts exit 1 with `want` on stderr and
/// nothing on stdout.
fn assert_refused(args: &[&str], want: &str) {
    let out = Command::new(BIN).args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(want), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
}

#[test]
fn every_command_refuses_an_option_it_does_not_read() {
    let reads = |command: &str, name: &str| {
        COMMAND_OPTIONS.iter().any(|(c, valued, switches)| {
            *c == command && (valued.contains(&name) || switches.contains(&name))
        })
    };
    for (command, _, _) in COMMAND_OPTIONS {
        // An option and a switch some other command reads.
        let valued = COMMAND_OPTIONS
            .iter()
            .flat_map(|(_, v, _)| v.iter())
            .find(|name| !reads(command, name))
            .unwrap();
        let switch = COMMAND_OPTIONS
            .iter()
            .flat_map(|(_, _, s)| s.iter())
            .find(|name| !reads(command, name))
            .unwrap();
        assert_refused(
            &[command, &format!("--{valued}"), "x"],
            &format!("{command} does not read --{valued}"),
        );
        assert_refused(
            &[command, &format!("--{switch}")],
            &format!("{command} does not read --{switch}"),
        );
    }
}

#[test]
fn misdirected_options_name_command_and_option() {
    assert_refused(
        &["demo", "--bits", "6", "--rho", "0.5"],
        "demo does not read --rho",
    );
    assert_refused(
        &[
            "eval",
            "--model",
            "m.json",
            "--data",
            "d.csv",
            "--rounding",
            "floor",
        ],
        "eval does not read --rounding",
    );
    assert_refused(
        &["serve", "--model", "m.json", "--threads", "2"],
        "serve does not read --threads",
    );
}

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

#[test]
fn options_a_mode_ignores_name_command_option_and_mode() {
    // `predict` refuses before it reads a file, so its paths need not
    // exist; `train` refuses before it parses the data it read.
    let data = std::env::temp_dir().join(format!("ldafp-unread-{}.csv", std::process::id()));
    std::fs::write(&data, "0.1,0.2,A\n-0.1,-0.2,B\n").unwrap();
    let data = data.to_str().unwrap();
    assert_refused(
        &[
            "predict", "--model", "m.json", "--input", "x.csv", "--wire", "json",
        ],
        "predict does not read --wire without --addr",
    );
    assert_refused(
        &[
            "predict", "--model", "m.json", "--input", "x.csv", "--name", "m",
        ],
        "predict does not read --name without --addr",
    );
    assert_refused(
        &[
            "predict",
            "--addr",
            "127.0.0.1:1",
            "--input",
            "x.csv",
            "--model",
            "m.json",
        ],
        "predict does not read --model with --addr",
    );
    for family in ["naive-bayes", "os-elm"] {
        for (option, value) in [
            ("--baseline", None),
            ("--quick", None),
            ("--solver-threads", Some("9")),
            ("--budget-secs", Some("5")),
            ("--max-solver-retries", Some("0")),
        ] {
            let mut args = vec!["train", "--data", data, "--family", family, option];
            args.extend(value);
            assert_refused(
                &args,
                &format!("train does not read {option} with --family {family}"),
            );
        }
    }
    assert_refused(
        &["train", "--data", data, "--family", "os-elm", "--k", "2"],
        "train does not read --k with --family os-elm",
    );
    for (option, value) in [
        ("--rho", Some("0.5")),
        ("--quick", None),
        ("--solver-threads", Some("9")),
    ] {
        let mut args = vec!["train", "--data", data, "--baseline", option];
        args.extend(value);
        assert_refused(
            &args,
            &format!("train does not read {option} with --baseline"),
        );
    }
    std::fs::remove_file(data).unwrap();
}

//! `ldafp` — train, evaluate and export fixed-point LDA classifiers.
//!
//! ```text
//! ldafp train      --data train.csv --bits 6 [--family lda|naive-bayes|os-elm]
//!                  [--k 4] [--rho 0.99] [--rounding nearest-even]
//!                  [--baseline] [--quick] [--budget-secs 30]
//!                  [--max-solver-retries 3] [--solver-threads 1]
//!                  [--out model.ldafp.json]
//! ldafp eval       --model model.ldafp.json --data test.csv
//! ldafp predict    --model model.ldafp.json --input rows.csv
//! ldafp predict    --addr 127.0.0.1:7878 --input rows.csv [--name model]
//!                  [--wire binary|json]
//! ldafp serve      --model model.ldafp.json --addr 127.0.0.1:7878
//!                  [--models name=path,...] [--batch-rows 256]
//!                  [--batch-deadline-us 0] [--max-inflight 32]
//!                  [--max-pending-rows 16384] [--read-deadline-ms 5000]
//! ldafp reload     --addr 127.0.0.1:7878 --model new.ldafp.json [--name model]
//!                  [--wire binary|json]
//! ldafp info       --model model.ldafp.json
//! ldafp export-rtl --model model.ldafp.json [--module name] [--testbench] [--out clf.v]
//! ldafp wordlength --data train.csv --target 0.2 [--min-bits 3] [--max-bits 16]
//!                  [--k 4] [--rho 0.99] [--rounding nearest-even] [--quick]
//!                  [--threads 4] [--solver-threads 1]
//!                  [--budget-secs 30] [--max-solver-retries 3]
//! ldafp explore    [--data train.csv] [--holdout 0.25] [--min-bits 3] [--max-bits 8]
//!                  [--k 2] [--rho 0.9,0.99] [--rounding nearest-even,floor]
//!                  [--family lda,naive-bayes,os-elm]
//!                  [--threads 4] [--solver-threads 1] [--budget-secs 30]
//!                  [--max-solver-retries 3] [--cache-dir .ldafp-cache] [--no-cache] [--json report.json] [--quick]
//!                  [--resume state-dir] [--checkpoint-nodes 256] [--pareto report.md]
//! ldafp demo       [--bits 6]
//! ldafp trace-check --input trace.ndjson
//! ```
//!
//! `train` prints one model file for every family, the checksummed serving
//! artifact; `--out` writes it to disk. `eval`, `info` and `export-rtl`
//! read binary LDA models from it, `predict`, `serve` and `reload` any kind.
//!
//! Every command also accepts `--out <file>` (write the output to a file)
//! and the observability options `--trace <file>` (stream solver/server
//! events as NDJSON while the command runs, closing with a
//! `registry.dump` metrics snapshot) and `--metrics-summary` (print the
//! metrics registry to stderr on exit). Any other option the command does
//! not read is an error naming the command and the option.
//!
//! CSV format: one sample per line, comma-separated features, last column
//! is the label (`A`/`B`, `0`/`1` or `-1`/`1`). `#` comments and a header
//! row are allowed.
//!
//! Exit codes: `0` success (for `train`: certified optimum), `1` hard
//! error, `2` training finished but degraded or budget-exhausted (the
//! model is usable, the optimality proof is not), `3` training deployed
//! the rounded float-LDA fallback because the search found no incumbent,
//! `4` the sweep was interrupted (SIGINT) with all checkpoints flushed —
//! re-run with the same `--resume <dir>` to continue losslessly.

use ldafp_cli::args::ParsedArgs;
use ldafp_cli::{commands, CliError};
use ldafp_obs::NdjsonWriter;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: ldafp <command> [options]

commands:
  train       --data <csv> --bits <n> [--family lda|naive-bayes|os-elm]
              [--k n] [--rho p] [--rounding mode] [--baseline] [--quick]
              [--budget-secs n] [--max-solver-retries n] [--solver-threads n]
              [--out model.ldafp.json]
              (prints the model file, the serving artifact, for every
               family; non-LDA families exit 0 on success, 1 on error; LDA
               exits by training outcome: 0 certified, 2
               budget-exhausted/degraded, 3 fallback-rounded)
  eval        --model <model.ldafp.json> --data <csv>
  predict     --model <model.ldafp.json> --input <csv>
              (remote: --addr <host:port> instead of --model, plus
               [--name model] [--wire binary|json])
  serve       --model <model.ldafp.json> --addr <host:port>
              [--models name=path,...] [--batch-rows n]
              [--batch-deadline-us n] [--max-inflight n]
              [--max-pending-rows n] [--read-deadline-ms n]
              (epoll event loop, Linux x86-64/aarch64: both codecs on one
               port, cross-connection micro-batching of each read pass,
               --batch-deadline-us > 0 lingers for more, hot-reload
               registry)
  reload      --addr <host:port> --model <artifact.json> [--name model]
              [--wire binary|json]
  info        --model <model.ldafp.json>
  export-rtl  --model <model.ldafp.json> [--module name] [--testbench] [--out clf.v]
  wordlength  --data <csv> --target <error> [--min-bits n] [--max-bits n]
              [--k n] [--rho p] [--rounding mode] [--quick] [--threads n]
              [--solver-threads n] [--budget-secs n] [--max-solver-retries n]
  explore     [--data <csv>] [--holdout f] [--min-bits n] [--max-bits n] [--k n]
              [--rho p,...] [--rounding mode,...] [--family name,...]
              [--threads n] [--solver-threads n] [--budget-secs n]
              [--max-solver-retries n] [--cache-dir dir] [--no-cache]
              [--json report.json] [--quick] [--resume dir]
              [--checkpoint-nodes n] [--pareto report.md]
              (^C interrupts cooperatively: checkpoints flush, exit code 4,
               re-running with the same --resume dir continues losslessly)
  demo        [--bits n]
  trace-check --input <trace.ndjson>

any command (other options a command does not read are errors):
  --out <file>       write the output to <file>
  --trace <file>     stream solver/server events as NDJSON while running
  --metrics-summary  print the metrics registry to stderr on exit

exit codes:
  0  success (train/explore: the result is certified)
  1  hard error (bad arguments, I/O, malformed input)
  2  trained but degraded or budget-exhausted (model usable, proof is not)
  3  fallback: rounded float-LDA deployed, or an empty explore frontier
  4  interrupted (SIGINT) with checkpoints flushed — resumable: re-run
     with the same --resume <dir> to continue losslessly

run `ldafp help` or see the crate docs for details";

fn main() -> ExitCode {
    match run() {
        Ok((output, code)) => {
            print!("{output}");
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("ldafp: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> ldafp_cli::Result<(String, u8)> {
    let args = ParsedArgs::parse_command(std::env::args().skip(1))?;
    let command = args.command();

    // --trace installs the NDJSON subscriber before any work runs, so the
    // stream captures every solver/server event of the command.
    let trace_writer = match args.get("trace") {
        Some(path) => {
            let writer = Arc::new(NdjsonWriter::create(path)?);
            ldafp_obs::set_subscriber(writer.clone());
            Some(writer)
        }
        None => None,
    };

    let mut code = 0u8;
    let output = match command {
        "train" => {
            let data_path = args.get("data").ok_or_else(|| {
                CliError(
                    "train needs --data <csv>\nusage: ldafp train --data <csv> --bits <n> [--out model.ldafp.json]"
                        .to_string(),
                )
            })?;
            let csv_text = std::fs::read_to_string(data_path)?;
            let (json, outcome, degradation) = commands::train(&args, &csv_text)?;
            if let Some(o) = &outcome {
                // Stderr, so piping / --out never mixes it into the JSON.
                eprintln!("ldafp: training outcome: {} — {}", o.label(), o.summary());
                code = commands::exit_code(o);
            }
            if let Some(line) = degradation.as_ref().and_then(commands::degradation_summary) {
                eprintln!("ldafp: {line}");
            }
            json
        }
        "eval" => {
            let model = read_required_for(&args, "eval", "model")?;
            let data_path = args.get("data").ok_or_else(|| {
                CliError(
                    "eval needs --data <csv>\nusage: ldafp eval --model <model.ldafp.json> --data <csv>"
                        .to_string(),
                )
            })?;
            let csv_text = std::fs::read_to_string(data_path)?;
            commands::eval_cmd(&model, &csv_text)?
        }
        "predict" => {
            let input_path = args.get("input").ok_or_else(|| {
                CliError("predict needs --input <csv>\nusage: ldafp predict --model <model.ldafp.json> --input <csv>\n       ldafp predict --addr <host:port> --input <csv> [--name model] [--wire binary|json]".to_string())
            })?;
            let csv_text = std::fs::read_to_string(input_path)?;
            // `--addr` switches to remote inference against a running
            // server (no local artifact needed); otherwise classify
            // in-process as before.
            match args.get("addr") {
                Some(addr) => commands::predict_remote(&args, &csv_text, addr)?,
                None => {
                    let artifact = read_required_for(&args, "predict", "model")?;
                    commands::predict(&artifact, &csv_text)?
                }
            }
        }
        "serve" => {
            let artifact = read_required_for(&args, "serve", "model")?;
            let addr = args.get("addr").ok_or_else(|| {
                CliError("serve needs --addr <host:port>\nusage: ldafp serve --model <model.ldafp.json> --addr <host:port>".to_string())
            })?;
            let mut handle = commands::serve_evented_start(&args, &artifact, addr)?;
            // Stderr so scripts scraping stdout stay quiet; the handle's
            // resolved address matters when the user asked for port 0.
            eprintln!("ldafp: serving on {}", handle.addr());
            let metrics = Arc::clone(handle.metrics());
            handle.join(); // returns when a client sends `shutdown`
                           // The server keeps its counters in a private registry; fold it
                           // into the observability outputs after shutdown.
            if let Some(writer) = &trace_writer {
                writer.dump_registry(metrics.registry());
            }
            if args.has_flag("metrics-summary") {
                eprint!("ldafp: server metrics:\n{}", metrics.registry().dump_text());
            }
            String::new()
        }
        "reload" => {
            let artifact = read_required_for(&args, "reload", "model")?;
            let addr = args.get("addr").ok_or_else(|| {
                CliError("reload needs --addr <host:port>\nusage: ldafp reload --addr <host:port> --model <artifact.json> [--name model] [--wire binary|json]".to_string())
            })?;
            commands::reload_cmd(&args, &artifact, addr)?
        }
        "info" => commands::info(&read_required_for(&args, "info", "model")?)?,
        "wordlength" => {
            let data_path = args.get("data").ok_or_else(|| {
                CliError(
                    "wordlength needs --data <csv>\nusage: ldafp wordlength --data <csv> --target <error>"
                        .to_string(),
                )
            })?;
            let csv_text = std::fs::read_to_string(data_path)?;
            commands::wordlength(&args, &csv_text)?
        }
        "explore" => {
            let csv_text = match args.get("data") {
                Some(path) => Some(std::fs::read_to_string(path)?),
                None => None,
            };
            // Cooperative SIGINT: the first ^C raises a flag that the sweep
            // polls at safe boundaries — in-flight solves flush a final
            // checkpoint and the command exits with code 4 (resumable).
            let interrupt = sigint::install();
            let (report, explore_code) =
                commands::explore(&args, csv_text.as_deref(), Some(interrupt))?;
            code = explore_code;
            report
        }
        "export-rtl" => {
            commands::export_rtl(&args, &read_required_for(&args, "export-rtl", "model")?)?
        }
        "demo" => commands::demo(&args)?,
        "trace-check" => {
            let trace_text = read_required_for(&args, "trace-check", "input")?;
            commands::trace_check(&trace_text)?
        }
        "help" | "--help" | "-h" => format!("{USAGE}\n"),
        other => return Err(CliError(format!("unknown command '{other}'\n{USAGE}"))),
    };

    // Close out observability: the trace stream ends with a registry.dump
    // line, and --metrics-summary prints the same snapshot human-readably.
    if let Some(writer) = &trace_writer {
        writer.dump_registry(ldafp_obs::Registry::global());
        ldafp_obs::clear_subscriber();
    }
    if args.has_flag("metrics-summary") {
        eprint!(
            "ldafp: metrics:\n{}",
            ldafp_obs::Registry::global().dump_text()
        );
    }

    // --out redirects the payload to a file, leaving a confirmation on stdout.
    if let Some(path) = args.get("out") {
        std::fs::write(path, &output)?;
        return Ok((format!("wrote {path}\n"), code));
    }
    Ok((output, code))
}

fn read_required_for(args: &ParsedArgs, cmd: &str, key: &str) -> ldafp_cli::Result<String> {
    let path = args.get(key).ok_or_else(|| {
        CliError(format!(
            "{cmd} needs --{key} <file>\nrun `ldafp help` for the full usage"
        ))
    })?;
    Ok(std::fs::read_to_string(path)?)
}

/// Cooperative SIGINT handling for long sweeps.
///
/// The handler only flips an `AtomicBool` (async-signal-safe); the sweep
/// polls it at point boundaries and inside the branch-and-bound coordinator
/// loop, flushes a final checkpoint, and unwinds with exit code 4. A second
/// ^C while the flush is still running behaves like the first — the flag is
/// already set — so the default disposition is never restored and the
/// process always exits through the resumable path.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_sigint(_signum: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;

    /// Installs the handler (idempotent) and returns the shared flag.
    pub fn install() -> Arc<AtomicBool> {
        let flag = Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
        // SAFETY: `signal` with a function pointer whose body is a lone
        // relaxed/SeqCst atomic store is async-signal-safe; no allocation,
        // locking or FFI state is touched inside the handler.
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
        flag
    }
}

/// Non-unix fallback: no handler is installed; ^C keeps its default
/// terminate-the-process behavior and the flag simply never trips.
#[cfg(not(unix))]
mod sigint {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    pub fn install() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }
}

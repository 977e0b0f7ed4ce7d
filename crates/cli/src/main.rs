//! `hadar-cli`: command-line front end for the Hadar scheduler workspace.
//!
//! See `hadar-cli --help` (or [`commands::USAGE`]) for subcommands.

mod args;
mod commands;

use args::Options;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", commands::USAGE);
        return;
    }
    let opts = match Options::parse(raw) {
        Ok(o) => o,
        Err(e) => fail(&e),
    };
    let command = match opts.positional() {
        [] => "",
        [command] => command.as_str(),
        [_, extra, ..] => fail(&format!("unexpected argument {extra:?}")),
    };
    match command {
        "catalog" => match opts.accept_only(&[]) {
            Ok(()) => print!("{}", commands::catalog::run()),
            Err(e) => fail(&e),
        },
        "gen-trace" => match commands::gen_trace::run(&opts) {
            Ok((report, csv)) => {
                eprintln!("{report}");
                match opts.get("out") {
                    Some(path) => {
                        if let Err(e) = std::fs::write(path, csv) {
                            fail(&format!("cannot write {path:?}: {e}"));
                        }
                        eprintln!("wrote {path}");
                    }
                    None => print!("{csv}"),
                }
            }
            Err(e) => fail(&e),
        },
        "simulate" => match commands::simulate::run(&opts) {
            Ok((report, csv, telemetry)) => {
                println!("{report}");
                if let Some(path) = opts.get("csv") {
                    if let Err(e) = std::fs::write(path, csv) {
                        fail(&format!("cannot write {path:?}: {e}"));
                    }
                    println!("per-job CSV written to {path}");
                }
                write_telemetry(&opts, telemetry);
            }
            Err(e) => fail(&e),
        },
        "compare" => match commands::compare::run(&opts) {
            Ok((out, telemetry)) => {
                println!("{out}");
                write_telemetry(&opts, telemetry);
            }
            Err(e) => fail(&e),
        },
        other => fail(&format!("unknown command {other:?}\n\n{}", commands::USAGE)),
    }
}

/// Write the telemetry JSONL stream to the `--telemetry-out` path. The
/// stream is `Some` exactly when the flag was given (the subcommand only
/// enables the sink then).
fn write_telemetry(opts: &Options, stream: Option<String>) {
    let Some(stream) = stream else {
        return;
    };
    let path = opts
        .get("telemetry-out")
        .expect("stream implies --telemetry-out");
    if let Err(e) = std::fs::write(path, stream) {
        fail(&format!("cannot write {path:?}: {e}"));
    }
    println!("telemetry JSONL written to {path}");
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

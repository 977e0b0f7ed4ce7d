//! `hadar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metric table, then one JSON result line as the last line of
//! standard output. Exits 2 on bad arguments.

use std::process::ExitCode;

use hadar_perfbench::run;
use hadar_perfbench::trace::write_spans;
use hadar_perfbench::workload::{host_threads, Workload};

/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = "perfbench/traces";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: hadar-perfbench --workload <paper-480|scale-2048> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} host_threads {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads()
    );
    let (report, notes) = if args.trace {
        let (report, notes, spans) = run::traced(w, args.seed);
        let path = format!("{TRACE_DIR}/{}-seed{}.tsv", w.name(), args.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| write_spans(&spans, f));
        match written {
            Ok(()) => eprintln!("{} spans written to {path}", spans.len()),
            Err(e) => eprintln!("could not write spans to {path}: {e}"),
        }
        (report, notes)
    } else {
        run::timed(w, args.seed, args.seconds)
    };
    for n in &notes {
        println!("{n}");
    }
    print!("{}", report.table());
    println!("{}", report.json());
    ExitCode::SUCCESS
}

//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wan_bulk --seed 1999 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (and writes the run's spans as a Chrome trace to
//! `--trace-out`, default `perfbench/out/trace-<workload>.json`). The last
//! line of standard output is the JSON result; the exit code is 1 when a
//! correctness check failed. `--digest` prints the workload's
//! deterministic digest without timing anything, `--describe` the
//! benchmark's record (workloads, metrics, seeds, build and host), and
//! `--scale tiny` shrinks every size for the benchmark's own smoke test.

use std::path::PathBuf;
use std::process::ExitCode;

use gtw_perfbench::{catalog, Scale, Spans, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    digest: bool,
    describe: bool,
    trace_out: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: catalog::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        scale: Scale::Full,
        digest: false,
        describe: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                a.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    v => return Err(format!("--scale takes full or tiny, not {v}")),
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--digest" => a.digest = true,
            "--describe" => a.describe = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        println!("{}", catalog::describe().pretty());
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required (wan_bulk, control_storm, fmri_session, coupled_climate)");
        return ExitCode::from(2);
    };
    if args.digest {
        println!("{}", workload.digest(args.seed, args.scale).pretty());
        return ExitCode::SUCCESS;
    }

    let mut out = if args.trace {
        let mut spans = Spans::default();
        let mut out = workload.traced(args.seed, args.scale, &mut spans);
        let path = args.trace_out.unwrap_or_else(|| {
            PathBuf::from(format!("perfbench/out/trace-{}.json", workload.name()))
        });
        match spans.write_checked(&path) {
            Ok(check) => out.note(format!(
                "chrome trace {}: {} spans on {} tracks, valid",
                path.display(),
                check.spans,
                check.tids
            )),
            Err(e) => out.problem(format!("chrome trace: {e}")),
        }
        out
    } else {
        workload.e2e(args.seed, args.seconds, args.scale)
    };
    out.notes.insert(
        0,
        format!("{} seed={} trace={}", workload.name(), args.seed, u8::from(args.trace)),
    );

    for line in &out.notes {
        println!("# {line}");
    }
    for m in &out.metrics {
        println!("# {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("# CHECK FAILED: {p}");
    }
    println!("{}", out.to_json().dump());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

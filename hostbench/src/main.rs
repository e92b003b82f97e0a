//! Command line: `lxfi-hostbench --workload <echo_rr|tx_bulk|recover>
//! --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints human-readable lines, then one JSON result as the last line of
//! standard output: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced).

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds}: expected a duration"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lxfi-hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match lxfi_hostbench::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lxfi-hostbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in &rep.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &rep.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    for why in &rep.why {
        println!("# FAILED: {why}");
    }
    println!("{}", rep.json());
    ExitCode::SUCCESS
}

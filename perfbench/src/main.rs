//! Command line of the timer-stack benchmark:
//!
//! ```text
//! perfbench --workload <rto-churn|ttl-sessions|async-timeouts> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>] [--confinement <text>]
//! ```
//!
//! Prints a host line, the metrics one per line (`metric` lines; an
//! untraced run adds `reported` lines for the ungated end-to-end figures),
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced). Exits 1 when
//! an output check failed and 2 on a usage error.

use std::process::ExitCode;

use perfbench::{
    host, result_json, rto, timeouts, ttl, Args, END_TO_END, PER_LAYER, REPORTED, WORKLOADS,
};

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        confinement: "none".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            "--confinement" => args.confinement = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::host_line(&args.confinement));
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let out = match args.workload.as_str() {
        "rto-churn" => rto::run(&args),
        "ttl-sessions" => ttl::run(&args),
        _ => timeouts::run(&args),
    };
    for note in &out.notes {
        println!("note: {note}");
    }
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in list {
        println!("metric {name} {} {unit}", out.metrics.get(name));
    }
    if !args.trace {
        for (name, unit) in &REPORTED {
            println!("reported {name} {} {unit}", out.metrics.get(name));
        }
    }
    if let Some(path) = &args.trace_out {
        let mut text = String::from("span\tpushed\tretained\tp50_ns\tp90_ns\tp99_ns\tmax_ns\n");
        for line in &out.trace_lines {
            text.push_str(line);
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    if let Some(m) = &out.first_mismatch {
        println!("check: {} mismatches, first: {m}", out.mismatches);
    } else {
        println!("check: every expiry matched the shadow deadline table");
    }
    println!("{}", result_json(&out, args.trace));
    if out.mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

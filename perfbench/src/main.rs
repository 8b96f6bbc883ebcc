//! The benchmark command.
//!
//! ```text
//! atm-perfbench --workload <characterize|serve-brownout|fleet-failover|all>
//!               [--seed 42] [--seconds 10] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! Prints one detail line per workload (host stamp, simulated outcomes,
//! output digest, span totals) and, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `all` runs the three
//! workloads one after another in this process, resetting the memory
//! high-water mark before each, and prefixes each metric's name with its
//! workload. Exits 1 when an output check fails and 2 on a usage error.

use std::process::ExitCode;

use atm_perfbench::characterize::Characterize;
use atm_perfbench::fleet_failover::FleetFailover;
use atm_perfbench::metrics::{json_number, json_string, Metrics};
use atm_perfbench::serve_brownout::ServeBrownout;
use atm_perfbench::{run, stats, workers, Options, Outcome, Size, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(String::from("--seconds must be a non-negative number"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("atm-perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let workers = workers();
    let opts = Options {
        seconds: args.seconds,
        trace: args.trace,
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for &name in &names {
        if names.len() > 1 {
            if let Err(e) = stats::reset_peak_rss() {
                eprintln!("atm-perfbench: cannot reset the memory high-water mark: {e}");
                return ExitCode::from(1);
            }
        }
        let out = match name {
            "characterize" => run(&Characterize::new(args.seed, args.size, workers), &opts),
            "serve-brownout" => run(&ServeBrownout::new(args.seed, args.size, workers), &opts),
            _ => run(&FleetFailover::new(args.seed, args.size, workers), &opts),
        };
        print_detail(name, &args, workers, &out);
        outcomes.push((name, out));
    }

    let correct = outcomes.iter().all(|(_, o)| o.correct);
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes
        .iter()
        .filter(|(_, o)| !o.correct)
        .map(|(_, o)| o.attempted)
        .sum();
    let metrics = match &outcomes[..] {
        [(_, only)] => only.metrics.clone(),
        all => {
            let mut m = Metrics::default();
            for (name, o) in all {
                m.extend_prefixed(name, &o.metrics);
            }
            m
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    );
    let mut code = ExitCode::SUCCESS;
    for (name, o) in &outcomes {
        if let Some(why) = &o.failure {
            eprintln!("atm-perfbench: {name}: output check failed: {why}");
            code = ExitCode::from(1);
        }
    }
    code
}

fn print_detail(workload: &str, args: &Args, workers: usize, out: &Outcome) {
    let spans: Vec<String> = out
        .span_totals
        .iter()
        .map(|(name, calls, s)| {
            format!(
                "{}: {{\"calls\": {calls}, \"s\": {}}}",
                json_string(name),
                json_number(*s)
            )
        })
        .collect();
    println!(
        "{{\"detail\": {{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"workers\": {workers}, \
         \"nproc\": {}, \"cpu_model\": {}, \"setup_reps\": {}, \"reps\": {}, \
         \"digest\": \"{:016x}\", \"sim\": {}, \"spans\": {{{}}}, \"failure\": {}}}}}",
        json_string(workload),
        args.trace,
        args.seed,
        stats::nproc(),
        json_string(&stats::cpu_model()),
        out.setup_reps,
        out.reps,
        out.digest,
        out.sim.to_json(),
        spans.join(", "),
        out.failure
            .as_deref()
            .map_or_else(|| String::from("null"), json_string),
    );
}

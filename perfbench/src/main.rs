//! The dwapsp benchmark: one seeded workload per run, every output
//! checked against the sequential oracle, one JSON result line.
//!
//! ```text
//! perfbench --workload <kssp_sim|apsp_tcp|serve_uniform|serve_swap>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics. With
//! `--trace 1` the workload runs twice, untraced and then with the
//! allocation counter on, and the result carries the per-layer metrics,
//! the probes of `probes.rs` included, and the tracing overhead. See
//! `README.md` beside this crate for what each workload and metric is for.

mod inputs;
mod load;
mod probes;
mod report;
mod sys;
mod workloads;

use report::{Metrics, Tally};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<(Metrics, Tally), String> {
    let spec = workloads::spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (kssp_sim, apsp_tcp, serve_uniform, serve_swap)",
            args.workload
        )
    })?;
    let err = |e: std::io::Error| format!("{}: {e}", args.workload);
    let pass = workloads::run(spec, args.seed, args.seconds, false).map_err(err)?;
    let mut untraced = Metrics::default();
    pass.end_to_end(&mut untraced);
    let mut tally = pass.tally;
    if !args.trace {
        return Ok((untraced, tally));
    }
    drop(pass);
    sys::start_counting();
    let traced = workloads::run(spec, args.seed, args.seconds, false).map_err(err)?;
    let mut traced_e2e = Metrics::default();
    traced.end_to_end(&mut traced_e2e);
    tally.add(traced.tally);
    let mut layers = Metrics::default();
    probes::per_layer(
        &traced,
        &untraced,
        &traced_e2e,
        args.seed,
        args.seconds,
        &mut layers,
        &mut tally,
    )
    .map_err(err)?;
    Ok((layers, tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, tally)) => {
            for name in metrics.names() {
                eprintln!("{name} = {}", metrics.get(name));
            }
            println!("{}", metrics.to_json(tally));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_row_is_counted_as_failed() {
        let spec = workloads::spec("serve_uniform").expect("known workload");
        let out = workloads::run(spec, 1, 1.0, true).expect("run completes");
        assert!(out.tally.attempted > 1000, "{:?}", out.tally);
        assert!(out.tally.failed > 0, "a corrupted row went unnoticed");
    }

    #[test]
    fn clean_run_has_no_failures() {
        let spec = workloads::spec("serve_uniform").expect("known workload");
        let out = workloads::run(spec, 1, 1.0, false).expect("run completes");
        assert!(out.tally.attempted > 1000, "{:?}", out.tally);
        assert_eq!(out.tally.failed, 0);
    }

    #[test]
    fn oracle_rejects_a_corrupted_solve() {
        let inst = inputs::Instance::generate(inputs::Family::Grid { side: 5 }, 3);
        let (solve, snap) = workloads::solve(workloads::runtime("sim"), &inst);
        assert!(solve.ok);
        let mut snap = snap.expect("the simulator returns tables");
        assert_eq!(
            inputs::bad_rows(&inst.graph, &snap, &inst.sources, &inst.oracle),
            0
        );
        workloads::corrupt_first_row(&mut snap);
        assert_eq!(
            inputs::bad_rows(&inst.graph, &snap, &inst.sources, &inst.oracle),
            1
        );
    }
}

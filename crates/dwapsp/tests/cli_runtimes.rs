//! The `dwapsp` binary must run Algorithm 1 with the same parameters on
//! every runtime: `run --algo alg1` without `--sources` or `--delta`
//! derives Δ the same way on the simulator as on the transports, so the
//! reported Δ, round count and distance matrix agree across `--runtime`.

use std::path::Path;
use std::process::Command;

fn dwapsp(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dwapsp"))
        .args(args)
        .output()
        .expect("spawn dwapsp");
    assert!(
        out.status.success(),
        "dwapsp {args:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The `alg1 apsp (Δ=…): rounds=…` stats line of a run's stdout.
fn stats_line(out: &str) -> &str {
    out.lines()
        .find(|l| l.starts_with("alg1 apsp (Δ="))
        .unwrap_or_else(|| panic!("no alg1 apsp stats line in:\n{out}"))
}

/// The stdout of an Algorithm-1 APSP run with the `[runtime]` label
/// removed from its stats line; everything else is kept verbatim.
fn apsp_output(graph: &Path, runtime: &str) -> String {
    let out = dwapsp(&[
        "run",
        "--graph",
        graph.to_str().expect("utf-8 path"),
        "--algo",
        "alg1",
        "--runtime",
        runtime,
    ]);
    let stats = stats_line(&out);
    let (head, rest) = stats
        .split_once(" [")
        .unwrap_or_else(|| panic!("stats line names no runtime: {stats}"));
    let (_label, tail) = rest.split_once(']').expect("closing bracket");
    out.replace(stats, &format!("{head}{tail}"))
}

#[test]
fn alg1_apsp_reports_the_same_delta_and_rounds_on_sim_and_threads() {
    let graph = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_runtimes_zero_heavy_40.json");
    dwapsp(&[
        "gen",
        "--family",
        "zero-heavy",
        "--n",
        "40",
        "--w",
        "6",
        "--seed",
        "3",
        "--out",
        graph.to_str().expect("utf-8 path"),
    ]);
    let sim = apsp_output(&graph, "sim");
    let threads = apsp_output(&graph, "threads:2");
    assert_eq!(
        stats_line(&sim),
        stats_line(&threads),
        "Δ and rounds must not depend on the runtime"
    );
    assert_eq!(sim, threads, "distance matrices diverged");
}

//! The repository's benchmark: one command for the whole request and
//! every layer. See `benchmark/README.md`.

#![forbid(unsafe_code)]

mod gen;
mod json;
mod layers;
mod report;
mod service;
mod suite;
mod target;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use report::{catalogue, Better, Outcome, RunOpts, END_TO_END};
use workloads::SERVICE_WORKLOADS;

const PAPER_SUITE: &str = "paper_suite";
/// Run by hand only, not listed in `BENCHMARK.json`: with fsync=always
/// its numbers are the sandbox disk's fsync latency, which no run
/// length steadies (README, "How steady the numbers are").
const NOT_GATED: &str = "ingest_durable";

const USAGE: &str = "usage: sqs-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       sqs-benchmark --compare A.json B.json
workloads: ingest_mem ingest_durable query_mix turnstile_mix window_mix paper_suite
  (no --workload runs all six and writes benchmark/out/result-<seed>.json;
   BENCHMARK.json lists all but ingest_durable)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" | "--secs" => {
                args.seconds = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(args)
}

fn workload_names() -> Vec<&'static str> {
    SERVICE_WORKLOADS
        .iter()
        .map(|s| s.name)
        .chain([PAPER_SUITE])
        .collect()
}

/// One workload, start to finish; a traced run adds the layer battery.
fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = match SERVICE_WORKLOADS.iter().find(|s| s.name == name) {
        Some(spec) => service::run(spec, opts)?,
        None if name == PAPER_SUITE => suite::run(opts)?,
        None => return Err(format!("unknown workload {name:?}\n{USAGE}")),
    };
    if opts.trace {
        let scratch = service::ScratchDir::create(opts, "battery")?;
        // The suite workload measured its per-algorithm numbers itself.
        layers::run(opts, scratch.path(), name != PAPER_SUITE, &mut out)?;
    }
    Ok(out)
}

fn print_outcome(name: &str, trace: bool, out: &Outcome) {
    for (metric, unit, better) in catalogue(trace) {
        if let Some(v) = out.get(&metric) {
            println!(
                "{name:<15} {metric:<34} {v:>16.4} {unit:<6} ({} is better)",
                better.as_str()
            );
        }
    }
    for note in &out.notes {
        println!("{name:<15} note: {note}");
    }
    if name == NOT_GATED {
        println!("{name:<15} note: not in BENCHMARK.json: these numbers follow the disk");
    }
    println!(
        "{name:<15} operations attempted {}, failed {}",
        out.attempted, out.failed
    );
    for e in &out.errors {
        println!("{name:<15} FAILED: {e}");
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<bool, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir(),
    };
    let metrics = catalogue(opts.trace);
    if let Some(name) = &args.workload {
        let out = run_workload(name, &opts)?;
        print_outcome(name, opts.trace, &out);
        // The driver reads the last line of standard output.
        println!("{}", out.to_json(&metrics)?);
        return Ok(out.correct());
    }

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"workloads\": {{",
        opts.seed, opts.seconds, opts.trace
    );
    let mut correct = true;
    for (i, name) in workload_names().into_iter().enumerate() {
        let out = run_workload(name, &opts)?;
        print_outcome(name, opts.trace, &out);
        correct &= out.correct();
        let _ = write!(
            doc,
            "{}\n\"{name}\": {}",
            if i == 0 { "" } else { "," },
            out.to_json(&metrics)?
        );
    }
    doc.push_str("\n}}\n");
    let file = opts.out_dir.join(format!(
        "result-{}{}.json",
        opts.seed,
        if opts.trace { "-trace" } else { "" }
    ));
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&file, &doc))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("results written to {}", file.display());
    Ok(correct)
}

/// Reads one metric of one workload out of a result document, unless
/// that workload's run had failed operations.
fn result_value(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    let w = doc.at(&["workloads", workload])?;
    if w.get("correct") != Some(&Value::Bool(true)) {
        return None;
    }
    w.at(&["metrics", metric, "value"])?.as_f64()
}

/// Prints every end-to-end metric of every workload from two result
/// files side by side, with the relative change and its verdict.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {}: {e}", p.display()))
            .and_then(|t| Value::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<15} {:<20} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut all_ok = true;
    for workload in workload_names() {
        for m in &END_TO_END {
            let name = m.def.name;
            let verdict = match (
                result_value(&a, workload, name),
                result_value(&b, workload, name),
            ) {
                (Some(va), Some(vb)) => {
                    let worse_by = match m.def.better {
                        Better::Lower => vb / va - 1.0,
                        Better::Higher => 1.0 - vb / va,
                    };
                    let verdict = if worse_by > m.bound {
                        "regressed"
                    } else {
                        "ok"
                    };
                    println!(
                        "{workload:<15} {name:<20} {va:>16.4} {vb:>16.4} {:>8.1}% {:>5.0}%  {verdict}",
                        worse_by * 100.0,
                        m.bound * 100.0
                    );
                    verdict
                }
                // Absent from a file, or measured by a run that failed.
                _ => {
                    println!(
                        "{workload:<15} {name:<20} {:>16} {:>16} {:>9} {:>5.0}%  unresolved",
                        "-",
                        "-",
                        "-",
                        m.bound * 100.0
                    );
                    "unresolved"
                }
            };
            all_ok &= verdict == "ok";
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match &args.compare {
        Some((a, b)) => compare(a, b),
        None => run(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver trusts; the program must
    /// report exactly the metrics and workloads it lists.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let expected_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.def.name.to_owned(),
                    m.def.unit.to_owned(),
                    m.def.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), expected_e2e);
        for (m, listed) in END_TO_END.iter().zip(
            doc.get("end_to_end")
                .and_then(Value::as_array)
                .expect("array"),
        ) {
            assert_eq!(listed.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let expected_layers: Vec<_> = report::per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_owned(), b.as_str().to_owned()))
            .collect();
        assert_eq!(names("per_layer"), expected_layers);
        let listed: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let gated: Vec<&str> = workload_names()
            .into_iter()
            .filter(|&w| w != NOT_GATED)
            .collect();
        assert_eq!(listed, gated);
    }

    #[test]
    fn compare_reads_values_only_from_correct_runs() {
        let doc = Value::parse(
            "{\"workloads\": {\"a\": {\"correct\": true, \"metrics\": {\"m\": {\"value\": 2.5, \"unit\": \"s\"}}},
              \"b\": {\"correct\": false, \"metrics\": {\"m\": {\"value\": 1, \"unit\": \"s\"}}}}}",
        )
        .expect("valid");
        assert_eq!(result_value(&doc, "a", "m"), Some(2.5));
        assert_eq!(result_value(&doc, "b", "m"), None);
        assert_eq!(result_value(&doc, "c", "m"), None);
    }

    #[test]
    fn args_follow_the_driver_contract() {
        let argv: Vec<String> = "--workload query_mix --seed 9 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse_args(&argv).expect("valid");
        assert_eq!(args.workload.as_deref(), Some("query_mix"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3.0, true));
        assert!(parse_args(&["--trace".to_owned(), "yes".to_owned()]).is_err());
        assert!(parse_args(&["--seconds".to_owned(), "0".to_owned()]).is_err());
    }
}

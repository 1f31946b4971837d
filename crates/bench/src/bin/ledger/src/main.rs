//! The perf ledger: one command that measures the VeriDevOps closed
//! loop end to end and layer by layer.
//!
//! ```text
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ledger --compare A B
//! ```
//!
//! A run checks and discards one warm-up repetition, then repeats the
//! workload for `--seconds`, checking every output. Each repetition
//! runs in a fresh child process, preceded by another child that times
//! set-up and a machine probe. The run prints each metric as
//! `workload metric value unit`, then one JSON result line. `--trace 1`
//! adds an in-process traced pass that reports per-layer metrics and
//! writes its spans under `.ledger/`. `--compare` judges two sets of
//! saved run outputs against the bounds of the metric table.

mod compare;
mod fleet;
mod metrics;
mod probe;
mod service;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use metrics::{Values, END_TO_END};
use workload::{Rep, Workload};

const USAGE: &str = "usage: ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                     ledger --compare A B\n\
                     workloads: fleet_ops fleet_forensics service_mixed service_commits";

/// Scratch space for journals and span files, relative to the
/// directory the ledger runs in.
const WORK_DIR: &str = ".ledger";

/// Timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Timed set-ups per sample; the sample reports their median.
const SETUPS_PER_SAMPLE: usize = 5;

/// What one process of the ledger does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Run the benchmark and report.
    Run,
    /// Child: time set-up and the machine probe, print both, exit.
    Sample,
    /// Child: run one checked repetition, print it and the peak
    /// resident set, exit.
    Rep,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut role = Role::Run;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--child" => {
                role = match value.as_str() {
                    "sample" => Role::Sample,
                    "rep" => Role::Rep,
                    _ => return Err(format!("--child takes sample or rep, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(1..=3_600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=3600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        role,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let work = Path::new(WORK_DIR).join(format!("{name}-{}", std::process::id()));
    let mut m = Measured::default();
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| match args.role {
            Role::Run => measure(args, &work, &mut m),
            Role::Sample => sample(args, &work).map(|(setup_s, slowdown)| {
                println!("{setup_s} {slowdown}");
            }),
            Role::Rep => {
                let rep = args.workload.shape().rep(args.seed, &work)?;
                println!("{} {}", peak_rss_mb()?, rep.to_line());
                Ok(())
            }
        });
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(()) => {
            if args.role == Role::Run {
                report(args, &m);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: {name}: check failed: {e}");
            if args.role == Role::Run {
                let defs: Vec<_> = if args.trace {
                    metrics::per_layer().collect()
                } else {
                    END_TO_END.iter().collect()
                };
                let (attempted, failed) = (m.attempted(), m.failed());
                let json =
                    metrics::json_line(false, attempted, failed, defs.into_iter(), &Values::new());
                println!("{json}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
struct Measured {
    /// The warm-up's outcome metrics, which every repetition matched.
    outcomes: Values,
    setup_s: Vec<f64>,
    slowdown: Vec<f64>,
    reps: Vec<Rep>,
    peak_rss_mb: Vec<f64>,
    layers: Values,
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.units).sum::<u64>().max(1)
    }

    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }
}

/// One checked and discarded warm-up, then a sample (set-up and probe)
/// and a timed repetition at a time until `args.seconds` have passed
/// since the start; then, with tracing on, the traced pass. Every
/// repetition must reproduce the warm-up's digest and outcomes exactly.
/// Samples alternate with the repetitions, so both see the same
/// stretch of machine time.
fn measure(args: Args, work: &Path, m: &mut Measured) -> Result<(), String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (_, warm) = rep_child(args)?;
    while m.reps.len() < MIN_REPS || start.elapsed() < budget {
        let (setup_s, slowdown) = sample_child(args)?;
        let (peak_rss_mb, rep) = rep_child(args)?;
        if rep.digest != warm.digest {
            return Err("output digest differs between repetitions of one seed".into());
        }
        if rep.outcomes != warm.outcomes {
            return Err("outcome metrics differ between repetitions of one seed".into());
        }
        m.setup_s.push(setup_s);
        m.slowdown.push(slowdown);
        m.peak_rss_mb.push(peak_rss_mb);
        m.reps.push(rep);
    }
    m.outcomes = warm.outcomes;
    if !args.trace {
        return Ok(());
    }

    // An untimed in-process repetition first, so the traced pass runs
    // on a warm process like the repetitions it is compared with.
    let shape = args.workload.shape();
    shape.rep(args.seed, work)?;
    let traced = shape.traced(args.seed, work)?;
    if traced.digest != warm.digest {
        return Err("the traced pass changed the output digest".into());
    }
    let untraced = stats::median(&m.reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    m.layers = traced.values;
    m.layers.insert(
        "trace_overhead_pct",
        100.0 * (traced.run_s / untraced - 1.0),
    );
    let name = args.workload.name();
    let path = PathBuf::from(WORK_DIR).join(format!("spans-{name}-seed{}.tsv", args.seed));
    traced
        .spans
        .write_tsv(&path, name)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "ledger: {} spans written to {}",
        traced.spans.spans().len(),
        path.display()
    );
    Ok(())
}

/// The sample child's work: the median of [`SETUPS_PER_SAMPLE`] timed
/// set-ups after a first, untimed one, then the machine probe.
fn sample(args: Args, work: &Path) -> Result<(f64, f64), String> {
    let shape = args.workload.shape();
    shape.setup_s(args.seed, work)?;
    let timed = (0..SETUPS_PER_SAMPLE)
        .map(|_| shape.setup_s(args.seed, work))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((stats::median(&timed), probe::slowdown()))
}

/// Runs this executable as a child in `role` and returns its standard
/// output. Fails when the child does.
fn child(args: Args, role: &str, env: &[(&str, &str)]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string(), "--child", role])
        .envs(env.iter().copied())
        .output()
        .map_err(|e| format!("{role} child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{role} child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("{role} child: {e}"))
}

/// Times set-up and the machine probe in a fresh child process. In a
/// process that has run other work, the heap left behind decides
/// whether a set-up pays for first-touch page faults, which splits
/// samples into two modes; a child that keeps its freed memory (glibc's
/// trim and mmap thresholds raised) never pays them after its first,
/// untimed set-up.
fn sample_child(args: Args) -> Result<(f64, f64), String> {
    let out = child(
        args,
        "sample",
        &[
            ("MALLOC_TRIM_THRESHOLD_", "1099511627776"),
            ("MALLOC_MMAP_THRESHOLD_", "33554432"),
        ],
    )?;
    let mut numbers = out.split_whitespace().map(str::parse::<f64>);
    match (numbers.next(), numbers.next()) {
        (Some(Ok(setup_s)), Some(Ok(slowdown))) => Ok((setup_s, slowdown)),
        _ => Err(format!("sample child printed {out:?}")),
    }
}

/// One repetition in a fresh child process with the allocator's
/// defaults, so every repetition starts from the same empty heap and
/// its peak resident set is the child's own.
fn rep_child(args: Args) -> Result<(f64, Rep), String> {
    let out = child(args, "rep", &[])?;
    let (rss, rep) = out
        .trim()
        .split_once(' ')
        .ok_or_else(|| format!("rep child printed {out:?}"))?;
    let rss = rss
        .parse::<f64>()
        .map_err(|_| format!("rep child printed {out:?}"))?;
    Ok((rss, Rep::parse(rep)?))
}

/// Prints every metric line, then the JSON result line. Timings are
/// rescaled to the reference probe speed; `raw=` gives the median as
/// measured. A set-up sample is rescaled by the probe reading taken in
/// the same child a few milliseconds later, since the neighbours' load
/// changes within a fraction of a second; a repetition lasts a second
/// or two, which averages such bursts, and is rescaled by the run's
/// median reading.
fn report(args: Args, m: &Measured) {
    let name = args.workload.name();
    let slowdown = stats::median(&m.slowdown);
    let setup: Vec<f64> = m
        .setup_s
        .iter()
        .zip(&m.slowdown)
        .map(|(s, d)| s / d)
        .collect();
    let raw_throughput: Vec<f64> = m.reps.iter().map(|r| r.units as f64 / r.run_s).collect();
    let throughput: Vec<f64> = raw_throughput.iter().map(|t| t * slowdown).collect();
    let mut values = Values::new();
    for (d, samples, raw) in [
        (&END_TO_END[0], &setup, &m.setup_s),
        (&END_TO_END[1], &throughput, &raw_throughput),
        (&END_TO_END[2], &m.peak_rss_mb, &m.peak_rss_mb),
    ] {
        let value = stats::median(samples);
        values.insert(d.name, value);
        let (p25, p75) = stats::quartiles(samples);
        let extra = format!(
            "p25={p25} p75={p75} n={} raw={}",
            samples.len(),
            stats::median(raw)
        );
        println!("{}", metrics::line(name, d, value, &extra));
    }
    eprintln!("ledger: machine slowdown {slowdown:.3} against the probe reference");
    for d in metrics::OUTCOMES {
        if let Some(v) = m.outcomes.get(d.name) {
            println!("{}", metrics::line(name, d, *v, ""));
        }
    }
    let (attempted, failed) = (m.attempted(), m.failed());
    let json = if args.trace {
        for d in metrics::LAYERS {
            let v = m.layers.get(d.name).copied().unwrap_or(0.0);
            println!("{}", metrics::line(name, d, v, ""));
        }
        metrics::json_line(true, attempted, failed, metrics::per_layer(), &m.layers)
    } else {
        metrics::json_line(true, attempted, failed, END_TO_END.iter(), &values)
    };
    println!("{json}");
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "fleet_ops",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            args,
            Args {
                workload: Workload::FleetOps,
                seed: 7,
                seconds: 12,
                trace: true,
                role: Role::Run,
            }
        );
        let child = parse_args(&strings(&["--workload", "service_mixed", "--child", "rep"]));
        assert_eq!(child.expect("valid").role, Role::Rep);
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "fleet_ops", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "fleet_ops", "--child", "x"])).is_err());
        assert!(parse_args(&strings(&["--workload", "fleet_ops", "--seconds"])).is_err());
        assert!(parse_args(&strings(&["--workload", "fleet_ops", "--seconds", "0"])).is_err());
    }
}

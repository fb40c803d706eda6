//! One benchmark for the historical, live and RIB paths: end-to-end
//! numbers from untraced runs, per-layer numbers from traced ones.
//! `README.md` beside this package says what is measured and why.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, the driver's form
//! benchmark run W --seed N [--trace] [--world smoke]        the same, by hand
//! benchmark all --seed N [--runs R] [--out FILE]            every workload, untraced and traced
//! benchmark compare BASE.json CANDIDATE.json                apply the bounds to two `all` documents
//! ```
//!
//! A run is two processes. The harness (this `main`) generates the
//! workload's world from the seed, computes the reference its outputs
//! must match, and starts the program under test — this binary again,
//! as `measure` — which sees nothing but the files, so its peak RSS is
//! its own and not the generator's.

mod deflate;
mod json;
mod pipeline;
mod profile;
mod reference;
mod report;
#[cfg(test)]
mod smoke;
mod stats;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use reference::Needs;
use report::{metric_json, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Outcome, TAIL};
use world::World;

/// Times the world is built per run; `setup_s` takes the median.
const SETUP_REPEATS: usize = 3;
/// Where worlds and result files go, under the current directory.
const WORK_DIR: &str = ".bench_work";

/// A field of `/proc/self/status` in KiB (0 where there is no procfs).
pub fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// `--flag value` pairs and bare words; a flag followed by another
    /// flag (or by nothing) reads as "1".
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = raw
                        .next_if(|v| !v.starts_with("--"))
                        .unwrap_or_else(|| "1".to_string());
                    args.flags.insert(flag.to_string(), value);
                }
                None => args.positional.push(a),
            }
        }
        args
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {v:?}")),
        }
    }
}

struct RunSpec {
    workload: &'static Workload,
    world: &'static world::WorldSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl RunSpec {
    fn from(args: &Args, workload: Option<&str>) -> Result<RunSpec, String> {
        let name = workload
            .or(args.flags.get("workload").map(String::as_str))
            .ok_or("which workload? (--workload NAME)")?;
        let workload = report::workload(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; there are {known:?}")
        })?;
        let world_name = args
            .flags
            .get("world")
            .map_or(world::W8.name, String::as_str);
        Ok(RunSpec {
            workload,
            world: world::spec(world_name).ok_or(format!("unknown world {world_name:?}"))?,
            seed: args.num("seed", 1)?,
            seconds: args.num("seconds", 10.0)?,
            trace: args.num::<u8>("trace", 0)? != 0,
        })
    }
}

/// `HEAD` of the checkout the benchmark runs in, if it is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        rev => rev.chars().take(12).collect(),
    }
}

/// The harness side of one run: set-up, reference, the measured child,
/// and the run's result document.
fn run(spec: &RunSpec) -> Result<Json, String> {
    let work = PathBuf::from(WORK_DIR).join(format!(
        "{}-{}-{}",
        spec.workload.name,
        spec.seed,
        std::process::id()
    ));
    let result = run_in(spec, &work);
    // The archive is tens of megabytes; only results and traces stay.
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(spec: &RunSpec, world_dir: &Path) -> Result<Json, String> {
    let mut build_s = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        let _ = std::fs::remove_dir_all(world_dir);
        let t = Instant::now();
        world = Some(world::build(spec.world, spec.seed, world_dir));
        build_s.push(t.elapsed().as_secs_f64());
    }
    let mut world = world.expect("SETUP_REPEATS > 0");
    let t = Instant::now();
    reference::fill(
        &mut world,
        match (spec.trace, spec.workload.name) {
            (false, "rib_query") => Needs::Nothing,
            (false, "hist_pipeline" | "live_tail") => Needs::Pipeline,
            // A layer profile checks nothing; it reads `max_ts` only.
            _ => Needs::Counts,
        },
    );
    let reference_s = t.elapsed().as_secs_f64();
    world.save().map_err(|e| format!("saving the world: {e}"))?;

    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let child = Command::new(exe)
        .arg("measure")
        .args(["--workload", spec.workload.name])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(world_dir)
        .arg("--spans")
        .arg(Path::new(WORK_DIR).join(format!(
            "trace-{}-seed{}.jsonl",
            spec.workload.name, spec.seed
        )))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the measured process: {e}"))?;
    if !child.status.success() {
        return Err(format!("the measured process ended with {}", child.status));
    }
    let answer = String::from_utf8_lossy(&child.stdout);
    let measured = Json::parse(answer.lines().last().unwrap_or(""))
        .map_err(|e| format!("the measured process's answer: {e}"))?;

    let num = |k: &str| measured.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let setup_s = stats::median(&build_s) + num("prepare_s");
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if !spec.trace {
        metrics.push(("setup_s".to_string(), metric_json(setup_s, "s")));
    }
    metrics.extend(
        measured
            .get("metrics")
            .map(Json::entries)
            .unwrap_or_default()
            .iter()
            .cloned(),
    );
    let failed = num("failed");
    Ok(Json::obj([
        ("workload", Json::from(spec.workload.name)),
        ("world", Json::from(spec.world.name)),
        ("seed", Json::from(spec.seed)),
        ("seconds", Json::from(spec.seconds)),
        ("trace", Json::from(u64::from(spec.trace))),
        (
            "workload_hash",
            Json::from(format!("{:016x}", world.workload_hash())),
        ),
        (
            "host_cores",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("git_rev", Json::from(git_rev())),
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::from(num("attempted"))),
        ("failed", Json::from(failed)),
        ("failed_share", Json::from(failed / num("attempted"))),
        ("metrics", Json::Obj(metrics)),
        (
            "setup",
            Json::obj([
                (
                    "world_build_s",
                    Json::Arr(build_s.iter().map(|s| Json::from(*s)).collect()),
                ),
                ("reference_s", Json::from(reference_s)),
                ("prepare_s", Json::from(num("prepare_s"))),
                ("plain_bytes", Json::from(world.plain_bytes)),
                ("gz_bytes", Json::from(world.gz_bytes)),
                ("dumps", Json::from(world.manifest.len() as u64)),
                ("records", Json::from(world.expect["sim_records"])),
            ]),
        ),
        (
            "detail",
            measured.get("detail").cloned().unwrap_or(Json::Null),
        ),
    ]))
}

/// The program under test: load the world, run the workload (or, with
/// `--trace 1`, the layer profile of its world), answer in one line.
fn measure(args: &Args) -> Result<(), String> {
    let dir = args.flags.get("dir").ok_or("measure: --dir?")?;
    let world = World::load(Path::new(dir))?;
    let name = args
        .flags
        .get("workload")
        .ok_or("measure: --workload?")?
        .as_str();
    let seconds: f64 = args.num("seconds", 10.0)?;
    let answer = if args.num::<u8>("trace", 0)? != 0 {
        let (layers, spans) = profile::profile(&world, name == "live_tail", seconds);
        if let Some(path) = args.flags.get("spans") {
            let lines: Vec<String> = spans.iter().map(Json::to_string).collect();
            std::fs::write(path, lines.join("\n") + "\n")
                .map_err(|e| format!("writing the trace to {path}: {e}"))?;
        }
        let unit = |n: &str| {
            PER_LAYER
                .iter()
                .find(|m| m.name == n)
                .map_or("", |m| m.unit)
        };
        Json::obj([
            // The checks belong to the untraced run; a profile that ran
            // to the end made one attempt and did not fail it.
            ("attempted", Json::from(1u64)),
            ("failed", Json::from(0u64)),
            ("prepare_s", Json::from(0.0)),
            (
                "metrics",
                Json::obj(layers.iter().map(|(n, v)| (*n, metric_json(*v, unit(n))))),
            ),
        ])
    } else {
        let out: Outcome = match name {
            "hist_scan" => workloads::hist_scan(&world, seconds, false),
            "hist_filtered" => workloads::hist_scan(&world, seconds, true),
            "hist_pipeline" => workloads::hist_pipeline(&world, seconds),
            "live_tail" => workloads::live_tail(&world, seconds),
            "rib_query" => workloads::rib_query(&world, seconds),
            other => return Err(format!("measure: unknown workload {other:?}")),
        };
        let metrics = [
            ("peak_rss_mib", proc_status_kib("VmHWM:") as f64 / 1024.0),
            ("throughput_per_s", out.throughput_per_s),
            ("latency_ms_p50", stats::median(&out.latency_ms)),
            ("latency_ms_p90", stats::percentile(&out.latency_ms, TAIL)),
        ];
        let unit = |n: &str| {
            END_TO_END
                .iter()
                .find(|m| m.name == n)
                .map_or("", |m| m.unit)
        };
        let mut detail = out.detail;
        detail.push(("latency_samples", Json::from(out.latency_ms.len() as u64)));
        detail.push((
            "latency_ms_percentiles",
            Json::obj([10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0].map(|p| {
                (
                    format!("p{p}"),
                    Json::from(stats::percentile(&out.latency_ms, p)),
                )
            })),
        ));
        Json::obj([
            ("attempted", Json::from(out.attempted)),
            ("failed", Json::from(out.failed)),
            ("prepare_s", Json::from(out.prepare_s)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|(n, v)| (*n, metric_json(*v, unit(n))))),
            ),
            ("detail", Json::obj(detail)),
        ])
    };
    println!("{answer}");
    Ok(())
}

/// The line the driver reads: exactly these four keys.
fn driver_line(doc: &Json) -> Json {
    Json::obj(
        ["correct", "attempted", "failed", "metrics"]
            .into_iter()
            .map(|k| (k, doc.get(k).cloned().unwrap_or(Json::Null))),
    )
}

fn save(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn one_run(args: &Args, workload: Option<&str>) -> Result<bool, String> {
    let spec = RunSpec::from(args, workload)?;
    let doc = run(&spec)?;
    println!("# {}: {}", spec.workload.name, spec.workload.why);
    report::print_run(&doc);
    save(
        &PathBuf::from(WORK_DIR).join(format!(
            "result-{}-seed{}-trace{}.json",
            spec.workload.name,
            spec.seed,
            u8::from(spec.trace)
        )),
        &doc,
    )?;
    println!("{}", driver_line(&doc));
    Ok(doc.get("correct") == Some(&Json::Bool(true)))
}

fn all(args: &Args) -> Result<bool, String> {
    let runs: usize = args.num("runs", 1)?;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let mut spec = RunSpec::from(args, Some(w.name))?;
            spec.trace = trace;
            // Layer profiles are read, not compared: one is enough.
            let n = if trace { 1 } else { runs.max(1) };
            let docs = (0..n).map(|_| run(&spec)).collect::<Result<Vec<_>, _>>()?;
            let doc = report::merge_runs(&docs);
            report::print_run(&doc);
            results.push(doc);
        }
    }
    let correct = results
        .iter()
        .all(|r| r.get("correct") == Some(&Json::Bool(true)));
    let seed: u64 = args.num("seed", 1)?;
    let out = args.flags.get("out").map_or(
        PathBuf::from(WORK_DIR).join(format!("all-seed{seed}.json")),
        PathBuf::from,
    );
    save(
        &out,
        &Json::obj([
            ("git_rev", Json::from(git_rev())),
            ("seed", Json::from(seed)),
            ("correct", Json::Bool(correct)),
            ("results", Json::Arr(results)),
        ]),
    )?;
    println!("# wrote {}; correct: {correct}", out.display());
    Ok(correct)
}

fn compare(args: &Args) -> Result<bool, String> {
    let [_, base, cand] = args.positional.as_slice() else {
        return Err("compare BASE.json CANDIDATE.json".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let worse = report::compare(&load(base)?, &load(cand)?)?;
    println!("# {worse} worse");
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let done = match args.positional.first().map(String::as_str) {
        None => one_run(&args, None),
        Some("run") => one_run(&args, args.positional.get(1).map(String::as_str)),
        Some("all") => all(&args),
        Some("compare") => compare(&args),
        Some("measure") => measure(&args).map(|()| true),
        Some(other) => Err(format!(
            "unknown command {other:?}; see the top of src/main.rs"
        )),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        // Printed, but wrong: an output check failed or a metric is worse.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

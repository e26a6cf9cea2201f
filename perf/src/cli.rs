//! The command line: `run`, `repeat`, and the internal `child`/`micro`
//! subcommands the parent process spawns.
//!
//! ```text
//! bskel-perf run    --seed N [--workload W] [--seconds S] [--trace 0|1 | --traced]
//! bskel-perf repeat --sets 2 --runs 5 [--seed N] [--workload W] [--seconds S]
//! ```
//!
//! `run` executes each workload in fresh child processes (so memory,
//! descriptors, threads and TIME_WAIT sockets never leak from one
//! workload into the next): several set-up-only children, then — traced —
//! one child for the isolated micro-timings, then the measuring child.
//! It prints every metric by name and unit, writes `out/result.json`,
//! and with a single `--workload` ends its output with the one-line JSON
//! result `BENCHMARK.json`'s contract asks for.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::workloads::{self, Outcome, RunArgs};
use crate::{micro, procfs, stats, trace};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Measured seconds per run when `--seconds` is not given (the value
/// `BENCHMARK.json` fixes as `run_seconds`).
pub const DEFAULT_SECONDS: u64 = 10;
/// A child that has not finished after this long is killed.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);
/// Set-up-only children per run: at least this many ...
const SETUP_MIN: usize = 5;
/// ... at most this many ...
const SETUP_MAX: usize = 30;
/// ... stopping early once they took this long in total.
const SETUP_BUDGET: Duration = Duration::from_millis(1_000);

/// Where `result.json`, `repeat.json` and the span files go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value, key: &str) -> f64 {
    match field(v, key) {
        Some(Value::Number(n)) => *n,
        _ => 0.0,
    }
}

/// The numeric entries of an object.
fn numbers(v: Option<&Value>) -> Vec<(String, f64)> {
    match v {
        Some(Value::Object(entries)) => entries
            .iter()
            .filter_map(|(k, v)| match v {
                Value::Number(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    match field(v, key) {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|v| match v {
                Value::String(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn write_json(name: &str, v: &Value) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    let body = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(&path, body + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Parsed command-line options (every subcommand shares them).
#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
    sets: usize,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        setup_only: false,
        sets: 2,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => o.trace = true,
            "--setup-only" => o.setup_only = true,
            "--sets" => {
                o.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--runs" => {
                o.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if !(1..=60).contains(&o.seconds) {
        return Err(format!("--seconds must be 1..=60, not {}", o.seconds));
    }
    if let Some(w) = &o.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; known: {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(o)
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String], t0: Instant) -> i32 {
    let usage = "usage: bskel-perf run|repeat [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--sets K --runs N]";
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{usage}");
        return 2;
    };
    let opts = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return 2;
        }
    };
    let outcome = match cmd.as_str() {
        "run" => run(&opts),
        "repeat" => repeat(&opts),
        "child" => child(&opts, t0),
        "micro" => {
            println!(
                "{}",
                serde_json::to_string(&metric_object(&micro::run(opts.seed))).expect("serialise")
            );
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{usage}")),
    };
    exit_code(outcome)
}

/// 0 when every output was correct, 1 when the oracle found a breach or a
/// run was invalid, 2 when the benchmark itself could not run.
pub fn exit_code(outcome: Result<bool, String>) -> i32 {
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("bskel-perf: {e}");
            2
        }
    }
}

fn metric_object<S: AsRef<str>>(values: &[(S, f64)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|(k, v)| (k.as_ref().to_owned(), num(*v)))
            .collect(),
    )
}

// -- child side ---------------------------------------------------------

/// The measuring (or set-up-only) child: runs one workload in this
/// process and prints one JSON line describing what happened.
fn child(opts: &Options, t0: Instant) -> Result<bool, String> {
    let name = opts.workload.as_deref().ok_or("child needs --workload")?;
    let args = RunArgs {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        setup_only: opts.setup_only,
        t0,
    };
    let out = workloads::run(name, &args).ok_or(format!("unknown workload {name:?}"))?;
    if opts.setup_only {
        println!(
            "{}",
            serde_json::to_string(&obj(vec![("setup_s", num(out.setup_s))])).expect("serialise")
        );
        // Skip teardown: only the set-up was asked for, and exiting
        // closes every socket and thread with the process.
        std::process::exit(0);
    }
    if opts.trace {
        write_json(&format!("trace_{name}.json"), &trace::to_json(&out.spans))?;
    }
    println!(
        "{}",
        serde_json::to_string(&child_line(name, &out, procfs::peak_rss_mb())).expect("serialise")
    );
    Ok(true)
}

/// The JSON line a measuring child prints for its parent.
pub fn child_line(name: &str, out: &Outcome, peak_rss_mb: f64) -> Value {
    let mut breaches = out.breaches.describe();
    breaches.extend(out.invalid.iter().map(|why| format!("invalid: {why}")));
    obj(vec![
        ("workload", text(name)),
        ("setup_s", num(out.setup_s)),
        ("peak_rss_mb", num(peak_rss_mb)),
        ("e2e", metric_object(&out.e2e)),
        ("layer", metric_object(&out.layer)),
        ("attempted", num(out.attempted as f64)),
        ("failed", num(out.breaches.total() as f64)),
        ("valid", Value::Bool(out.invalid.is_none())),
        (
            "breaches",
            Value::Array(breaches.into_iter().map(text).collect()),
        ),
        ("input_hash", text(format!("{:016x}", out.input_hash))),
    ])
}

// -- parent side --------------------------------------------------------

/// Spawns this executable with `args`, waits (bounded), and parses the
/// last line of its standard output as JSON.
fn spawn_child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    // A child prints a few KiB at most, far below the pipe buffer, so
    // waiting before reading cannot deadlock.
    let started = Instant::now();
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for child: {e}"))?
        {
            Some(status) => break status,
            None if started.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "child {args:?} exceeded {CHILD_DEADLINE:?} and was killed"
                ));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        use std::io::Read;
        pipe.read_to_string(&mut stdout)
            .map_err(|e| format!("read child output: {e}"))?;
    }
    if !status.success() {
        return Err(format!("child {args:?} failed with {status}"));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("child {args:?} printed nothing"))?;
    serde_json::from_str::<Value>(last).map_err(|e| format!("child {args:?} printed no JSON: {e}"))
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Seed used.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// The metrics this run reports, by name (end-to-end or per-layer).
    pub metrics: Vec<(String, f64)>,
    /// Set-up time of each set-up-only child and of the measuring child.
    pub setup_samples: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (oracle breaches).
    pub failed: u64,
    /// Breach and invalidity descriptions.
    pub breaches: Vec<String>,
    /// No breach, and the run was valid.
    pub correct: bool,
    /// Checksum of the generated inputs.
    pub input_hash: String,
}

fn child_args(cmd: &str, workload: &str, o: &Options) -> Vec<String> {
    vec![
        cmd.to_owned(),
        "--workload".into(),
        workload.to_owned(),
        "--seed".into(),
        o.seed.to_string(),
        "--seconds".into(),
        o.seconds.to_string(),
        "--trace".into(),
        u8::from(o.trace).to_string(),
    ]
}

/// Runs one workload: set-up children, (traced) micro child, measuring
/// child; merges what they report.
fn run_one(workload: &str, o: &Options) -> Result<RunResult, String> {
    let mut setup_samples = Vec::new();
    let mut setup_args = child_args("child", workload, o);
    setup_args.push("--setup-only".into());
    let started = Instant::now();
    while setup_samples.len() < SETUP_MIN
        || (setup_samples.len() < SETUP_MAX && started.elapsed() < SETUP_BUDGET)
    {
        setup_samples.push(number(&spawn_child(&setup_args)?, "setup_s"));
    }
    let micro = if o.trace {
        numbers(Some(&spawn_child(&child_args("micro", workload, o))?))
    } else {
        Vec::new()
    };
    let child = spawn_child(&child_args("child", workload, o))?;
    setup_samples.push(number(&child, "setup_s"));

    RunResult::merge(workload, o.seed, o.trace, setup_samples, &micro, &child)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

impl RunResult {
    /// Merges what the children of one run printed: the measuring
    /// child's JSON line, the set-up samples and (traced) the micro
    /// child's timings. A metric the measuring child reports wins over
    /// the isolated timing of the same name; a per-layer metric nobody
    /// reports reads 0; a missing end-to-end metric is an error.
    pub fn merge(
        workload: &str,
        seed: u64,
        trace: bool,
        setup_samples: Vec<f64>,
        micro: &[(String, f64)],
        child: &Value,
    ) -> Result<Self, String> {
        let metrics: Vec<(String, f64)> = if trace {
            let reported = numbers(field(child, "layer"));
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = metrics::value_of(&reported, m.name)
                        .or_else(|| metrics::value_of(micro, m.name));
                    (m.name.to_owned(), v.unwrap_or(0.0))
                })
                .collect()
        } else {
            let mut reported = numbers(field(child, "e2e"));
            reported.push(("setup_s".into(), stats::median(&setup_samples)));
            reported.push(("peak_rss_mb".into(), number(child, "peak_rss_mb")));
            END_TO_END
                .iter()
                .map(|m| {
                    metrics::value_of(&reported, m.name)
                        .map(|v| (m.name.to_owned(), v))
                        .ok_or(format!("{workload} did not report {}", m.name))
                })
                .collect::<Result<_, _>>()?
        };
        let failed = number(child, "failed") as u64;
        let valid = matches!(field(child, "valid"), Some(Value::Bool(true)));
        Ok(Self {
            workload: workload.to_owned(),
            seed,
            trace,
            metrics,
            setup_samples,
            attempted: (number(child, "attempted") as u64).max(1),
            failed,
            breaches: strings(child, "breaches"),
            correct: failed == 0 && valid,
            input_hash: match field(child, "input_hash") {
                Some(Value::String(s)) => s.clone(),
                _ => String::new(),
            },
        })
    }

    /// The one-line result the benchmark contract prescribes.
    pub fn contract_line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                (
                    name.clone(),
                    obj(vec![("value", num(*v)), ("unit", text(unit_of(name)))]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    fn print(&self) {
        println!(
            "workload {} (seed {}, {}, inputs {})",
            self.workload,
            self.seed,
            if self.trace {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            },
            self.input_hash
        );
        for (name, v) in &self.metrics {
            match PER_LAYER.iter().find(|m| m.name == name) {
                // A per-layer number is shown with the prediction that
                // was written down for it before measuring.
                Some(m) => println!("  {name:<34} {v:>16.4} {:<6} -> {}", m.unit, m.moves),
                None => println!("  {name:<34} {v:>16.4} {}", unit_of(name)),
            }
        }
        println!(
            "  {:<34} {:>16.6} ratio ({} failed of {} attempted)",
            "fail_share",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted
        );
        for b in &self.breaches {
            println!("  BREACH {b}");
        }
    }

    fn to_json(&self) -> Value {
        let mut v = match self.contract_line() {
            Value::Object(entries) => entries,
            _ => unreachable!("contract_line builds an object"),
        };
        v.insert(0, ("workload".into(), text(self.workload.clone())));
        v.insert(1, ("seed".into(), num(self.seed as f64)));
        v.insert(2, ("trace".into(), Value::Bool(self.trace)));
        v.push((
            "breaches".into(),
            Value::Array(self.breaches.iter().cloned().map(text).collect()),
        ));
        v.push(("input_hash".into(), text(self.input_hash.clone())));
        v.push((
            "setup_samples_s".into(),
            Value::Array(self.setup_samples.iter().map(|s| num(*s)).collect()),
        ));
        Value::Object(v)
    }
}

/// The machine and commit a result was measured on.
fn provenance(o: &Options) -> Vec<(&'static str, Value)> {
    let git = Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_owned());
    vec![
        ("seed", num(o.seed as f64)),
        ("seconds", num(o.seconds as f64)),
        ("git_commit", text(git)),
        ("nproc", num(procfs::nproc() as f64)),
        ("kernel", text(kernel)),
        ("harness_threads", num(workloads::HARNESS_THREADS as f64)),
    ]
}

/// Refuses to measure with more busy harness threads than CPUs: the
/// generator would then time-share with itself.
pub fn check_machine(n: usize) -> Result<(), String> {
    if workloads::HARNESS_THREADS > n {
        return Err(format!(
            "the harness runs {} busy threads but only {n} CPU(s) are available; refusing to measure",
            workloads::HARNESS_THREADS
        ));
    }
    Ok(())
}

fn selected(o: &Options) -> Vec<&str> {
    match &o.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    }
}

fn run(o: &Options) -> Result<bool, String> {
    check_machine(procfs::nproc())?;
    let mut results = Vec::new();
    for w in selected(o) {
        let r = run_one(w, o)?;
        r.print();
        results.push(r);
    }
    let all_correct = results.iter().all(|r| r.correct);
    let mut summary = provenance(o);
    summary.push(("trace", Value::Bool(o.trace)));
    summary.push((
        "workloads",
        Value::Array(results.iter().map(RunResult::to_json).collect()),
    ));
    summary.push(("correct", Value::Bool(all_correct)));
    summary.push(("claim", Value::Null));
    let path = write_json("result.json", &obj(summary))?;
    println!("wrote {}", path.display());
    let last = match (&o.workload, results.as_slice()) {
        (Some(_), [only]) => only.contract_line(),
        _ => obj(vec![
            ("correct", Value::Bool(all_correct)),
            ("workloads", num(results.len() as f64)),
            ("claim", Value::Null),
        ]),
    };
    println!("{}", serde_json::to_string(&last).expect("serialise"));
    Ok(all_correct)
}

/// `repeat`: `sets` interleaved sets of `runs` untraced runs each, every
/// run on its own seed; per workload and end-to-end metric, each set's
/// median and quartiles, the spread over all runs, and whether both stay
/// within the metric's bound.
fn repeat(o: &Options) -> Result<bool, String> {
    check_machine(procfs::nproc())?;
    if o.sets < 2 || o.runs < 2 {
        return Err("repeat needs --sets >= 2 and --runs >= 2".into());
    }
    let mut all_correct = true;
    let mut all_agree = true;
    let mut report = Vec::new();
    for w in selected(o) {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; o.sets];
        for run in 0..o.runs {
            for (set, per_metric) in values.iter_mut().enumerate() {
                let seed = o.seed + (run * o.sets + set) as u64;
                let r = run_one(
                    w,
                    &Options {
                        seed,
                        trace: false,
                        ..o.clone()
                    },
                )?;
                if !r.correct {
                    all_correct = false;
                    r.print();
                }
                for (slot, (_, v)) in per_metric.iter_mut().zip(&r.metrics) {
                    slot.push(*v);
                }
            }
        }
        println!(
            "workload {w}: {} sets x {} runs, seeds {}..",
            o.sets, o.runs, o.seed
        );
        let mut rows = Vec::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|s| stats::median(&s[i])).collect();
            let pooled: Vec<f64> = values.iter().flat_map(|s| s[i].iter().copied()).collect();
            let spread = stats::spread(&pooled);
            let medians_agree = medians
                .windows(2)
                .all(|p| !m.better.worse_by_more_than(p[0], p[1], m.bound));
            let spread_ok = m.name == "setup_s" || spread <= m.bound;
            all_agree &= medians_agree && spread_ok;
            println!(
                "  {:<18} medians {:?} {} | spread {:.4} (bound {}) | {}",
                m.name,
                medians,
                m.unit,
                spread,
                m.bound,
                if medians_agree && spread_ok {
                    "agree"
                } else {
                    "DISAGREE"
                }
            );
            let sets = values
                .iter()
                .map(|s| {
                    let q = stats::quartiles(&s[i]).unwrap_or([0.0; 3]);
                    obj(vec![
                        (
                            "values",
                            Value::Array(s[i].iter().map(|v| num(*v)).collect()),
                        ),
                        ("q1", num(q[0])),
                        ("median", num(q[1])),
                        ("q3", num(q[2])),
                    ])
                })
                .collect();
            let q = stats::quartiles(&pooled).unwrap_or([0.0; 3]);
            rows.push(obj(vec![
                ("metric", text(m.name)),
                ("unit", text(m.unit)),
                ("bound", num(m.bound)),
                ("sets", Value::Array(sets)),
                ("q1", num(q[0])),
                ("median", num(q[1])),
                ("q3", num(q[2])),
                ("spread", num(spread)),
                ("medians_agree", Value::Bool(medians_agree)),
                ("spread_within_bound", Value::Bool(spread_ok)),
            ]));
        }
        report.push(obj(vec![
            ("workload", text(w)),
            ("metrics", Value::Array(rows)),
        ]));
    }
    let mut summary = provenance(o);
    summary.push(("sets", num(o.sets as f64)));
    summary.push(("runs", num(o.runs as f64)));
    summary.push(("workloads", Value::Array(report)));
    summary.push(("correct", Value::Bool(all_correct)));
    summary.push(("agree", Value::Bool(all_agree)));
    summary.push(("claim", Value::Null));
    let path = write_json("repeat.json", &obj(summary))?;
    println!("wrote {}", path.display());
    println!("all runs correct: {all_correct}; all metrics agree within their bounds: {all_agree}");
    Ok(all_correct)
}

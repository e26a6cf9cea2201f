//! Self-inspection through Linux `/proc`: CPU time and context switches
//! per thread, peak resident memory, descriptors and threads.
//!
//! A read that fails yields zeros instead of a panic, so the benchmark
//! degrades to "not measured" where `/proc` is missing.

use std::fs;

/// `/proc` clock ticks per second (`USER_HZ`); 100 on every Linux ABI
/// this repository targets.
const TICKS_PER_S: f64 = 100.0;

/// One thread's counters at one instant.
#[derive(Debug, Clone)]
pub struct ThreadSample {
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// CPU seconds consumed (user + system).
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

/// All live threads plus the process-wide CPU total at one instant.
#[derive(Debug, Clone, Default)]
pub struct CpuSnapshot {
    /// One entry per live thread, keyed by thread id.
    pub threads: Vec<(u64, ThreadSample)>,
    /// CPU seconds of the whole process, exited threads included.
    pub process_cpu_s: f64,
}

/// The fields of a `stat` line after the parenthesised name (which may
/// itself contain spaces): index 0 is the state, 11/12 utime/stime.
fn stat_tail(stat: &str) -> Vec<&str> {
    stat.rsplit_once(')')
        .map(|(_, tail)| tail.split_whitespace().collect())
        .unwrap_or_default()
}

fn ticks_to_s(fields: &[&str]) -> f64 {
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// CPU seconds of one thread: `schedstat` (nanosecond run time) where
/// the kernel provides it, else `stat` ticks.
fn thread_cpu_s(dir: &std::path::Path) -> f64 {
    if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
        if let Some(ns) = s
            .split_whitespace()
            .next()
            .and_then(|n| n.parse::<f64>().ok())
        {
            return ns / 1e9;
        }
    }
    fs::read_to_string(dir.join("stat"))
        .map(|s| ticks_to_s(&stat_tail(&s)))
        .unwrap_or(0.0)
}

/// Reads every thread's counters and the process CPU total.
pub fn cpu_snapshot() -> CpuSnapshot {
    let mut snap = CpuSnapshot::default();
    if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
        snap.process_cpu_s = ticks_to_s(&stat_tail(&stat));
    }
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return snap;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let Ok(name) = fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited between readdir and open
        };
        let status = fs::read_to_string(dir.join("status")).unwrap_or_default();
        snap.threads.push((
            tid,
            ThreadSample {
                name: name.trim_end().to_owned(),
                cpu_s: thread_cpu_s(&dir),
                ctx_switches: status_field(&status, "voluntary_ctxt_switches:")
                    + status_field(&status, "nonvoluntary_ctxt_switches:"),
            },
        ));
    }
    snap
}

/// CPU seconds and context switches between two snapshots.
#[derive(Debug, Clone, Default)]
pub struct CpuDelta {
    /// Whole-process CPU seconds (includes threads that exited).
    pub process_cpu_s: f64,
    /// Per-thread `(name, cpu seconds, context switches)` for threads
    /// alive at the second snapshot.
    pub threads: Vec<(String, f64, u64)>,
}

impl CpuDelta {
    /// `after − before`; a thread born in between counts from zero.
    pub fn between(before: &CpuSnapshot, after: &CpuSnapshot) -> Self {
        let threads = after
            .threads
            .iter()
            .map(|(tid, a)| {
                let b = before
                    .threads
                    .iter()
                    .find(|(t, _)| t == tid)
                    .map(|(_, s)| s);
                (
                    a.name.clone(),
                    a.cpu_s - b.map_or(0.0, |s| s.cpu_s),
                    a.ctx_switches - b.map_or(0, |s| s.ctx_switches),
                )
            })
            .collect();
        Self {
            process_cpu_s: after.process_cpu_s - before.process_cpu_s,
            threads,
        }
    }

    /// CPU seconds of threads whose name satisfies `pick`.
    pub fn cpu_of(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.threads
            .iter()
            .filter(|t| pick(&t.0))
            .map(|t| t.1)
            .sum()
    }

    /// Context switches of threads whose name satisfies `pick`.
    pub fn switches_of(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.threads
            .iter()
            .filter(|t| pick(&t.0))
            .map(|t| t.2)
            .sum()
    }

    /// CPU seconds of everything except the load generator and drain:
    /// the process total minus the `perf-*` threads.
    pub fn system_cpu_s(&self) -> f64 {
        (self.process_cpu_s - self.cpu_of(is_harness_thread)).max(0.0)
    }
}

/// True for the benchmark's own load-generating threads.
pub fn is_harness_thread(name: &str) -> bool {
    name.starts_with("perf-")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .map(|s| status_field(&s, "VmHWM:") as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Open file descriptors (excluding the one the scan itself holds).
pub fn fd_count() -> usize {
    fs::read_dir("/proc/self/fd")
        .map(|d| d.count().saturating_sub(1))
        .unwrap_or(0)
}

/// Live OS threads.
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_tail_survives_spaces_in_the_name() {
        let line = "12 (a b) c) R 1 2 3 4 5 6 7 8 9 10 700 300 0";
        let f = stat_tail(line);
        assert_eq!(f[0], "R");
        assert!((ticks_to_s(&f) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn busy_thread_shows_up_by_name_with_cpu_time() {
        let before = cpu_snapshot();
        let h = std::thread::Builder::new()
            .name("perf-gen".into())
            .spawn(|| {
                let t0 = std::time::Instant::now();
                let mut x = 1u64;
                while t0.elapsed().as_millis() < 60 {
                    x = std::hint::black_box(x.wrapping_mul(3));
                }
                cpu_snapshot()
            })
            .unwrap();
        let after = h.join().unwrap();
        let d = CpuDelta::between(&before, &after);
        let gen = d.cpu_of(|n| n == "perf-gen");
        assert!(gen > 0.02, "spinning thread used {gen} s");
        assert!(is_harness_thread("perf-drain") && !is_harness_thread("ff-worker"));
        assert!(peak_rss_mb() > 0.0 && fd_count() > 0 && thread_count() >= 1);
    }
}

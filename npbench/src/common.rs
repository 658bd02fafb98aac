//! What every workload shares: the outcome of a run, repeated set-up, the
//! process's own vital signs, and the scratch directory.

use std::path::PathBuf;
use std::time::Instant;

use crate::probes::Metrics;
use crate::record::{median_rate, of_kind, PhaseKind, PhaseLog, Sample, Served};
use crate::stats::Summary;

/// What one workload run hands back: the verdict on its outputs, its
/// metrics by name, and (traced runs) each traced request's spans with the
/// solo execution estimate of its endpoint.
pub struct Outcome {
    pub attempted: u64,
    /// Operations that did not end in a correct reply: refused, typed
    /// error, timed out, or wrong.
    pub failed: u64,
    /// Those of `failed` whose reply came back and was wrong (output bits,
    /// or on `sim_direct` charged cycles). A refusal under a stall of the
    /// host is a failed operation; only this makes the run incorrect.
    pub wrong: u64,
    pub metrics: Metrics,
    pub spans: Vec<(Sample, f64)>,
}

impl Outcome {
    /// The untraced outcome of a workload that serves requests: the
    /// repetitions' figures, the set-up time, and the memory high-water mark.
    pub fn end_to_end(s: Served, setup_s: Summary) -> Outcome {
        Outcome {
            attempted: s.attempted,
            failed: s.failed,
            wrong: s.mismatches,
            metrics: vec![
                ("throughput_rps", s.throughput_rps),
                ("lat_p50_ms", s.lat_p50_ms),
                ("lat_p90_ms", s.lat_p90_ms),
                ("slo_met_share", s.slo_met_share),
                ("sim_mcycles_per_s", s.sim_mcycles_per_s),
                ("ofm_mwords_per_s", s.ofm_mwords_per_s),
                ("setup_s", setup_s),
                ("peak_rss_mb", Summary::one(peak_rss_mb(), 1)),
            ],
            spans: Vec::new(),
        }
    }
}

/// How one invocation is asked to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// `setup_s`: the program under test is built over and over, in one burst
/// before the run and one after it, each a twenty-fourth of the run's
/// seconds long (at least [`MIN_SETUPS`] set-ups). A set-up takes
/// microseconds to a millisecond, so a single burst samples the host in one
/// instant only; two bursts a run apart see it twice. The median over all
/// of them is reported.
#[derive(Default)]
pub struct Setups {
    times: Vec<f64>,
}

const MIN_SETUPS: usize = 5;

impl Setups {
    /// One burst: build and tear down repeatedly, hand back the last build.
    pub fn burst<T>(&mut self, seconds: f64, mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> T {
        let started = Instant::now();
        let mut built = 0;
        loop {
            let t0 = Instant::now();
            let program = setup();
            self.times.push(t0.elapsed().as_secs_f64());
            built += 1;
            if built >= MIN_SETUPS && started.elapsed().as_secs_f64() >= seconds / 24.0 {
                return program;
            }
            teardown(program);
        }
    }

    pub fn summary(&self) -> Summary {
        Summary::over(&self.times)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Server worker shards: one core is left to the load generator, so the
/// numbers measure the program and not the scheduler.
pub fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Files the program under test writes (journals) go beside the
/// benchmark's executable, so inside the build directory, under a name of
/// this process's own.
fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let dir = exe.parent().expect("the executable sits in a directory");
    dir.join(format!("npbench-tmp-{}", std::process::id()))
}

/// A fresh directory under the scratch root; [`remove_scratch`] removes them all.
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = scratch_root().join(label);
    std::fs::create_dir_all(&dir).expect("the build directory is writable");
    dir
}

pub fn remove_scratch() {
    let _ = std::fs::remove_dir_all(scratch_root());
}

/// The harness's own figures, part of every traced run.
pub fn bench_metrics(logs: &[PhaseLog], pool_build_s: f64, mismatches: u64) -> Metrics {
    let (untraced, traced) = (
        median_rate(&of_kind(logs, PhaseKind::Measure)),
        median_rate(&of_kind(logs, PhaseKind::Traced)),
    );
    let overhead = if untraced > 0.0 && traced > 0.0 {
        1.0 - traced / untraced
    } else {
        0.0
    };
    vec![
        ("bench.pool_build_s", Summary::one(pool_build_s, 1)),
        ("bench.trace_overhead_share", Summary::one(overhead, 2)),
        ("bench.verify_mismatches", Summary::one(mismatches as f64, 1)),
        ("bench.nproc", Summary::one(nproc() as f64, 1)),
        ("bench.workers", Summary::one(workers() as f64, 1)),
    ]
}

//! A run's timeline (warm-up, then repetitions) and what the harness keeps
//! of each request: counts and one latency per request always, the
//! request's span boundaries only in traced repetitions.

use std::time::Instant;

use crate::stats::{median, percentile_over_reps, reps_per_chunk, Summary};

/// Latency limit of a served single-layer request, from the instant it was
/// due.
pub const REQUEST_SLO_NS: u64 = 25_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Discarded: caches fill, the watchdog and batcher settle.
    Warmup,
    /// One repetition, counted, no spans kept.
    Measure,
    /// One repetition with every request's spans kept in memory.
    Traced,
}

/// Repetitions of an untraced run: many and short, so that their median
/// shrugs off a burst of host noise a few seconds long (see `stats`).
pub const REPS: usize = 20;

/// The plan of an untraced run of `seconds`: a sixth is warm-up, the rest
/// [`REPS`] equal repetitions.
pub fn measured_plan(seconds: f64) -> Vec<(PhaseKind, f64)> {
    let mut plan = vec![(PhaseKind::Warmup, seconds / 6.0)];
    plan.extend([(PhaseKind::Measure, seconds * 5.0 / 6.0 / REPS as f64); REPS]);
    plan
}

/// The serving part of a traced run: after the warm-up, untraced and
/// traced repetitions alternate so their median throughputs compare; the rest
/// of the run's time goes to the reference segment and the isolated probes.
pub fn traced_plan(seconds: f64) -> Vec<(PhaseKind, f64)> {
    let mut plan = vec![(PhaseKind::Warmup, seconds / 8.0)];
    for _ in 0..4 {
        plan.extend([(PhaseKind::Measure, seconds / 16.0), (PhaseKind::Traced, seconds / 16.0)]);
    }
    plan
}

/// One request as the harness saw it. All instants are ns from the start of
/// the timeline; together they are the request's spans: `req` is
/// `due_ns..done_ns`, `bench.gen_late` the first `late_ns` of it, then the
/// submitting call (`serve.submit` / `net.send`) for `call_ns`, then
/// `serve.core` for the latency the server reported, and what is left over
/// is `net.wire`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub endpoint: u32,
    pub due_ns: u64,
    pub late_ns: u64,
    pub call_ns: u64,
    pub core_ns: u64,
    pub done_ns: u64,
    pub words: u64,
    pub batch: u32,
    pub ok: bool,
    pub mismatch: bool,
}

impl Sample {
    pub fn total_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// `net.wire`: the part of the round trip that is neither generator
    /// lateness, nor the submitting call, nor the server's own latency.
    pub fn wire_ns(&self) -> u64 {
        self.total_ns().saturating_sub(self.late_ns + self.call_ns + self.core_ns)
    }
}

#[derive(Debug)]
pub struct PhaseLog {
    pub kind: PhaseKind,
    pub secs: f64,
    pub lat_ms: Vec<f64>,
    pub correct: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub within_slo: u64,
    pub words: u64,
    /// Simulated cycles the program charged while the phase ran.
    pub cycles: u64,
    /// Kept only when `kind` is `Traced`.
    pub spans: Vec<Sample>,
}

impl PhaseLog {
    pub fn empty(kind: PhaseKind, secs: f64) -> PhaseLog {
        PhaseLog {
            kind,
            secs,
            lat_ms: Vec::new(),
            correct: 0,
            failed: 0,
            mismatches: 0,
            within_slo: 0,
            words: 0,
            cycles: 0,
            spans: Vec::new(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.correct + self.failed
    }
}

/// The clock and the per-phase logs of one driver call.
pub struct Recorder<'a> {
    t0: Instant,
    /// Phase `i` runs from `bounds[i]` to `bounds[i + 1]` (ns from `t0`).
    bounds: Vec<u64>,
    logs: Vec<PhaseLog>,
    /// A correct reply later than this after its due time misses the limit.
    slo_ns: u64,
    /// Reads the program's cumulative simulated-cycle counter.
    cycles: Box<dyn Fn() -> u64 + 'a>,
    /// The counter at each phase boundary passed so far.
    marks: Vec<u64>,
}

impl<'a> Recorder<'a> {
    pub fn start(plan: &[(PhaseKind, f64)], slo_ns: u64, cycles: impl Fn() -> u64 + 'a) -> Recorder<'a> {
        let mut bounds = vec![0u64];
        let mut logs = Vec::new();
        for &(kind, secs) in plan {
            bounds.push(bounds[bounds.len() - 1] + (secs * 1e9) as u64);
            logs.push(PhaseLog::empty(kind, secs));
        }
        let marks = vec![cycles()];
        Recorder {
            t0: Instant::now(),
            bounds,
            logs,
            slo_ns,
            cycles: Box::new(cycles),
            marks,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn end_ns(&self) -> u64 {
        self.bounds[self.bounds.len() - 1]
    }

    /// Read the cycle counter at each phase boundary `now_ns` has passed.
    /// Drivers call this once per loop turn, so a mark is at most one
    /// request late.
    pub fn tick(&mut self, now_ns: u64) {
        while self.marks.len() < self.bounds.len() && now_ns >= self.bounds[self.marks.len()] {
            self.marks.push((self.cycles)());
        }
    }

    /// Log one request under the phase that holds `at_ns` (its completion
    /// in a closed loop, its due time in an open one). Warm-up and anything
    /// past the end are dropped.
    pub fn record(&mut self, at_ns: u64, sample: Sample) {
        let Some(i) = (0..self.logs.len()).find(|&i| at_ns >= self.bounds[i] && at_ns < self.bounds[i + 1]) else {
            return;
        };
        let slo_ns = self.slo_ns;
        let log = &mut self.logs[i];
        if log.kind == PhaseKind::Warmup {
            return;
        }
        if sample.ok {
            log.correct += 1;
            log.words += sample.words;
            log.lat_ms.push(sample.total_ns() as f64 / 1e6);
            log.within_slo += u64::from(sample.total_ns() <= slo_ns);
        } else {
            log.failed += 1;
            log.mismatches += u64::from(sample.mismatch);
        }
        if log.kind == PhaseKind::Traced {
            log.spans.push(sample);
        }
    }

    /// A request that never got a reply to time (refused, typed error,
    /// timeout).
    pub fn record_failure(&mut self, at_ns: u64, endpoint: u32) {
        self.record(
            at_ns,
            Sample {
                endpoint,
                due_ns: at_ns,
                late_ns: 0,
                call_ns: 0,
                core_ns: 0,
                done_ns: at_ns,
                words: 0,
                batch: 0,
                ok: false,
                mismatch: false,
            },
        );
    }

    pub fn finish(mut self) -> Vec<PhaseLog> {
        self.tick(u64::MAX);
        for (i, log) in self.logs.iter_mut().enumerate() {
            log.cycles = self.marks[i + 1] - self.marks[i];
        }
        self.logs
    }
}

/// The figures every served workload derives from its repetitions.
pub struct Served {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub throughput_rps: Summary,
    pub lat_p50_ms: Summary,
    pub lat_p90_ms: Summary,
    /// Too unsteady on this box to be gated: a per-layer diagnostic.
    pub lat_p99_ms: Summary,
    pub slo_met_share: Summary,
    pub sim_mcycles_per_s: Summary,
    pub ofm_mwords_per_s: Summary,
}

pub fn of_kind(logs: &[PhaseLog], kind: PhaseKind) -> Vec<&PhaseLog> {
    logs.iter().filter(|l| l.kind == kind).collect()
}

/// Median over repetitions of one per-repetition figure.
pub fn over_reps(reps: &[&PhaseLog], figure: impl Fn(&PhaseLog) -> f64) -> Summary {
    Summary::over(&reps.iter().map(|l| figure(l)).collect::<Vec<_>>())
}

pub fn throughput(log: &PhaseLog) -> f64 {
    log.correct as f64 / log.secs
}

/// The median throughput of `logs`; 0 when there are none.
pub fn median_rate(logs: &[&PhaseLog]) -> f64 {
    if logs.is_empty() {
        return 0.0;
    }
    median(&logs.iter().map(|l| throughput(l)).collect::<Vec<_>>())
}

/// Consecutive repetitions merged into one, for workloads too slow to
/// put enough operations into a single repetition (see `stats`).
fn merged(chunk: &[&PhaseLog]) -> PhaseLog {
    let mut sum = PhaseLog::empty(chunk[0].kind, 0.0);
    for l in chunk {
        sum.secs += l.secs;
        sum.correct += l.correct;
        sum.failed += l.failed;
        sum.within_slo += l.within_slo;
        sum.words += l.words;
        sum.cycles += l.cycles;
    }
    sum
}

pub fn served(logs: &[PhaseLog]) -> Served {
    let reps: Vec<&PhaseLog> = logs.iter().filter(|l| l.kind != PhaseKind::Warmup).collect();
    let lat: Vec<&[f64]> = reps.iter().map(|l| l.lat_ms.as_slice()).collect();
    let sizes: Vec<usize> = reps.iter().map(|l| l.attempted() as usize).collect();
    let chunks: Vec<PhaseLog> = reps.chunks(reps_per_chunk(&sizes)).map(merged).collect();
    let chunks: Vec<&PhaseLog> = chunks.iter().collect();
    Served {
        attempted: reps.iter().map(|l| l.attempted()).sum(),
        failed: reps.iter().map(|l| l.failed).sum(),
        mismatches: reps.iter().map(|l| l.mismatches).sum(),
        throughput_rps: over_reps(&chunks, throughput),
        lat_p50_ms: percentile_over_reps(&lat, 50.0),
        lat_p90_ms: percentile_over_reps(&lat, 90.0),
        lat_p99_ms: percentile_over_reps(&lat, 99.0),
        slo_met_share: over_reps(&chunks, |l| l.within_slo as f64 / l.attempted().max(1) as f64),
        sim_mcycles_per_s: over_reps(&chunks, |l| l.cycles as f64 / l.secs / 1e6),
        ofm_mwords_per_s: over_reps(&chunks, |l| l.words as f64 / l.secs / 1e6),
    }
}

/// Median over traced requests of one span figure, in `unit_ns` units.
pub fn span_p50(spans: &[Sample], unit_ns: f64, figure: impl Fn(&Sample) -> u64) -> f64 {
    let values: Vec<f64> = spans.iter().filter(|s| s.ok).map(|s| figure(s) as f64 / unit_ns).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due_ns: u64, total_ns: u64, ok: bool) -> Sample {
        Sample {
            endpoint: 0,
            due_ns,
            late_ns: 10,
            call_ns: 20,
            core_ns: 30,
            done_ns: due_ns + total_ns,
            words: 8,
            batch: 1,
            ok,
            mismatch: !ok,
        }
    }

    #[test]
    fn requests_land_in_their_phase_and_warmup_is_dropped() {
        let plan = [(PhaseKind::Warmup, 1.0), (PhaseKind::Measure, 1.0), (PhaseKind::Traced, 1.0)];
        let counter = std::cell::Cell::new(0u64);
        let mut rec = Recorder::start(&plan, 5000, || {
            counter.set(counter.get() + 100);
            counter.get()
        });
        rec.record(500_000_000, sample(0, 1000, true));
        rec.record(1_500_000_000, sample(0, 1000, true));
        rec.record(1_600_000_000, sample(0, 5001, true));
        rec.record(2_500_000_000, sample(0, 1000, false));
        rec.record(3_500_000_000, sample(0, 1000, true));
        let logs = rec.finish();
        assert_eq!((logs[0].correct, logs[0].failed), (0, 0));
        assert_eq!((logs[1].correct, logs[1].within_slo, logs[1].words), (2, 1, 16));
        assert_eq!((logs[2].failed, logs[2].mismatches, logs[2].spans.len()), (1, 1, 1));
        assert!(logs[1].spans.is_empty());
        assert_eq!(logs.iter().map(|l| l.cycles).collect::<Vec<_>>(), [100, 100, 100]);
        let s = served(&logs);
        assert_eq!((s.attempted, s.failed), (3, 1));
        assert_eq!(sample(0, 100, true).wire_ns(), 40);
    }
}

//! The benchmark's definition: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics. `BENCHMARK.json` is
//! this file rendered (a test holds the two equal); `--compare` reads its
//! bounds from here, and every name a run emits is checked against it.

use crate::json::{obj, s, Json};

/// What one run of the driver's command measures for, in seconds.
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sim_direct",
        why: "one thread, no server: both simulator tiers on the Table 4 machine; a serving change must show nothing here",
    },
    Workload {
        name: "serve_saturate",
        why: "in-process server, closed loop, 16 in flight, unkeyed: capacity of queue, batcher, supervisor and fast tier",
    },
    Workload {
        name: "serve_keyed_saturate",
        why: "same traffic journaled and keyed, 5% re-sent keys: journal writes and dedup reads beside plain serving",
    },
    Workload {
        name: "serve_open",
        why: "open loop, Poisson 1500 rps, three classes, timed from due: queue wait and linger show as latency",
    },
    Workload {
        name: "wire_saturate",
        why: "serve_saturate through the TCP front-end, one connection, 16 in flight: the difference is the wire cost",
    },
    Workload {
        name: "wire_pingpong",
        why: "one request at a time over the wire: the unloaded floors (reactor tick, linger, codec) a full queue hides",
    },
    Workload {
        name: "pipeline_saturate",
        why: "whole MobileNetV1-0.25-32 through the 2-stage pipeline, 4 in flight: the second request lifecycle",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before `--compare` (and the driver) says `worse`.
    pub bound: f64,
    /// Counts that must repeat to the digit: `--compare` calls any
    /// difference `worse`, whichever way it points.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (the README says what an
/// "operation" is on each). Host time unless the name says `sim`; a
/// simulated-cycle figure per host second is a simulator speed. The bounds
/// are what the shared box resolves, measured (README, *Repeatability*):
/// between ten runs its host-time figures spread 1 to 18 % on a good day.
pub const END_TO_END: [Metric; 8] = [
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("lat_p90_ms", "ms", Lower, 0.25),
    e2e("slo_met_share", "share", Higher, 0.05),
    e2e("sim_mcycles_per_s", "Mcycles/s", Higher, 0.25),
    e2e("ofm_mwords_per_s", "Mwords/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics, named `<module>.<what>`. A metric is 0 on a workload
/// that never enters its layer.
pub const PER_LAYER: [Metric; 71] = [
    layer("nn.golden_ns_per_word", "ns", Lower),
    layer("sim.compile_ms_per_layer", "ms", Lower),
    layer("sim.compile_model_ms", "ms", Lower),
    layer("sim.cycle_ns_per_sim_cycle", "ns", Lower),
    layer("sim.cycle_ns_per_sim_cycle.pwc", "ns", Lower),
    layer("sim.cycle_ns_per_sim_cycle.dwc_s1", "ns", Lower),
    layer("sim.cycle_ns_per_sim_cycle.dwc_general", "ns", Lower),
    layer("sim.cycle_ns_per_pe_cycle", "ns", Lower),
    exact("sim.cycles_total", "cycles"),
    exact("sim.cycle_compute_cycles", "cycles"),
    exact("sim.cycle_dma_cycles", "cycles"),
    layer("sim.cycle_pe_utilization", "share", Higher),
    layer("sim.fast_ns_per_word", "ns", Lower),
    layer("sim.fast_ns_per_word.pwc", "ns", Lower),
    layer("sim.fast_ns_per_word.dwc_s1", "ns", Lower),
    layer("sim.fast_ns_per_word.dwc_general", "ns", Lower),
    layer("sim.fast_over_golden_ratio", "ratio", Lower),
    layer("sim.integrity_share.cycle", "share", Lower),
    layer("sim.integrity_share.fast", "share", Lower),
    exact("sim.integrity_checked", "count"),
    exact("sim.integrity_failed", "count"),
    exact("sim.tier_cycle_mismatches", "count"),
    exact("sim.closed_form_mismatches", "count"),
    exact("sim.golden_bit_mismatches", "count"),
    exact("sim.paper_table5_err_pct_max", "%"),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.core_latency_ms_p50", "ms", Lower),
    layer("serve.exec_est_ms_p50", "ms", Lower),
    layer("serve.overhead_ms_p50", "ms", Lower),
    layer("serve.exec_share", "share", Higher),
    layer("serve.batch_mean", "count", Higher),
    layer("serve.worker_busy_share", "share", Higher),
    layer("serve.served_over_direct_ratio", "ratio", Higher),
    layer("serve.sim_cycles_per_op", "cycles", Lower),
    layer("serve.max_queue_depth", "count", Lower),
    layer("serve.retries", "count", Lower),
    layer("serve.rejected_queue_full", "count", Lower),
    layer("serve.cross_checks", "count", Lower),
    layer("serve.cache_hit_ns", "ns", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.cache_misses", "count", Lower),
    layer("serve.submit_idem_us_p50", "us", Lower),
    layer("serve.journal_admit_cost_us", "us", Lower),
    layer("serve.journal_appends_per_op", "count", Lower),
    layer("serve.journal_fsyncs_per_op", "count", Lower),
    layer("serve.journal_bytes_per_op", "bytes", Lower),
    layer("serve.journal_encode_ns", "ns", Lower),
    layer("serve.journal_replay_mb_per_s", "MB/s", Higher),
    layer("serve.dedup_hits", "count", Higher),
    exact("serve.duplicate_executions", "count"),
    layer("serve.keyed_over_unkeyed_ratio", "ratio", Higher),
    layer("serve.pipeline_core_latency_ms_p50", "ms", Lower),
    layer("serve.pipeline_direct_chain_ms", "ms", Lower),
    layer("serve.pipeline_overhead_ratio", "ratio", Lower),
    layer("serve.pipeline_stage_pred_imbalance", "ratio", Lower),
    layer("serve.pipeline_handoff_words", "words", Lower),
    layer("net.encode_ns_per_frame", "ns", Lower),
    layer("net.decode_ns_per_frame", "ns", Lower),
    layer("net.frame_mb_per_s", "MB/s", Higher),
    layer("net.wire_overhead_ms_p50", "ms", Lower),
    layer("net.bytes_rx_per_op", "bytes", Lower),
    layer("net.bytes_tx_per_op", "bytes", Lower),
    layer("net.wire_over_inproc_ratio", "ratio", Higher),
    layer("net.sheds", "count", Lower),
    layer("bench.gen_late_p99_ms", "ms", Lower),
    layer("bench.lat_p99_ms", "ms", Lower),
    layer("bench.pool_build_s", "s", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    exact("bench.verify_mismatches", "count"),
    layer("bench.nproc", "count", Higher),
    layer("bench.workers", "count", Higher),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The dictionary entry for `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json`, with exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "npbench/Cargo.toml",
        "--",
    ];
    obj([
        ("command", Json::Arr(command.iter().map(|a| s(a)).collect())),
        ("paths", Json::Arr(vec![s("npbench")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| obj([("name", s(m.name)), ("unit", s(m.unit)), ("better", s(m.better.as_str()))]))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, extra: &str, max: usize) -> bool {
        !name.is_empty() && name.len() <= max && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name, "_.-", 64), "name {}", m.name);
            assert!(m.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(well_formed(m.unit, "_/%.-", 16), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(
                well_formed(w.name, "_.-", 64) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = lookup("setup_s").expect("the contract requires setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_on_disk_is_this_dictionary_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json().pretty(),
            "regenerate with `npbench --print-benchmark-json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}

//! What a run leaves behind: the result line the driver reads, the flat
//! `results.tsv` (one row per workload and metric, so `--compare` needs no
//! parser), `results.json` rendered from it, and `trace.jsonl`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::common::Outcome;
use crate::json::{obj, s, Json, SCHEMA};
use crate::metrics::{self, Metric};
use crate::record::Sample;
use crate::stats::Summary;

/// One row of `results.tsv`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// `end_to_end`, `per_layer`, or `count` (attempted, failed,
    /// `failed_share`).
    pub kind: String,
    pub summary: Summary,
    pub unit: String,
}

const HEADER: &str = "workload\tmetric\tkind\tvalue\tq1\tq3\tn\tunit";

fn schema_line() -> String {
    format!("#schema={SCHEMA}")
}

impl Row {
    fn line(&self) -> String {
        let Summary { value, q1, q3, n } = self.summary;
        format!(
            "{}\t{}\t{}\t{value}\t{q1}\t{q3}\t{n}\t{}",
            self.workload, self.metric, self.kind, self.unit
        )
    }

    fn parse(line: &str) -> Result<Row, String> {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| f[i].parse::<f64>().map_err(|e| format!("{e} in row `{line}`"));
        if f.len() != 8 {
            return Err(format!("expected 8 columns in row `{line}`"));
        }
        Ok(Row {
            workload: f[0].to_string(),
            metric: f[1].to_string(),
            kind: f[2].to_string(),
            summary: Summary {
                value: num(3)?,
                q1: num(4)?,
                q3: num(5)?,
                n: f[6].parse().map_err(|e| format!("{e} in row `{line}`"))?,
            },
            unit: f[7].to_string(),
        })
    }
}

/// The dictionary's metrics of the mode that ran, each with the value the
/// run gave it. A per-layer metric the workload never set is 0: the layer
/// was not entered.
///
/// # Panics
///
/// Panics when the run emitted a name the dictionary does not declare for
/// that mode, or left an end-to-end metric out: both are harness bugs.
pub fn by_dictionary(outcome: &Outcome, trace: bool) -> Vec<(&'static Metric, Summary)> {
    let declared: &[Metric] = if trace { &metrics::PER_LAYER } else { &metrics::END_TO_END };
    for (name, _) in &outcome.metrics {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "`{name}` is not declared for this mode"
        );
    }
    declared
        .iter()
        .map(|m| {
            let found = outcome.metrics.iter().find(|(name, _)| *name == m.name).map(|(_, v)| *v);
            assert!(trace || found.is_some(), "end-to-end metric `{}` was not measured", m.name);
            (m, found.unwrap_or(Summary::one(0.0, 0)))
        })
        .collect()
}

/// The rows one run adds to `results.tsv`.
pub fn rows(workload: &str, outcome: &Outcome, trace: bool) -> Vec<Row> {
    let kind = if trace { "per_layer" } else { "end_to_end" };
    let mut rows: Vec<Row> = by_dictionary(outcome, trace)
        .into_iter()
        .map(|(m, summary)| Row {
            workload: workload.to_string(),
            metric: m.name.to_string(),
            kind: kind.to_string(),
            summary,
            unit: m.unit.to_string(),
        })
        .collect();
    if !trace {
        let count = |metric: &str, value: f64, unit: &str| Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            kind: "count".to_string(),
            summary: Summary::one(value, 1),
            unit: unit.to_string(),
        };
        rows.push(count("attempted", outcome.attempted as f64, "count"));
        rows.push(count("failed", outcome.failed as f64, "count"));
        rows.push(count(
            "failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "share",
        ));
    }
    rows
}

/// The last line of a run's standard output, as the driver's contract
/// words it.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = by_dictionary(outcome, trace)
        .into_iter()
        .map(|(m, v)| (m.name.to_string(), obj([("value", Json::Num(v.value)), ("unit", s(m.unit))])))
        .collect();
    obj([
        ("correct", Json::Bool(outcome.wrong == 0)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

/// Start `results.tsv` and `trace.jsonl` afresh in `dir`.
pub fn start_results(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("results.tsv"), format!("{}\n{HEADER}\n", schema_line()))?;
    std::fs::write(dir.join("trace.jsonl"), "")
}

pub fn append_rows(dir: &Path, rows: &[Row]) -> std::io::Result<()> {
    let path = dir.join("results.tsv");
    if !path.exists() {
        start_results(dir)?;
    }
    let mut text = String::new();
    for row in rows {
        writeln!(text, "{}", row.line()).expect("writing to a String");
    }
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)?
        .write_all(text.as_bytes())
}

/// # Errors
///
/// A missing file, another schema than this build writes, or a row that
/// does not parse.
pub fn read_rows(dir: &Path) -> Result<Vec<Row>, String> {
    let path = dir.join("results.tsv");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    if lines.next() != Some(schema_line().as_str()) || lines.next() != Some(HEADER) {
        return Err(format!("{}: not a schema-{SCHEMA} results.tsv", path.display()));
    }
    lines.map(Row::parse).collect()
}

/// `results.json`: the same rows, grouped by workload.
pub fn results_json(seed: u64, seconds: f64, rows: &[Row]) -> Json {
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for w in &metrics::WORKLOADS {
        let of = |kind: &str| {
            let fields = rows
                .iter()
                .filter(|r| r.workload == w.name && r.kind == kind)
                .map(|r| {
                    let Summary { value, q1, q3, n } = r.summary;
                    let entry = obj([
                        ("value", Json::Num(value)),
                        ("iqr", Json::Num(q3 - q1)),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        ("n", Json::Int(n as u64)),
                        ("unit", s(&r.unit)),
                    ]);
                    (r.metric.clone(), entry)
                })
                .collect();
            Json::Obj(fields)
        };
        workloads.push((
            w.name.to_string(),
            obj([
                ("count", of("count")),
                ("end_to_end", of("end_to_end")),
                ("per_layer", of("per_layer")),
            ]),
        ));
    }
    obj([
        ("schema", Json::Int(SCHEMA)),
        ("seed", Json::Int(seed)),
        ("run_seconds", Json::Num(seconds)),
        ("nproc", Json::Int(crate::common::nproc() as u64)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// Append one traced run's spans to `trace.jsonl`: per request the root
/// `req` and its children, sharing the request's number. `sim.exec_est` is
/// synthetic: the endpoint's solo execution time, laid at the end of the
/// span that contains it.
pub fn append_trace(dir: &Path, workload: &str, spans: &[(Sample, f64)]) -> std::io::Result<()> {
    let wire = workload.starts_with("wire_");
    let (call, core) = match workload {
        "sim_direct" => ("", "sim.run_layer"),
        _ if wire => ("net.send", "serve.core"),
        _ => ("serve.submit", "serve.core"),
    };
    let mut text = String::new();
    for (req, (sample, est_ns)) in spans.iter().enumerate() {
        let mut line = |span: &str, parent: Option<&str>, start_ns: u64, end_ns: u64| {
            let row = obj([
                ("workload", s(workload)),
                ("req", Json::Int(req as u64)),
                ("span", s(span)),
                ("parent", parent.map_or(Json::Null, s)),
                ("start_ns", Json::Int(start_ns)),
                ("end_ns", Json::Int(end_ns)),
                ("endpoint", Json::Int(u64::from(sample.endpoint))),
                ("ok", Json::Bool(sample.ok)),
            ]);
            writeln!(text, "{}", row.compact()).expect("writing to a String");
        };
        let root = Some("req");
        line("req", None, sample.due_ns, sample.done_ns);
        let mut at = sample.due_ns;
        if sample.late_ns > 0 {
            line("bench.gen_late", root, at, at + sample.late_ns);
            at += sample.late_ns;
        }
        if sample.call_ns > 0 {
            line(call, root, at, at + sample.call_ns);
            at += sample.call_ns;
        }
        line(core, root, at, at + sample.core_ns);
        if workload != "sim_direct" {
            let est = (*est_ns as u64).min(sample.core_ns);
            line("sim.exec_est", Some(core), at + sample.core_ns - est, at + sample.core_ns);
        }
        at += sample.core_ns;
        if wire {
            line("net.wire", root, at, sample.done_ns.max(at));
        }
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("trace.jsonl"))?
        .write_all(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_survive_the_tsv() {
        let row = Row {
            workload: "serve_open".into(),
            metric: "lat_p50_ms".into(),
            kind: "end_to_end".into(),
            summary: Summary {
                value: 2.3456789012,
                q1: 2.3,
                q3: 2.4,
                n: 5,
            },
            unit: "ms".into(),
        };
        assert_eq!(Row::parse(&row.line()), Ok(row));
        assert!(Row::parse("too\tfew").is_err());
    }

    #[test]
    fn the_result_line_names_exactly_the_declared_metrics() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            wrong: 0,
            metrics: metrics::END_TO_END.iter().map(|m| (m.name, Summary::one(1.5, 1))).collect(),
            spans: Vec::new(),
        };
        let line = result_line(&outcome, false);
        assert!(line
            .starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"throughput_rps":{"value":1.5,"unit":"1/s"}"#));
        for m in &metrics::END_TO_END {
            assert!(line.contains(&format!("\"{}\":{{\"value\"", m.name)));
        }
        // A traced run reports every per-layer metric, 0 where the layer
        // was not entered.
        let traced = Outcome {
            attempted: 1,
            failed: 1,
            wrong: 1,
            metrics: vec![("bench.nproc", Summary::one(2.0, 1))],
            spans: Vec::new(),
        };
        let line = result_line(&traced, true);
        assert!(line.starts_with(r#"{"correct":false"#));
        assert_eq!(line.matches("\"value\"").count(), metrics::PER_LAYER.len());
        assert!(line.contains(r#""net.sheds":{"value":0,"unit":"count"}"#));
    }
}

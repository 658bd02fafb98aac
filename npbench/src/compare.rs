//! `--compare <dirA> <dirB>`: the gate later changes are flown by. Reads
//! the two `results.tsv`, holds B against A with the dictionary's bounds,
//! and fails on any `worse`.

use std::path::Path;

use crate::metrics::{self, Better};
use crate::report::{read_rows, Row};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The repetitions scatter wider than the bound and the two runs'
    /// quartile ranges overlap: the runs cannot tell.
    Unresolved,
    /// Present in A, gone from B.
    Missing,
    /// A per-layer figure with no bound: shown, not judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
            Verdict::Info => "-",
        }
    }
}

/// B against A for one (workload, metric).
pub fn verdict(a: &Row, b: &Row) -> Verdict {
    let (va, vb) = (a.summary.value, b.summary.value);
    if a.metric == "failed_share" || a.metric == "failed" {
        // Any rise is a regression; there is no noise to allow for.
        return if vb > va {
            Verdict::Worse
        } else if vb < va {
            Verdict::Better
        } else {
            Verdict::Same
        };
    }
    let Some(m) = metrics::lookup(&a.metric) else {
        return Verdict::Info;
    };
    if m.exact {
        return if va == vb { Verdict::Same } else { Verdict::Worse };
    }
    if m.bound == 0.0 {
        return Verdict::Info;
    }
    let scatter = |r: &Row| r.summary.iqr() / r.summary.value.abs().max(f64::MIN_POSITIVE);
    let overlap = a.summary.q3 >= b.summary.q1 && b.summary.q3 >= a.summary.q1;
    if scatter(a).max(scatter(b)) > m.bound && overlap {
        return Verdict::Unresolved;
    }
    let gain = match m.better {
        Better::Higher => (vb - va) / va.abs(),
        Better::Lower => (va - vb) / va.abs(),
    };
    if gain < -m.bound {
        Verdict::Worse
    } else if gain > m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Print the comparison; `Ok(true)` when nothing is worse or missing.
///
/// # Errors
///
/// Either directory's `results.tsv` is missing or unreadable.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (rows_a, rows_b) = (read_rows(dir_a)?, read_rows(dir_b)?);
    println!("workload\tmetric\tA_median\tA_iqr\tB_median\tB_iqr\tchange\tbound\tverdict");
    let mut tally = std::collections::BTreeMap::new();
    for a in &rows_a {
        let found = rows_b.iter().find(|b| b.workload == a.workload && b.metric == a.metric);
        let v = found.map_or(Verdict::Missing, |b| verdict(a, b));
        *tally.entry(v.as_str()).or_insert(0usize) += 1;
        let bound = metrics::lookup(&a.metric).map_or(0.0, |m| m.bound);
        let (b_value, b_iqr) = found.map_or((f64::NAN, f64::NAN), |b| (b.summary.value, b.summary.iqr()));
        println!(
            "{}\t{}\t{}\t{}\t{b_value}\t{b_iqr}\t{:+.4}\t{bound}\t{}",
            a.workload,
            a.metric,
            a.summary.value,
            a.summary.iqr(),
            (b_value - a.summary.value) / a.summary.value.abs().max(f64::MIN_POSITIVE),
            v.as_str()
        );
    }
    let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("# {}", summary.join(", "));
    Ok(!tally.contains_key("worse") && !tally.contains_key("missing"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn row(metric: &str, value: f64, q1: f64, q3: f64) -> Row {
        Row {
            workload: "w".into(),
            metric: metric.into(),
            kind: "end_to_end".into(),
            summary: Summary { value, q1, q3, n: 5 },
            unit: "x".into(),
        }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        // throughput_rps: higher is better; lat_p50_ms: lower is better.
        let bound = metrics::lookup("throughput_rps").expect("declared").bound;
        let tight = |metric: &str, value: f64| row(metric, value, value * 0.99, value * 1.01);
        let base = tight("throughput_rps", 1000.0);
        assert_eq!(
            verdict(&base, &tight("throughput_rps", 1000.0 * (1.0 - bound * 0.8))),
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &tight("throughput_rps", 1000.0 * (1.0 - bound * 1.2))),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &tight("throughput_rps", 1000.0 * (1.0 + bound * 1.2))),
            Verdict::Better
        );
        // Scatter wider than the bound with overlapping quartiles: cannot tell.
        let noisy = row("throughput_rps", 1000.0 * (1.0 - bound * 1.2), 600.0, 1010.0);
        assert_eq!(verdict(&base, &noisy), Verdict::Unresolved);
        // Wide scatter but every quartile apart: the verdict stands.
        assert_eq!(verdict(&base, &row("throughput_rps", 400.0, 250.0, 500.0)), Verdict::Worse);
        let lat = tight("lat_p50_ms", 2.0);
        assert_eq!(verdict(&lat, &tight("lat_p50_ms", 2.0 * (1.0 + bound * 1.2))), Verdict::Worse);
        assert_eq!(
            verdict(&lat, &tight("lat_p50_ms", 2.0 * (1.0 - bound * 1.2))),
            Verdict::Better
        );
    }

    #[test]
    fn counts_that_must_repeat_and_failures_have_no_tolerance() {
        let cycles = row("sim.cycles_total", 1000.0, 1000.0, 1000.0);
        assert_eq!(verdict(&cycles, &cycles.clone()), Verdict::Same);
        assert_eq!(
            verdict(&cycles, &row("sim.cycles_total", 999.0, 999.0, 999.0)),
            Verdict::Worse
        );
        let clean = row("failed_share", 0.0, 0.0, 0.0);
        assert_eq!(verdict(&clean, &row("failed_share", 0.001, 0.001, 0.001)), Verdict::Worse);
        assert_eq!(verdict(&clean, &clean.clone()), Verdict::Same);
        assert_eq!(
            verdict(
                &row("sim.fast_ns_per_word", 80.0, 80.0, 80.0),
                &row("sim.fast_ns_per_word", 40.0, 40.0, 40.0)
            ),
            Verdict::Info
        );
        assert_eq!(
            verdict(&row("attempted", 5.0, 5.0, 5.0), &row("attempted", 6.0, 6.0, 6.0)),
            Verdict::Info
        );
    }
}

//! The benchmark's vocabulary — workloads, metrics, units, bounds — and
//! what is done with result documents: print them, compare two.
//!
//! `BENCHMARK.json` at the repo root states the same tables for the
//! driver; a unit test holds the two together.

use crate::json::Json;
use crate::stats::{median, spread};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hist_scan",
        why: "bgpreader shape: inflate, frame, decode, elem extract and k-way merge do all the work; the single-threaded baseline",
    },
    Workload {
        name: "hist_filtered",
        why: "one prefix, announcements only: pushdown rejects 99.9% of records before decode, so inflate and framing dominate",
    },
    Workload {
        name: "hist_pipeline",
        why: "compressed bytes in, plugin series and RIB store out: plugin fold, RIB fold and snapshot seal do most of the work",
    },
    Workload {
        name: "live_tail",
        why: "open-loop feeder at a fixed rate into the live cursor and the sharded runtime: bins close off the watermark, bursts set the tail",
    },
    Workload {
        name: "rib_query",
        why: "closed-loop time-travel queries against the folded store: reads beside hist_pipeline's writes",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression; per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a user of the system sees. `throughput_per_s` counts MRT
/// records (stream workloads) or queries; a latency sample is the wall
/// time one five-minute bin took (historical), the time from a bin
/// being due to its close (live), or one query.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.25),
    e2e("throughput_per_s", "1/s", true, 0.25),
    e2e("latency_ms_p50", "ms", false, 0.25),
    e2e("latency_ms_p90", "ms", false, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        bound: 0.0,
    }
}

pub const PER_LAYER: [Metric; 43] = [
    layer("io.read_ms", "ms", false),
    layer("inflate.ms", "ms", false),
    layer("inflate.out_mib_per_s", "MiB/s", true),
    layer("mrt.frame_ms", "ms", false),
    layer("mrt.decode_ms", "ms", false),
    layer("mrt.records", "count", true),
    layer("mrt.corrupt_records", "count", false),
    layer("core.extract_ms", "ms", false),
    layer("core.elems", "count", true),
    layer("core.merge_ms", "ms", false),
    layer("core.filter_ms", "ms", false),
    layer("core.prefilter_reject_share", "share", true),
    layer("broker.query_ms", "ms", false),
    layer("broker.dumps", "count", true),
    layer("corsaro.stats_ms", "ms", false),
    layer("corsaro.pfxmonitor_ms", "ms", false),
    layer("corsaro.rt_ms", "ms", false),
    layer("corsaro.stream_wait_ms", "ms", false),
    layer("rib.fold_ms", "ms", false),
    layer("rib.seal_publish_ms", "ms", false),
    layer("rib.store_publish_ms", "ms", false),
    layer("rib.seal_ms", "ms", false),
    layer("rib.snapshot_bytes", "bytes", false),
    layer("rib.snapshots", "count", true),
    layer("rib.journal_events", "count", true),
    layer("rib.routes", "count", true),
    layer("trace.overhead_share", "share", false),
    layer("rib.resident_bytes_per_route", "bytes", false),
    layer("rib.q_table_ms", "ms", false),
    layer("rib.q_prefix_ms", "ms", false),
    layer("rib.q_origin_ms", "ms", false),
    layer("rib.q_history_ms", "ms", false),
    layer("rib.snapshot_decode_ms", "ms", false),
    layer("rib.delta_events", "count", false),
    layer("rib.delta_apply_ms", "ms", false),
    layer("rib.view_encode_ms", "ms", false),
    layer("live.gen_late_share_max", "share", false),
    layer("broker.publish_share", "share", false),
    layer("corsaro.shard_busy_share", "share", false),
    layer("corsaro.merge_share", "share", false),
    layer("corsaro.partial_bytes", "bytes", false),
    layer("corsaro.bins_closed", "count", true),
    layer("corsaro.backlog_bins_max", "count", false),
];

pub fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// One line per metric of a run document.
pub fn print_run(doc: &Json) {
    let text = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "# {} on {} seed {} ({}), {} attempted, {} failed",
        text("workload"),
        text("world"),
        num("seed"),
        if num("trace") == 1.0 {
            "traced"
        } else {
            "untraced"
        },
        num("attempted"),
        num("failed"),
    );
    for (name, m) in doc.get("metrics").map(Json::entries).unwrap_or_default() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{name:<34} {value:>16.4} {unit}");
    }
}

/// Fold the documents of repeated runs of one (workload, trace) into
/// one: every metric becomes the median of its values, which are kept
/// beside it with their spread.
pub fn merge_runs(runs: &[Json]) -> Json {
    let first = &runs[0];
    let mut merged: Vec<(String, Json)> = Vec::new();
    for (key, value) in first.entries() {
        if key != "metrics" {
            merged.push((key.clone(), value.clone()));
            continue;
        }
        let metrics = value.entries().iter().map(|(name, m)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let mut entry = vec![
                ("value".to_string(), Json::from(median(&values))),
                (
                    "unit".to_string(),
                    m.get("unit").cloned().unwrap_or(Json::Null),
                ),
            ];
            if values.len() > 1 {
                entry.push(("spread".to_string(), Json::from(spread(&values))));
                entry.push((
                    "runs".to_string(),
                    Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                ));
            }
            (name.clone(), Json::Obj(entry))
        });
        merged.push((key.clone(), Json::Obj(metrics.collect())));
    }
    for key in ["correct", "attempted", "failed"] {
        let all = runs.iter().filter_map(|r| r.get(key));
        let folded = match key {
            "correct" => Json::Bool(all.into_iter().all(|v| *v == Json::Bool(true))),
            _ => Json::from(all.filter_map(Json::as_f64).sum::<f64>()),
        };
        if let Some(slot) = merged.iter_mut().find(|(k, _)| k == key) {
            slot.1 = folded;
        }
    }
    Json::Obj(merged)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

/// Apply a metric's bound to a baseline and a candidate value.
/// `spread` is the wider of the two sides' run-to-run spreads.
pub fn judge(metric: &Metric, base: f64, cand: f64, spread: f64) -> Verdict {
    // Positive = the candidate is worse, as a share of the baseline.
    let worse_by = if metric.higher_is_better {
        (base - cand) / base
    } else {
        (cand - base) / base
    };
    if worse_by > metric.bound {
        Verdict::Worse
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else if -worse_by > metric.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One row per (workload, end-to-end metric) of two `all` documents;
/// `Err` when the two are not comparable. Returns how many rows are
/// worse.
pub fn compare(base: &Json, cand: &Json) -> Result<usize, String> {
    let runs = |doc: &'_ Json| -> Vec<Json> {
        doc.get("results")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
            .cloned()
            .collect()
    };
    let (base_runs, cand_runs) = (runs(base), runs(cand));
    if base_runs.is_empty() {
        return Err("the baseline document holds no untraced results".into());
    }
    let mut worse = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound"
    );
    for b in &base_runs {
        let name = b.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(c) = cand_runs
            .iter()
            .find(|c| c.get("workload").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("the candidate document lacks workload {name}"));
        };
        if b.get("workload_hash") != c.get("workload_hash") {
            return Err(format!(
                "{name}: the two runs read different archives (workload_hash)"
            ));
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if failed(c) > failed(b) {
            println!(
                "{name:<14} {:<18} {:>14} {:>14}  worse: more operations failed",
                "failed",
                failed(b),
                failed(c)
            );
            worse += 1;
        }
        for metric in &END_TO_END {
            let field = |r: &Json, k: &str| r.get("metrics")?.get(metric.name)?.get(k)?.as_f64();
            let (Some(bv), Some(cv)) = (field(b, "value"), field(c, "value")) else {
                return Err(format!("{name}: metric {} missing", metric.name));
            };
            let spread = field(b, "spread")
                .unwrap_or(0.0)
                .max(field(c, "spread").unwrap_or(0.0));
            let verdict = judge(metric, bv, cv, spread);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{name:<14} {:<18} {bv:>14.4} {cv:>14.4} {:>+7.1}% {:>6.0}%  {}",
                metric.name,
                (cv - bv) / bv * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let lower = &e2e("t_s", "s", false, 0.25);
        let higher = &e2e("per_s", "1/s", true, 0.1);
        assert_eq!(judge(lower, 1.0, 1.2, 0.0), Verdict::WithinBound);
        assert_eq!(judge(lower, 1.0, 1.3, 0.0), Verdict::Worse);
        assert_eq!(judge(lower, 1.0, 0.7, 0.0), Verdict::Better);
        assert_eq!(judge(higher, 100.0, 89.0, 0.0), Verdict::Worse);
        assert_eq!(judge(higher, 100.0, 111.0, 0.0), Verdict::Better);
        assert_eq!(judge(higher, 100.0, 105.0, 0.2), Verdict::Unresolved);
        // A regression beyond the bound is a regression however noisy.
        assert_eq!(judge(higher, 100.0, 80.0, 0.5), Verdict::Worse);
    }

    /// The driver reads BENCHMARK.json, the program reads these tables.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    format!(
                        "{} {} {} {}",
                        m.get("name").and_then(Json::as_str).unwrap_or("?"),
                        m.get("unit").and_then(Json::as_str).unwrap_or(""),
                        m.get("better").and_then(Json::as_str).unwrap_or(""),
                        m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    )
                })
                .collect()
        };
        let table = |ms: &[Metric]| -> Vec<String> {
            ms.iter()
                .map(|m| {
                    let better = if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    format!("{} {} {better} {}", m.name, m.unit, m.bound)
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let stated: Vec<(&str, &str)> = doc
            .get("workloads")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| Some((w.get("name")?.as_str()?, w.get("why")?.as_str()?)))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(stated, ours);
        assert_eq!(
            doc.get("paths").map(Json::items).map(<[Json]>::len),
            Some(1)
        );
    }
}

//! `--compare BASE NEW`: the verdict on every end-to-end metric of
//! every workload, by the direction and bound `BENCHMARK.json` fixes,
//! plus which exact per-layer counts and simulated results changed.

use crate::json::Json;
use crate::manifest::{Better, Manifest};

/// A metric's value and its samples' quartiles as a results file
/// records them.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Stat {
    value: f64,
    q1: f64,
    median: f64,
    q3: f64,
}

impl Stat {
    fn from(m: &Json) -> Option<Stat> {
        let value = m.get("value")?.as_f64()?;
        let q = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(value);
        Some(Stat {
            value,
            q1: q("q1"),
            median: q("median"),
            q3: q("q3"),
        })
    }

    fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The verdict on one end-to-end metric: `worse_by` is the share by
/// which the new value is worse than the base (negative when better).
/// When either side's quartile spread exceeds the bound the metric is
/// unresolved, unless the two interquartile ranges do not overlap.
fn verdict(base: Stat, new: Stat, better: Better, bound: f64) -> (f64, &'static str) {
    let worse_by = match better {
        Better::Lower => (new.value - base.value) / base.value,
        Better::Higher => (base.value - new.value) / base.value,
    };
    let disjoint = new.q3 < base.q1 || base.q3 < new.q1;
    let noisy = base.rel_spread().max(new.rel_spread()) > bound;
    let v = if noisy {
        match (disjoint, worse_by > 0.0) {
            (false, _) => "unresolved",
            (true, true) => "worse",
            (true, false) => "improved",
        }
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "improved"
    } else {
        "unchanged"
    };
    (worse_by, v)
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "results file has no `workloads` array".to_string())
}

/// Compares two results files. Returns the report and whether any
/// end-to-end metric got worse.
///
/// # Errors
///
/// A message when a file is not a results file.
pub fn compare(base: &Json, new: &Json, manifest: &Manifest) -> Result<(String, bool), String> {
    let mut out = format!(
        "{:<11} {:<22} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "worse_by"
    );
    let mut exact = String::new();
    let mut any_worse = false;
    let ident = |r: &Json| {
        let name = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        (name.to_string(), r.get("traced") == Some(&Json::Bool(true)))
    };
    for b in workloads(base)? {
        let (name, traced) = ident(b);
        let Some(n) = workloads(new)?.iter().find(|n| ident(n) == ident(b)) else {
            out.push_str(&format!("{name:<11} missing from the new results\n"));
            continue;
        };
        let metric = |doc: &Json, section: &str, key: &str| {
            doc.get(section)
                .and_then(|m| m.get(key))
                .and_then(Stat::from)
        };
        // End-to-end metrics come from the plain runs only.
        let end_to_end = if traced {
            &[][..]
        } else {
            &manifest.end_to_end[..]
        };
        for d in end_to_end {
            let (Some(bs), Some(ns), Some(bound)) = (
                metric(b, "metrics", &d.name),
                metric(n, "metrics", &d.name),
                d.bound,
            ) else {
                continue;
            };
            let (worse_by, v) = verdict(bs, ns, d.better, bound);
            any_worse |= v == "worse";
            out.push_str(&format!(
                "{name:<11} {:<22} {:>14.6} {:>14.6} {:>+7.1}%  {v}\n",
                d.name,
                bs.value,
                ns.value,
                worse_by * 100.0
            ));
        }
        // Counts and simulated results repeat exactly on unchanged
        // code; list the ones that moved.
        let counts = manifest.per_layer.iter().filter(|d| d.unit == "count");
        let names = counts.map(|d| ("metrics", d.name.as_str())).chain(
            b.get("sim")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .map(|(k, _)| ("sim", k.as_str())),
        );
        for (section, key) in names {
            if let (Some(bs), Some(ns)) = (metric(b, section, key), metric(n, section, key)) {
                if bs.value != ns.value {
                    let mode = if traced { "traced" } else { "plain" };
                    exact.push_str(&format!(
                        "{name:<11} {mode:<6} {key:<36} {} -> {}\n",
                        bs.value, ns.value
                    ));
                }
            }
        }
    }
    if exact.is_empty() {
        out.push_str("\nexact counts and simulated results: identical\n");
    } else {
        out.push_str("\nexact counts and simulated results that changed:\n");
        out.push_str(&exact);
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Stat {
        Stat {
            value,
            q1,
            median: value,
            q3,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = s(1.0, 0.99, 1.01);
        assert_eq!(
            verdict(base, s(1.05, 1.04, 1.06), Better::Lower, 0.1).1,
            "unchanged"
        );
        assert_eq!(
            verdict(base, s(1.2, 1.19, 1.21), Better::Lower, 0.1).1,
            "worse"
        );
        assert_eq!(
            verdict(base, s(1.2, 1.19, 1.21), Better::Higher, 0.1).1,
            "improved"
        );
        assert_eq!(
            verdict(base, s(1.0, 0.8, 1.3), Better::Lower, 0.1).1,
            "unresolved"
        );
        // Noisy but every quartile of the new side is worse.
        assert_eq!(
            verdict(base, s(1.5, 1.3, 1.6), Better::Lower, 0.1).1,
            "worse"
        );
    }
}

//! What the benchmark declares, read from the repository's
//! `BENCHMARK.json`: which workloads exist, which metrics every run
//! must emit, their units, directions and regression bounds.

use crate::json::Json;

/// The manifest text, compiled in so the binary and its declared metric
/// set cannot drift apart.
pub const TEXT: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricDecl {
    /// Metric name as emitted.
    pub name: String,
    /// Unit as emitted.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base median by which an end-to-end metric may get
    /// worse before it counts as a regression (`None` for per-layer
    /// metrics, which have no bound).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics a run without tracing emits.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics a traced run emits.
    pub per_layer: Vec<MetricDecl>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricDecl>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("`{key}` entry lacks `{f}`"))
            };
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction `{other}`")),
            };
            Ok(MetricDecl {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Manifest {
    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| *s >= 1.0)
            .ok_or("`run_seconds` is not a positive number")? as u64;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("`workloads` is not an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload lacks `name`".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Manifest {
            run_seconds,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The compiled-in manifest.
    ///
    /// # Panics
    ///
    /// Panics when the compiled-in `BENCHMARK.json` is malformed, which
    /// the crate's tests rule out.
    pub fn get() -> Manifest {
        Manifest::parse(TEXT).expect("BENCHMARK.json is well-formed")
    }

    /// The declaration of metric `name`, end-to-end or per-layer.
    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_manifest_parses_and_bounds_end_to_end() {
        let m = Manifest::get();
        assert!(!m.workloads.is_empty());
        assert!(m.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = m.decl("setup_s").expect("setup_s is declared");
        let widest = m
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }
}

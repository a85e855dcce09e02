//! Host-time spans the benchmark records around its own calls into
//! each layer, and the order statistics it reports them with.

use crate::json::Json;
use std::time::Instant;

/// One timed call: name, start and end in seconds since the log began,
/// and the index of the span that enclosed it.
#[derive(Clone, Debug)]
pub struct HostSpan {
    /// Layer-qualified name (`core.run`, `workloads.gen`, ...).
    pub name: &'static str,
    /// Start, seconds since the log was created.
    pub start: f64,
    /// End, seconds since the log was created.
    pub end: f64,
    /// Index of the enclosing span in [`SpanLog::spans`].
    pub parent: Option<usize>,
}

impl HostSpan {
    /// Wall duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span log, written out with the results at exit.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Runs `f` inside a span called `name`, nested under whichever
    /// span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let idx = self.spans.len();
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(HostSpan {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Summed duration of the spans called `name` under span `root`, at
    /// any depth.
    pub fn dur_under(&self, root: usize, name: &str) -> f64 {
        (root..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.descends_from(i, root))
            .map(|i| self.spans[i].dur())
            .fold(0.0, |a, b| a + b)
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// The log as a JSON array of `{name, start_s, end_s, parent}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_s", s.start.into()),
                        ("end_s", s.end.into()),
                        ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                    ])
                })
                .collect(),
        )
    }
}

/// A metric's headline value with the median and quartiles of the
/// samples behind it, as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// The reported value.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Median of the samples.
    pub median: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Sample {
    /// Headed by the samples' median.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn median_of(samples: &[f64]) -> Sample {
        assert!(!samples.is_empty(), "no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Sample::exact(v[0], 1);
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Sample {
            value: cut(2),
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }

    /// A value known exactly (a count), reported with its sample count.
    pub fn exact(value: f64, n: usize) -> Sample {
        Sample {
            value,
            q1: value,
            median: value,
            q3: value,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let q = Sample::median_of(&v);
        assert_eq!((q.value, q.q1, q.median, q.q3), (5.5, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Sample::median_of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Sample::median_of(&[1.0, 2.0]);
        assert_eq!((q.value, q.q1, q.median, q.q3), (1.5, 0.75, 1.5, 2.25));
    }

    #[test]
    fn spans_nest_under_their_repetition() {
        let mut log = SpanLog::default();
        for _ in 0..2 {
            log.span("rep", |log| {
                log.span("setup", |log| log.span("core.load", |_| ()));
                log.span("core.run", |_| ());
                log.span("core.run", |_| ());
            });
        }
        let s = log.spans();
        assert_eq!(s.len(), 10);
        assert_eq!((s[2].parent, s[5].parent), (Some(1), None));
        assert_eq!(log.dur_under(0, "core.run"), s[3].dur() + s[4].dur());
        assert_eq!(log.dur_under(0, "core.load"), s[2].dur());
        assert_eq!(log.dur_under(1, "core.run"), 0.0);
    }
}

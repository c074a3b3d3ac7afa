//! The process-global instrument catalogue.
//!
//! Registering an instrument appends a `(name, labels, handle)` entry and
//! hands the caller a cheap clone of the handle; the hot path never goes
//! through the registry again. [`Registry::snapshot`] reads every live
//! instrument and **merges series that share a name, labels, and kind** —
//! counters and gauges sum, histograms bucket-merge — so several engines
//! (or a respawned worker, or sequential bench runs) fold into one
//! process-level series, which is exactly the Prometheus model of a
//! process under restarting subcomponents.
//!
//! Entries are held strongly: a counter keeps counting monotonically
//! across the lifetime of the process even after the component that owned
//! it is dropped (components that want their *gauges* to stop
//! contributing reset them to zero on drop, as the serving engine does).
//! Registration is O(1) amortized and happens at component construction,
//! never per request. The one way out is [`Registry::fold_counter`], for
//! a label value minted per event (a publish epoch): its count moves into
//! a catch-all series and its entry goes, so neither the catalogue nor a
//! snapshot grows with uptime.

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::scalar::{Counter, FloatGauge, Gauge};
use std::sync::Mutex;

/// What kind of series an instrument produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Monotone sum ([`Counter`]).
    Counter,
    /// Signed instantaneous value ([`Gauge`]).
    Gauge,
    /// Floating-point instantaneous value ([`FloatGauge`]).
    FloatGauge,
    /// Log-linear distribution ([`LatencyHistogram`]).
    Histogram,
}

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Float(FloatGauge),
    Hist(LatencyHistogram),
}

impl Instrument {
    fn kind(&self) -> Kind {
        match self {
            Instrument::Counter(_) => Kind::Counter,
            Instrument::Gauge(_) => Kind::Gauge,
            Instrument::Float(_) => Kind::FloatGauge,
            Instrument::Hist(_) => Kind::Histogram,
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    inst: Instrument,
}

/// A catalogue of instruments; usually the [`global`] one.
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// The process-global registry every subsystem registers into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

impl Registry {
    /// An empty registry (tests use private ones; production code uses
    /// [`global`]).
    pub const fn new() -> Registry {
        Registry {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], inst: Instrument) {
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            inst,
        });
    }

    /// Create and register a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Create and register a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::new();
        self.push(name, help, labels, Instrument::Counter(c.clone()));
        c
    }

    /// Retire `from`: add its total to `into` and drop its entry. One step
    /// under the catalogue lock, so every snapshot sees the count exactly
    /// once. The caller guarantees nothing increments `from` any more.
    pub fn fold_counter(&self, from: &Counter, into: &Counter) {
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        entries.retain(|e| !matches!(&e.inst, Instrument::Counter(c) if c.same_as(from)));
        into.add(from.get());
    }

    /// Create and register a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let g = Gauge::new();
        self.push(name, help, &[], Instrument::Gauge(g.clone()));
        g
    }

    /// Create and register a float gauge.
    pub fn float_gauge(&self, name: &str, help: &str) -> FloatGauge {
        let g = FloatGauge::new();
        self.push(name, help, &[], Instrument::Float(g.clone()));
        g
    }

    /// Create and register a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> LatencyHistogram {
        self.histogram_with(name, help, &[])
    }

    /// Create and register a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> LatencyHistogram {
        let h = LatencyHistogram::new();
        self.push(name, help, labels, Instrument::Hist(h.clone()));
        h
    }

    /// Read every instrument and merge same-`(name, labels, kind)` series;
    /// the result is sorted by name then labels for stable exposition.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let mut series: Vec<Series> = Vec::new();
        for e in entries.iter() {
            let value = match &e.inst {
                Instrument::Counter(c) => Value::Counter(c.get()),
                Instrument::Gauge(g) => Value::Gauge(g.get()),
                Instrument::Float(g) => Value::Float(g.get()),
                Instrument::Hist(h) => Value::Histogram(h.snapshot()),
            };
            match series
                .iter_mut()
                .find(|s| s.name == e.name && s.labels == e.labels && s.kind() == e.inst.kind())
            {
                Some(s) => s.absorb(value),
                None => series.push(Series {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value,
                }),
            }
        }
        drop(entries);
        series.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        Snapshot { series }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// One merged series in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct Series {
    /// Metric name (unit suffix by convention: `_ns`, `_total`, …).
    pub name: String,
    /// Human description (the first registrant's wins on merge).
    pub help: String,
    /// Label pairs, e.g. `[("worker", "0")]`.
    pub labels: Vec<(String, String)>,
    /// The merged value.
    pub value: Value,
}

/// A [`Series`] value.
#[derive(Clone, Debug)]
pub enum Value {
    /// Monotone total (merged by summing).
    Counter(u64),
    /// Signed gauge (merged by summing — per-component gauges like queue
    /// depth add up to the process-wide figure).
    Gauge(i64),
    /// Float gauge (merged by summing; dropped components reset theirs
    /// to 0 so they stop contributing).
    Float(f64),
    /// Histogram (bucket-merged).
    Histogram(HistogramSnapshot),
}

impl Series {
    fn kind(&self) -> Kind {
        match &self.value {
            Value::Counter(_) => Kind::Counter,
            Value::Gauge(_) => Kind::Gauge,
            Value::Float(_) => Kind::FloatGauge,
            Value::Histogram(_) => Kind::Histogram,
        }
    }

    fn absorb(&mut self, other: Value) {
        match (&mut self.value, other) {
            (Value::Counter(a), Value::Counter(b)) => *a += b,
            (Value::Gauge(a), Value::Gauge(b)) => *a += b,
            (Value::Float(a), Value::Float(b)) => *a += b,
            (Value::Histogram(a), Value::Histogram(b)) => a.merge(&b),
            _ => unreachable!("absorb is only called for matching kinds"),
        }
    }
}

/// A point-in-time, merged view of a registry; renders to Prometheus text
/// ([`to_prometheus`](Self::to_prometheus)).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The merged series, sorted by `(name, labels)`.
    pub series: Vec<Series>,
}

impl Snapshot {
    /// Find a series by name (and labels, when `labels` is non-empty the
    /// match must be exact; when empty, the first label-free series wins).
    pub fn find(&self, name: &str) -> Option<&Series> {
        self.series
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
    }

    /// Find a labeled series by exact name + labels.
    pub fn find_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Series> {
        self.series.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// Counter value of `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.find(name).map(|s| &s.value) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram snapshot of `name`, empty when absent.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        match self.find(name).map(|s| &s.value) {
            Some(Value::Histogram(h)) => h.clone(),
            _ => HistogramSnapshot::empty(),
        }
    }

    /// Render as Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        crate::expo::render_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_series_merge_in_snapshots() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", "requests");
        let b = reg.counter("requests_total", "requests");
        a.add(3);
        b.add(4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("requests_total"), 7);
        assert_eq!(snap.series.len(), 1, "merged into one series");
    }

    #[test]
    fn labels_keep_series_apart() {
        let reg = Registry::new();
        let a = reg.counter_with("forward_total", "f", &[("worker", "0")]);
        let b = reg.counter_with("forward_total", "f", &[("worker", "1")]);
        a.inc();
        b.add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.series.len(), 2);
        match &snap
            .find_with("forward_total", &[("worker", "1")])
            .unwrap()
            .value
        {
            Value::Counter(v) => assert_eq!(*v, 2),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn histograms_merge_and_quantile() {
        let reg = Registry::new();
        let h1 = reg.histogram("lat_ns", "latency");
        let h2 = reg.histogram("lat_ns", "latency");
        h1.record(10);
        h2.record(30);
        let merged = reg.snapshot().histogram("lat_ns");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.max, 30);
    }

    #[test]
    fn a_folded_counter_leaves_its_count_behind_and_its_entry_goes() {
        let reg = Registry::new();
        let older = reg.counter_with("served_total", "s", &[("epoch", "older")]);
        let gen7 = reg.counter_with("served_total", "s", &[("epoch", "7")]);
        let live = reg.counter_with("served_total", "s", &[("epoch", "8")]);
        gen7.add(5);
        live.add(2);
        reg.fold_counter(&gen7, &older);
        let snap = reg.snapshot();
        assert_eq!(snap.series.len(), 2, "epoch 7 is gone: {:?}", snap.series);
        assert_eq!(older.get(), 5);
        assert!(snap.find_with("served_total", &[("epoch", "8")]).is_some());
    }

    #[test]
    fn dropped_instruments_keep_their_counts() {
        let reg = Registry::new();
        {
            let c = reg.counter("persist_total", "outlives its owner");
            c.add(9);
        }
        assert_eq!(reg.snapshot().counter("persist_total"), 9);
    }
}

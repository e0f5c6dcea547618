//! A run's result: the metric table and the one-line JSON the driver reads.

use crate::json::Value;
use crate::names::MetricDef;

/// Values for one of the two metric lists of [`crate::names`], in registry
/// order. A metric never set is reported as 0 in the JSON (the driver
/// wants every listed name on every run) and omitted from the listing.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the registry or a non-finite value: both are
    /// bugs in the benchmark, and a silent typo would desynchronise the
    /// output from `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values[i] = Some(value);
    }

    /// Whether `name` is in this registry.
    pub fn has(&self, name: &str) -> bool {
        self.defs.iter().any(|d| d.name == name)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        self.values[i]
    }

    /// `(definition, value)` of every metric that was set.
    pub fn iter_set(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .filter_map(|(d, v)| v.map(|v| (d, v)))
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            self.defs
                .iter()
                .zip(&self.values)
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Value::Obj(vec![
                            ("value".into(), Value::Num(v.unwrap_or(0.0))),
                            ("unit".into(), Value::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// What one workload run produced.
pub struct Report {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations whose result was wrong or refused.
    pub failed: u64,
    pub metrics: Metrics,
    /// `host.rep_spread` of the run's wall repetitions.
    pub rep_spread: f64,
    /// Free-form facts for the listing (sample counts, parameters).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn noisy(&self) -> bool {
        self.rep_spread > crate::stats::NOISY_REP_SPREAD
    }

    /// The human-readable listing: every measured metric by name with its
    /// unit.
    pub fn listing(&self, workload: &str) -> String {
        let mut out = String::new();
        for (d, v) in self.metrics.iter_set() {
            out.push_str(&format!(
                "{workload:<13} {:<36} {v:>18.6} {}\n",
                d.name, d.unit
            ));
        }
        out.push_str(&format!(
            "{workload:<13} attempted {} failed {} failed_share {} rep_spread {:.4}{}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.rep_spread,
            if self.noisy() {
                " NOISY: host-time metrics of this run are unresolved"
            } else {
                ""
            }
        ));
        for n in &self.notes {
            out.push_str(&format!("{workload:<13} # {n}\n"));
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), self.metrics.to_json()),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::END_TO_END;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 0.8127);
        let r = Report {
            attempted: 1000,
            failed: 0,
            metrics: m,
            rep_spread: 0.01,
            notes: vec![],
        };
        let v = crate::json::parse(&r.result_line()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let metrics = v.get("metrics").and_then(|m| m.as_obj()).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_metric_names_are_bugs() {
        Metrics::new(&END_TO_END).set("wall_opps_per_s", 1.0);
    }

    #[test]
    fn a_run_with_failures_or_no_checks_is_not_correct() {
        let mk = |attempted, failed| Report {
            attempted,
            failed,
            metrics: Metrics::new(&END_TO_END),
            rep_spread: 0.2,
            notes: vec![],
        };
        assert!(!mk(10, 1).correct());
        assert!(!mk(0, 0).correct());
        assert!(mk(10, 0).correct() && mk(10, 0).noisy());
    }
}

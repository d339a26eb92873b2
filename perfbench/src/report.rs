//! The result line: `{"correct", "attempted", "failed", "metrics"}`, the
//! last line of standard output, with every metric named and unit-tagged.

use dlion_telemetry::json::{self, Json};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Render the result line. Fails on an invalid or repeated name, an
    /// invalid unit or a non-finite value — the benchmark never prints a
    /// line the contract would refuse.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = String::from("{\"correct\":");
        out.push_str(if self.correct { "true" } else { "false" });
        out.push_str(&format!(
            ",\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name `{}`", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!("invalid unit `{}` of {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("{} is not finite: {}", m.name, m.value));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric `{}` reported twice", m.name));
            }
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&m.name, &mut out);
            out.push_str(":{\"value\":");
            json::f64_into(m.value, &mut out);
            out.push_str(",\"unit\":");
            json::escape_into(m.unit, &mut out);
            out.push('}');
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Parse a result line back (units are checked against `units`, the
    /// declared unit of each known metric name).
    pub fn parse(line: &str, units: &[(&str, &'static str)]) -> Result<Outcome, String> {
        let doc = json::parse(line)?;
        let Json::Obj(top) = &doc else {
            return Err("result is not an object".into());
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let correct = match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("`correct` is not a boolean".into()),
        };
        let count = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{k}` is not a whole number"))
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in members {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name}: no unit"))?;
            let &(_, declared) = units
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("unknown metric {name}"))?;
            if unit != declared {
                return Err(format!("{name}: unit {unit}, declared {declared}"));
            }
            metrics.push(metric(name.clone(), value, declared));
        }
        Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "nn.l11_dense.fwd_ms",
            "net.send.calls",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "p99%",
            "ü",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("fraction"));
        assert!(!valid_unit("m s") && !valid_unit(""));
    }

    #[test]
    fn result_line_round_trips() {
        let out = Outcome {
            correct: true,
            attempted: 12,
            failed: 1,
            metrics: vec![
                metric("iter_ms_p50", 1.234_567_890_123_456_7, "ms"),
                metric("samples_per_s", 12_345.678_9, "1/s"),
                metric("setup_s", 1e-7, "s"),
            ],
        };
        let line = out.to_json().unwrap();
        let units = [
            ("iter_ms_p50", "ms"),
            ("samples_per_s", "1/s"),
            ("setup_s", "s"),
        ];
        assert_eq!(Outcome::parse(&line, &units).unwrap(), out);
        // Wrong unit, unknown name and extra keys are refused.
        assert!(Outcome::parse(&line, &[("iter_ms_p50", "s")]).is_err());
        let extra = line.replacen("{\"correct\"", "{\"seed\":1,\"correct\"", 1);
        assert!(Outcome::parse(&extra, &units).is_err());
    }

    #[test]
    fn unprintable_results_are_refused() {
        let bad = |m: Metric| Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![m],
        };
        assert!(bad(metric("x", f64::NAN, "ms")).to_json().is_err());
        assert!(bad(metric("bad name", 1.0, "ms")).to_json().is_err());
        assert!(bad(metric("x", 1.0, "m s")).to_json().is_err());
        let twice = Outcome {
            metrics: vec![metric("x", 1.0, "ms"), metric("x", 2.0, "ms")],
            ..bad(metric("x", 1.0, "ms"))
        };
        assert!(twice.to_json().is_err());
    }
}

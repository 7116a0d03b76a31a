//! What one run reports: the result line (`correct`, `attempted`,
//! `failed`, `metrics`), printed last on stdout, plus a free-form detail
//! object written next to the build.

use std::fmt::Write as _;
use std::path::PathBuf;

use drd_serve::json;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub attempted: u64,
    /// Nonzero exits, non-ok responses and failed output checks.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers behind the metrics, as a JSON object.
    pub detail: String,
}

impl Outcome {
    /// The result line: one JSON object.
    ///
    /// # Errors
    /// When a metric is not a finite number (JSON cannot carry it).
    pub fn line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is {}", m.name, m.value));
            }
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, m.name);
            // `{}` prints the shortest text that reads back as the same
            // f64: every digit the measurement has.
            let _ = write!(out, ":{{\"value\":{},\"unit\":", m.value);
            json::escape_into(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Builds a JSON object from already-rendered values.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    pub fn raw(mut self, key: &str, rendered: impl std::fmt::Display) -> Obj {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        json::escape_into(&mut self.0, key);
        let _ = write!(self.0, ":{rendered}");
        self
    }

    /// A number; non-finite values become `null`.
    pub fn num(self, key: &str, v: f64) -> Obj {
        if v.is_finite() {
            self.raw(key, v)
        } else {
            self.raw(key, "null")
        }
    }

    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, json::escape(v))
    }

    pub fn done(self) -> String {
        if self.0.is_empty() {
            "{}".to_owned()
        } else {
            self.0 + "}"
        }
    }
}

/// `[a,b,…]` from rendered items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// Where builds and bench outputs go: `$CARGO_TARGET_DIR`, else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// `<target>/bench-e2e`, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = target_dir().join("bench-e2e");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

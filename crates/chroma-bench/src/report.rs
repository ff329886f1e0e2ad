//! The unified `BENCH_*.json` report schema and writer.
//!
//! `load_bench` emits this top-level shape so CI artifacts and trend
//! tooling can consume it uniformly (see `DESIGN.md` §5.3):
//!
//! ```json
//! {
//!   "benchmark": "<name>",
//!   "schema_version": 1,
//!   "<metadata field>": ...,          // scalar run metadata (seed, cores, ...)
//!   "runs": [ { ...one measured configuration... }, ... ]
//! }
//! ```
//!
//! The build environment has no `serde_json`, so this module carries a
//! deliberately small JSON value model: enough to render the reports,
//! nothing more. Field order is preserved (insertion order), floats are
//! rendered with a fixed, locale-independent format, and strings go
//! through [`chroma_obs::escape_json_str`].

use std::io;
use std::path::Path;

use chroma_obs::escape_json_str;

/// Schema version stamped into every report.
pub const SCHEMA_VERSION: u64 = 1;

/// A JSON value, restricted to what the benchmark reports need.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A float, rendered with up to four fractional digits.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// A nested object.
    Object(Obj),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Obj> for Value {
    fn from(v: Obj) -> Self {
        Value::Object(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}

impl From<Vec<Obj>> for Value {
    fn from(v: Vec<Obj>) -> Self {
        Value::Array(v.into_iter().map(Value::Object).collect())
    }
}

/// Renders a float the way every report does: fixed four fractional
/// digits with trailing zeros trimmed, so diffs between runs are
/// byte-stable and `12.0` renders as `12.0`, not `12.0000`.
fn render_f64(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no NaN/Infinity; benchmarks treat them as absent
        // measurements.
        return "null".to_owned();
    }
    let s = format!("{v:.4}");
    let dot = s.find('.').expect("{v:.4} always has a fraction");
    // Trim trailing fractional zeros, keeping at least one digit after
    // the dot (so integers render as `12.0`, unambiguously a float).
    let mut end = s.len();
    while end > dot + 2 && s.as_bytes()[end - 1] == b'0' {
        end -= 1;
    }
    s[..end].to_owned()
}

impl Value {
    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => out.push_str(&render_f64(*v)),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(v) => {
                out.push('"');
                out.push_str(&escape_json_str(v));
                out.push('"');
            }
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Object(obj) => obj.render_into(out, indent),
        }
    }
}

/// An insertion-ordered JSON object under construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Obj::default()
    }

    /// Appends one field (builder style).
    #[must_use]
    pub fn field(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.0.push((name.to_owned(), value.into()));
        self
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        if self.0.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push_str("{\n");
        for (i, (name, value)) in self.0.iter().enumerate() {
            out.push_str(&"  ".repeat(indent + 1));
            out.push('"');
            out.push_str(&escape_json_str(name));
            out.push_str("\": ");
            value.render_into(out, indent + 1);
            if i + 1 < self.0.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&"  ".repeat(indent));
        out.push('}');
    }

    /// Renders the object as pretty-printed JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }
}

/// One `BENCH_*.json` report: `benchmark` + `schema_version`, scalar
/// metadata fields in insertion order, and a `runs` array of measured
/// configurations.
#[derive(Clone, Debug)]
pub struct Report {
    fields: Obj,
    runs: Vec<Obj>,
}

impl Report {
    /// Starts a report for the named benchmark.
    #[must_use]
    pub fn new(benchmark: &str) -> Self {
        Report {
            fields: Obj::new()
                .field("benchmark", benchmark)
                .field("schema_version", SCHEMA_VERSION),
            runs: Vec::new(),
        }
    }

    /// Appends one metadata field (seed, cores, flags, nested
    /// aggregates...).
    #[must_use]
    pub fn field(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.fields = self.fields.field(name, value);
        self
    }

    /// Appends one measured run.
    #[must_use]
    pub fn run(mut self, run: Obj) -> Self {
        self.runs.push(run);
        self
    }

    /// Renders the full report as JSON (trailing newline included).
    #[must_use]
    pub fn render(&self) -> String {
        let whole = self.fields.clone().field("runs", self.runs.clone());
        let mut out = whole.render();
        out.push('\n');
        out
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_unified_envelope() {
        let text = Report::new("demo")
            .field("seed", 42u64)
            .run(
                Obj::new()
                    .field("threads", 8u64)
                    .field("ops_per_sec", 123.456_f64),
            )
            .render();
        assert!(text.starts_with("{\n  \"benchmark\": \"demo\""));
        assert!(text.contains("\"schema_version\": 1"));
        assert!(text.contains("\"seed\": 42"));
        assert!(text.contains("\"runs\": ["));
        assert!(text.contains("\"ops_per_sec\": 123.456"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn floats_render_stably() {
        assert_eq!(render_f64(12.0), "12.0");
        assert_eq!(render_f64(0.5), "0.5");
        assert_eq!(render_f64(1.23456), "1.2346");
        assert_eq!(render_f64(f64::NAN), "null");
        assert_eq!(render_f64(f64::INFINITY), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let text = Obj::new().field("label", "a\"b\\c").render();
        assert!(text.contains("\"a\\\"b\\\\c\""), "{text}");
    }

    #[test]
    fn empty_collections_render_compact() {
        let text = Obj::new()
            .field("arr", Vec::<Value>::new())
            .field("obj", Obj::new())
            .render();
        assert!(text.contains("\"arr\": []"));
        assert!(text.contains("\"obj\": {}"));
    }

    #[test]
    fn nested_runs_and_arrays_round_trip_shape() {
        let classes = vec![
            Obj::new().field("class", "read").field("p99_us", 15.0_f64),
            Obj::new()
                .field("class", "write")
                .field("p99_us", 2047.0_f64),
        ];
        let text = Report::new("load_harness")
            .run(
                Obj::new()
                    .field("phase", "closed_kv")
                    .field("classes", classes),
            )
            .render();
        assert!(text.contains("\"phase\": \"closed_kv\""));
        assert!(text.contains("\"class\": \"write\""));
        // two-space indentation, nesting grows monotonically: run
        // objects sit two levels deep, class objects four
        assert!(text.contains("\n    {"), "{text}");
        assert!(text.contains("\n        {"), "{text}");
    }
}

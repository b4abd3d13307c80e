//! Machine-readable benchmark output: a hand-rolled, offline-safe JSON
//! writer/parser for `BENCH_*.json` and the regression gate (speedup floors
//! and collapse checks) that `ci.sh` runs on the smoke emission.
//!
//! The build environment has no crates.io access, so there is no
//! `serde_json`; the schema is small and fixed, and the parser below is
//! strict about exactly the failure modes the CI gate cares about: a missing
//! field, a non-finite number (`NaN`/`inf` are not JSON and are rejected by
//! the number grammar) or a wrong type all yield a structured error.
//!
//! ## Schema (`p4db-bench-v1`)
//!
//! ```json
//! {
//!   "schema": "p4db-bench-v1",
//!   "datapoints": [
//!     {"figure": "fig01", "params": "YCSB-A", "tps": 1234.5,
//!      "p50_us": 250.0, "p99_us": 900.0, "speedup": 1.42}
//!   ]
//! }
//! ```
//!
//! Writers merge by figure: emitting points for `fig01` replaces every
//! existing `fig01` point in the file and leaves other figures' points
//! untouched, so `figures` and `micro` can update the same `BENCH_23.json`
//! independently.

use p4db_core::BenchPoint;
use std::fmt;
use std::path::Path;

pub const SCHEMA: &str = "p4db-bench-v1";

/// A structured failure while parsing or validating a `BENCH_*.json` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchJsonError(pub String);

impl fmt::Display for BenchJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BENCH json error: {}", self.0)
    }
}

impl std::error::Error for BenchJsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, BenchJsonError> {
    Err(BenchJsonError(message.into()))
}

// ---------------------------------------------------------------------------
// Minimal JSON value model
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), at: 0 }
    }

    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), BenchJsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.at += 1;
                Ok(())
            }
            got => err(format!("expected {:?} at byte {}, found {:?}", b as char, self.at, got.map(|g| g as char))),
        }
    }

    fn value(&mut self) -> Result<Json, BenchJsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.at)),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, BenchJsonError> {
        self.skip_ws();
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn object(&mut self) -> Result<Json, BenchJsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return err(format!("expected ',' or '}}' at byte {}, found {:?}", self.at, other)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, BenchJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                other => return err(format!("expected ',' or ']' at byte {}, found {:?}", self.at, other)),
            }
        }
    }

    fn string(&mut self) -> Result<String, BenchJsonError> {
        self.expect(b'"')?;
        // Accumulate raw bytes and decode once: the input is valid UTF-8 and
        // the `"`/`\` delimiters are ASCII (never UTF-8 continuation bytes),
        // so multibyte characters like `µ` pass through byte-wise intact.
        let mut out = Vec::new();
        while let Some(&b) = self.bytes.get(self.at) {
            self.at += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out)
                        .map_err(|_| BenchJsonError(format!("invalid UTF-8 in string ending at byte {}", self.at)))
                }
                b'\\' => {
                    let esc = self.bytes.get(self.at).copied();
                    self.at += 1;
                    match esc {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    let mut buf = [0u8; 4];
                                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                                    self.at += 4;
                                }
                                None => return err(format!("invalid \\u escape at byte {}", self.at)),
                            }
                        }
                        other => return err(format!("unsupported escape {other:?} at byte {}", self.at)),
                    }
                }
                _ => out.push(b),
            }
        }
        err("unterminated string")
    }

    fn number(&mut self) -> Result<Json, BenchJsonError> {
        self.skip_ws();
        let start = self.at;
        while let Some(&b) = self.bytes.get(self.at) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.at += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii number");
        match text.parse::<f64>() {
            // `NaN`/`inf` never reach here (the grammar above cannot produce
            // them), so every parsed number is finite.
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => err(format!("invalid number {text:?} at byte {start}")),
        }
    }

    fn parse(mut self) -> Result<Json, BenchJsonError> {
        let value = self.value()?;
        self.skip_ws();
        if self.at != self.bytes.len() {
            return err(format!("trailing garbage at byte {}", self.at));
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Schema-level read/write
// ---------------------------------------------------------------------------

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders datapoints in the `p4db-bench-v1` schema. Non-finite numbers are
/// serialised as-is (`NaN`), which the parser — and therefore the CI gate —
/// rejects: a corrupted measurement cannot silently pass.
pub fn render(points: &[BenchPoint]) -> String {
    let mut out = String::from("{\n  \"schema\": \"");
    out.push_str(SCHEMA);
    out.push_str("\",\n  \"datapoints\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"figure\": \"{}\", \"params\": \"{}\", \"tps\": {}, \"p50_us\": {}, \"p99_us\": {}, \
             \"speedup\": {}}}{}\n",
            escape(&p.figure),
            escape(&p.params),
            p.tps,
            p.p50_us,
            p.p99_us,
            p.speedup,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses and validates a `BENCH_*.json` document: schema tag, and for every
/// datapoint all six fields present with the right types. Missing fields,
/// wrong types and non-finite numbers are structured errors.
pub fn parse(text: &str) -> Result<Vec<BenchPoint>, BenchJsonError> {
    let root = Parser::new(text).parse()?;
    match root.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => return err(format!("unsupported schema {s:?} (expected {SCHEMA:?})")),
        _ => return err("missing \"schema\" field"),
    }
    let Some(Json::Arr(raw)) = root.get("datapoints") else {
        return err("missing \"datapoints\" array");
    };
    let mut points = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        let str_field = |key: &str| match item.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            Some(_) => err(format!("datapoint {i}: field {key:?} is not a string")),
            None => err(format!("datapoint {i}: missing field {key:?}")),
        };
        let num_field = |key: &str| match item.get(key) {
            Some(Json::Num(v)) => Ok(*v),
            Some(_) => err(format!("datapoint {i}: field {key:?} is not a finite number")),
            None => err(format!("datapoint {i}: missing field {key:?}")),
        };
        points.push(BenchPoint {
            figure: str_field("figure")?,
            params: str_field("params")?,
            tps: num_field("tps")?,
            p50_us: num_field("p50_us")?,
            p99_us: num_field("p99_us")?,
            speedup: num_field("speedup")?,
        });
    }
    Ok(points)
}

/// Writes `points` into `path`, merging by figure: figures being written
/// replace their existing points, other figures survive. A missing or
/// unparseable existing file is treated as empty (first run, or a corrupt
/// file being regenerated).
pub fn write_merged(path: &Path, points: &[BenchPoint]) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).ok().and_then(|text| parse(&text).ok()).unwrap_or_default();
    let replaced: std::collections::HashSet<&str> = points.iter().map(|p| p.figure.as_str()).collect();
    let mut merged: Vec<BenchPoint> = existing.into_iter().filter(|p| !replaced.contains(p.figure.as_str())).collect();
    merged.extend(points.iter().cloned());
    merged.sort_by(|a, b| (&a.figure, &a.params).cmp(&(&b.figure, &b.params)));
    std::fs::write(path, render(&merged))
}

/// Default output path: `$P4DB_BENCH_JSON`, or `BENCH_23.json` at the
/// workspace root (the current trajectory file; `BENCH_4.json` through
/// `BENCH_22.json` are the committed history of earlier PRs).
pub fn output_path() -> std::path::PathBuf {
    match std::env::var("P4DB_BENCH_JSON") {
        Ok(path) if !path.is_empty() => std::path::PathBuf::from(path),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_23.json"),
    }
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// Floors of the CI regression gate. The smoke profile measures for a few
/// milliseconds per point on a loaded runner, so the gate compares no
/// absolute throughput against a recorded baseline (that band tripped on
/// whatever machine it was not recorded on): it checks that every point
/// committed something and that each gated ratio, taken between two arms of
/// the same run, holds its floor. It is a tripwire for collapses and schema
/// drift, not a microbenchmark judge; the committed `BENCH_23.json` and the
/// repo benchmark (`benchmark/`) carry the trend.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Minimum speedup the `micro` "switch hot path batched-vs-unbatched"
    /// point must show — the acceptance bar of the batching work (measured
    /// ~2x; anything under 1.3x on the smoke profile is a real regression,
    /// not noise).
    pub min_batch_speedup: f64,
    /// Minimum speedup of the gated `fig_switch_scaling` datapoint (2
    /// switches over 1 switch at a fixed aggregate hot-set size, saturated
    /// pipeline) — the acceptance bar of the multi-switch topology work
    /// (measured ~1.8x; under 1.25x even on the smoke profile means the
    /// second switch is not relieving the pipeline bottleneck).
    pub min_switch_scaling_speedup: f64,
    /// Minimum speedup of the gated `fig_recovery` datapoint (checkpoint +
    /// segment-tail restart over genesis replay of the whole log) — the
    /// acceptance bar of the durability work. The figure grows the log until
    /// it dwarfs the table, so a checkpointed restart that is not at least
    /// 2x faster means the tail-skip read path or the shard-parallel
    /// write-back regressed.
    pub min_recovery_speedup: f64,
    /// Minimum speedup of the gated `fig_read_mix` datapoint (the lock-free
    /// snapshot read path over 2PL on the same pooled schedule, hot-skewed
    /// YCSB-A at 95% whole-transaction reads) — the acceptance bar of the
    /// versioned-rows work (measured ~2x; under 1.3x on the smoke profile
    /// means read-only transactions are paying lock-table costs again).
    pub min_read_mostly_speedup: f64,
    /// Minimum degraded-throughput floor of the gated `fig_outage`
    /// datapoint, expressed as min-window/max-window committed throughput
    /// across the blackhole → breaker-trip → degraded → re-admit timeline.
    /// The self-healing acceptance criterion is liveness, not speed: every
    /// window must keep committing (the figure itself asserts non-zero
    /// windows), and this floor catches a degraded mode that technically
    /// commits but has collapsed to a trickle. Measured ~0.3–0.7 depending
    /// on how much of the trip window is spent inside switch timeouts; 0.02
    /// is the collapse tripwire, far below any healthy run.
    pub min_degraded_floor_frac: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            min_batch_speedup: 1.3,
            min_switch_scaling_speedup: 1.25,
            min_recovery_speedup: 2.0,
            min_read_mostly_speedup: 1.3,
            min_degraded_floor_frac: 0.02,
        }
    }
}

/// The `params` key of the micro datapoint the batching tripwire checks.
pub const BATCHING_PARAMS: &str = "switch hot path batched-vs-unbatched";

/// The `params` key of the gated `fig_switch_scaling` datapoint.
pub const SWITCH_SCALING_PARAMS: &str = "switches=2";

/// The `params` key of the gated `fig_recovery` datapoint.
pub const RECOVERY_PARAMS: &str = "checkpointed vs genesis restart";

/// The `params` key of the gated `fig_read_mix` datapoint.
pub const READ_MIX_PARAMS: &str = "YCSB-A 95% reads workers=4";

/// The `params` key of the gated `fig_outage` datapoint. Its `speedup`
/// field carries the degraded-throughput floor fraction (min window tps /
/// max window tps across the outage timeline), not a speedup.
pub const OUTAGE_PARAMS: &str = "SmallBank blackhole switch=0 supervised";

/// Checks the emitted `current` points against the floors. Returns one
/// human-readable line per violation; empty means the gate passes.
pub fn gate(current: &[BenchPoint], config: &GateConfig) -> Vec<String> {
    let mut failures = Vec::new();
    for cur in current {
        if cur.tps <= 0.0 {
            failures.push(format!("{} [{}]: throughput collapsed to {:.0} tps", cur.figure, cur.params, cur.tps));
        }
        if cur.figure == "micro" && cur.params == BATCHING_PARAMS && cur.speedup < config.min_batch_speedup {
            failures.push(format!(
                "micro [{}]: batched hot path is only {:.2}x over unbatched (gate requires >= {:.2}x)",
                cur.params, cur.speedup, config.min_batch_speedup
            ));
        }
        if cur.figure == "fig_switch_scaling"
            && cur.params == SWITCH_SCALING_PARAMS
            && cur.speedup < config.min_switch_scaling_speedup
        {
            failures.push(format!(
                "fig_switch_scaling [{}]: two switches are only {:.2}x over one switch (gate requires >= {:.2}x)",
                cur.params, cur.speedup, config.min_switch_scaling_speedup
            ));
        }
        if cur.figure == "fig_recovery" && cur.params == RECOVERY_PARAMS && cur.speedup < config.min_recovery_speedup {
            failures.push(format!(
                "fig_recovery [{}]: checkpointed restart is only {:.2}x over genesis replay (gate requires >= {:.2}x)",
                cur.params, cur.speedup, config.min_recovery_speedup
            ));
        }
        if cur.figure == "fig_read_mix" && cur.params == READ_MIX_PARAMS && cur.speedup < config.min_read_mostly_speedup
        {
            failures.push(format!(
                "fig_read_mix [{}]: the snapshot read path is only {:.2}x over 2PL (gate requires >= {:.2}x)",
                cur.params, cur.speedup, config.min_read_mostly_speedup
            ));
        }
        if cur.figure == "fig_outage" && cur.params == OUTAGE_PARAMS && cur.speedup < config.min_degraded_floor_frac {
            failures.push(format!(
                "fig_outage [{}]: degraded-mode throughput floor is only {:.3} of peak (gate requires >= {:.3})",
                cur.params, cur.speedup, config.min_degraded_floor_frac
            ));
        }
    }
    // Anti-vacuity: if a figure with a gated datapoint ran at all, that
    // datapoint must be among the results — otherwise a sweep or label edit
    // could silently stop the floor from being enforced.
    for (figure, gated_params, what) in [
        ("fig_switch_scaling", SWITCH_SCALING_PARAMS, "switch-scaling speedup floor"),
        ("fig_recovery", RECOVERY_PARAMS, "recovery speedup floor"),
        ("fig_read_mix", READ_MIX_PARAMS, "read-mostly speedup floor"),
        ("fig_outage", OUTAGE_PARAMS, "degraded-throughput floor"),
        ("micro", BATCHING_PARAMS, "batching speedup floor"),
    ] {
        if current.iter().any(|p| p.figure == figure)
            && !current.iter().any(|p| p.figure == figure && p.params == gated_params)
        {
            failures.push(format!(
                "{figure} ran without its gated datapoint [{gated_params}]; the {what} was not \
                                   checked"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(figure: &str, params: &str, tps: f64, speedup: f64) -> BenchPoint {
        BenchPoint { figure: figure.into(), params: params.into(), tps, p50_us: 10.0, p99_us: 90.0, speedup }
    }

    #[test]
    fn bench_json_roundtrip_is_exact() {
        // Includes escapes and multibyte UTF-8 (µ), which must survive the
        // byte-level parser intact.
        let points = vec![point("fig01", "YCSB-A \"quoted\" 250µs", 1234.5, 1.42), point("micro", "wal", 5e6, 1.0)];
        let text = render(&points);
        assert_eq!(parse(&text).unwrap(), points);
        assert_eq!(parse(&render(&[])).unwrap(), Vec::new());
        // \u escapes decode to the same characters.
        let escaped = text.replace('µ', "\\u00b5");
        assert_eq!(parse(&escaped).unwrap(), points);
    }

    #[test]
    fn bench_json_rejects_nan_missing_and_wrong_schema() {
        // A NaN field: render writes it verbatim ("NaN" is not a JSON
        // number), parse must reject it.
        let text = render(&[point("figx", "p", f64::NAN, 1.0)]);
        assert!(text.contains("NaN"));
        assert!(parse(&text).is_err());
        // A missing field.
        let text = format!(
            "{{\"schema\": \"{SCHEMA}\", \"datapoints\": [{{\"figure\": \"f\", \"params\": \"p\", \"tps\": 1.0, \
             \"p50_us\": 1.0, \"p99_us\": 1.0}}]}}"
        );
        assert!(parse(&text).unwrap_err().0.contains("missing field \"speedup\""));
        // A wrong-typed field.
        let text = format!(
            "{{\"schema\": \"{SCHEMA}\", \"datapoints\": [{{\"figure\": \"f\", \"params\": \"p\", \"tps\": \"fast\", \
             \"p50_us\": 1.0, \"p99_us\": 1.0, \"speedup\": 1.0}}]}}"
        );
        assert!(parse(&text).unwrap_err().0.contains("not a finite number"));
        // Schema drift.
        assert!(parse("{\"schema\": \"v999\", \"datapoints\": []}").unwrap_err().0.contains("unsupported schema"));
        assert!(parse("{\"datapoints\": []}").unwrap_err().0.contains("missing \"schema\""));
        assert!(parse("not json").is_err());
    }

    #[test]
    fn write_merged_replaces_by_figure_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join(format!("p4db-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        write_merged(&path, &[point("fig01", "a", 100.0, 1.0), point("micro", "wal", 5e6, 1.0)]).unwrap();
        // Re-emitting fig01 replaces its points; micro survives.
        write_merged(&path, &[point("fig01", "b", 200.0, 2.0)]).unwrap();
        let merged = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged.len(), 2);
        assert!(merged.iter().any(|p| p.figure == "fig01" && p.params == "b"));
        assert!(merged.iter().all(|p| !(p.figure == "fig01" && p.params == "a")));
        assert!(merged.iter().any(|p| p.figure == "micro"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_flags_collapses_and_weak_batching_only() {
        let config = GateConfig::default();
        // Any throughput that committed something: quiet, whatever it is.
        let ok = vec![point("fig01", "YCSB-A", 400.0, 1.2), point("fig99", "new", 5.0, 1.0)];
        assert!(gate(&ok, &config).is_empty());
        // Collapse: flagged.
        let collapsed = vec![point("fig01", "YCSB-A", 0.0, 1.2)];
        let failures = gate(&collapsed, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("collapsed"));
        // Batching tripwire.
        let weak = vec![point("micro", BATCHING_PARAMS, 1000.0, 1.2)];
        let failures = gate(&weak, &config);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("batched hot path"));
        let strong = vec![point("micro", BATCHING_PARAMS, 1000.0, 1.6)];
        assert!(gate(&strong, &config).is_empty());
        // Switch-scaling tripwire.
        let weak = vec![point("fig_switch_scaling", SWITCH_SCALING_PARAMS, 1000.0, 1.1)];
        let failures = gate(&weak, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("two switches"));
        let strong = vec![point("fig_switch_scaling", SWITCH_SCALING_PARAMS, 1000.0, 1.8)];
        assert!(gate(&strong, &config).is_empty());
        let missing_gated = vec![point("fig_switch_scaling", "switches=4", 1000.0, 2.0)];
        let failures = gate(&missing_gated, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("switch-scaling speedup floor"));
        // Recovery tripwire.
        let weak = vec![point("fig_recovery", RECOVERY_PARAMS, 1000.0, 1.4)];
        let failures = gate(&weak, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("checkpointed restart"));
        let strong = vec![point("fig_recovery", RECOVERY_PARAMS, 1000.0, 4.0)];
        assert!(gate(&strong, &config).is_empty());
        let missing_gated = vec![point("fig_recovery", "genesis only", 1000.0, 1.0)];
        let failures = gate(&missing_gated, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("recovery speedup floor"));
        // Read-mix tripwire.
        let weak = vec![point("fig_read_mix", READ_MIX_PARAMS, 1000.0, 1.1)];
        let failures = gate(&weak, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("snapshot read path"));
        let strong = vec![point("fig_read_mix", READ_MIX_PARAMS, 1000.0, 2.0)];
        assert!(gate(&strong, &config).is_empty());
        let missing_gated = vec![point("fig_read_mix", "YCSB-A 50% reads workers=4", 1000.0, 2.0)];
        let failures = gate(&missing_gated, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("read-mostly speedup floor"));
        // Outage tripwire: the `speedup` slot carries the degraded floor
        // fraction, gated against collapse.
        let weak = vec![point("fig_outage", OUTAGE_PARAMS, 1000.0, 0.005)];
        let failures = gate(&weak, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("degraded-mode throughput floor"));
        let strong = vec![point("fig_outage", OUTAGE_PARAMS, 1000.0, 0.4)];
        assert!(gate(&strong, &config).is_empty());
        let missing_gated = vec![point("fig_outage", "unsupervised", 1000.0, 0.4)];
        let failures = gate(&missing_gated, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("degraded-throughput floor"));
        // Same protection for the batching tripwire: a micro run that lost
        // its gated datapoint fails rather than passing vacuously.
        let missing = vec![point("micro", "wal append", 1000.0, 1.0)];
        let failures = gate(&missing, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("batching speedup floor"));
    }

    /// The committed `BENCH_*.json` trajectory must always be schema-valid — this is the CI check that the emitted
    /// JSON parses and contains no missing/NaN fields, and that the
    /// committed hot-path batching and switch-scaling datapoints meet their
    /// acceptance bars. Each `BENCH_N.json` predates
    /// the figures of later PRs, so only the newer files are held to the
    /// newer bars.
    #[test]
    fn gate_committed_bench_files_are_schema_valid() {
        for name in [
            "BENCH_4.json",
            "BENCH_5.json",
            "BENCH_6.json",
            "BENCH_7.json",
            "BENCH_9.json",
            "BENCH_10.json",
            "BENCH_22.json",
            "BENCH_23.json",
        ] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {name}: {e}"));
            let points = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!points.is_empty(), "{name} has no datapoints");
            for figure in ["fig01", "fig13", "micro"] {
                assert!(points.iter().any(|p| p.figure == figure), "{name} is missing {figure} datapoints");
            }
            let batching = points
                .iter()
                .find(|p| p.figure == "micro" && p.params == BATCHING_PARAMS)
                .unwrap_or_else(|| panic!("{name} is missing the batching datapoint"));
            assert!(
                batching.speedup >= 1.3,
                "{name}: committed batched hot path speedup {:.2}x is below the 1.3x acceptance bar",
                batching.speedup
            );
            if name == "BENCH_4.json" || name == "BENCH_5.json" {
                continue; // predate the switch-scaling figure
            }
            let switch_scaling = points
                .iter()
                .find(|p| p.figure == "fig_switch_scaling" && p.params == SWITCH_SCALING_PARAMS)
                .unwrap_or_else(|| panic!("{name} is missing the switch-scaling datapoint"));
            let bar = GateConfig::default().min_switch_scaling_speedup;
            assert!(
                switch_scaling.speedup >= bar,
                "{name}: committed switch-scaling speedup {:.2}x is below the {bar}x acceptance bar",
                switch_scaling.speedup
            );
            if name == "BENCH_6.json" {
                continue; // predates the recovery figure
            }
            let recovery = points
                .iter()
                .find(|p| p.figure == "fig_recovery" && p.params == RECOVERY_PARAMS)
                .unwrap_or_else(|| panic!("{name} is missing the recovery datapoint"));
            let bar = GateConfig::default().min_recovery_speedup;
            assert!(
                recovery.speedup >= bar,
                "{name}: committed recovery speedup {:.2}x is below the {bar}x acceptance bar",
                recovery.speedup
            );
            if name == "BENCH_7.json" {
                continue; // predates the read-mix figure
            }
            let read_mix = points
                .iter()
                .find(|p| p.figure == "fig_read_mix" && p.params == READ_MIX_PARAMS)
                .unwrap_or_else(|| panic!("{name} is missing the read-mix datapoint"));
            let bar = GateConfig::default().min_read_mostly_speedup;
            assert!(
                read_mix.speedup >= bar,
                "{name}: committed read-mostly speedup {:.2}x is below the {bar}x acceptance bar",
                read_mix.speedup
            );
            if name == "BENCH_9.json" {
                continue; // predates the outage figure
            }
            let outage = points
                .iter()
                .find(|p| p.figure == "fig_outage" && p.params == OUTAGE_PARAMS)
                .unwrap_or_else(|| panic!("{name} is missing the outage datapoint"));
            let bar = GateConfig::default().min_degraded_floor_frac;
            assert!(
                outage.speedup >= bar,
                "{name}: committed degraded-throughput floor {:.3} is below the {bar} acceptance bar",
                outage.speedup
            );
        }
    }

    /// The CI regression gate: checks the freshly emitted smoke
    /// `BENCH_*.json` (path in `$P4DB_BENCH_JSON`) against the floors. Only
    /// active when `P4DB_BENCH_GATE=1` — the file does not exist during
    /// plain `cargo test` runs.
    #[test]
    fn gate_smoke_emission_holds_its_floors() {
        if std::env::var("P4DB_BENCH_GATE").as_deref() != Ok("1") {
            return;
        }
        let current_path = output_path();
        let text = std::fs::read_to_string(&current_path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", current_path.display()));
        let current = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", current_path.display()));
        let failures = gate(&current, &GateConfig::default());
        assert!(failures.is_empty(), "bench regression gate failed:\n  {}", failures.join("\n  "));
    }
}

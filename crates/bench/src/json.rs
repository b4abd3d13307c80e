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

use crate::BenchPoint;
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

/// The floors of the CI regression gate, one row each: `(figure, params,
/// floor, what, since)`. The `speedup` field of datapoint `(figure,
/// params)`, which measures `what`, must reach `floor` in an emission that
/// ran `figure`, and in every committed `BENCH_N.json` with `N >= since`.
///
/// The smoke profile measures for a few milliseconds per point on a loaded
/// runner, so the gate compares no absolute throughput against a recorded
/// baseline (that band tripped on whatever machine it was not recorded on):
/// each floor is a ratio between two arms of the same run, or a count. It is
/// a tripwire for collapses and schema drift, not a microbenchmark judge;
/// the committed `BENCH_23.json` and the repo benchmark (`benchmark/`) carry
/// the trend.
pub const FLOORS: &[(&str, &str, f64, &str, u32)] = &[
    // The batching tripwire. One unbatched message carries one switch
    // transaction, so 1.0 means frames are no longer shared (~20 measured).
    // A count, so a loaded host cannot trip it; the files up to BENCH_23
    // carry the batched-over-unbatched rate here (1.5-2.4x).
    ("micro", "switch hot path batched-vs-unbatched", 1.3, "switch txns per message, batched over unbatched", 4),
    // ~1.5-1.8x measured; under 1.25x the second switch is not relieving
    // the pipeline bottleneck.
    ("fig_switch_scaling", "switches=2", 1.25, "throughput of two switches over one", 6),
    // The figure grows the log until it dwarfs the table: under 2x, the
    // tail-skip read path or the shard-parallel write-back regressed.
    ("fig_recovery", "checkpointed vs genesis restart", 2.0, "checkpointed restart speed over genesis replay", 7),
    // ~2-3.5x measured; under 1.3x read-only transactions pay lock-table
    // costs again.
    ("fig_read_mix", "YCSB-A 95% reads workers=4", 1.3, "snapshot read path throughput over 2PL", 9),
    // Liveness, not speed: the figure asserts every window commits, and this
    // catches a degraded mode that commits a trickle (0.1-0.7 measured).
    ("fig_outage", "SmallBank blackhole switch=0 supervised", 0.02, "degraded-mode throughput as a share of peak", 10),
];

/// Checks `points` against the gate: every point committed something, and
/// every due floor has its datapoint at or above the floor. A floor is due
/// when its figure ran, and whenever its `since <= through`: the committed
/// `BENCH_N.json` passes `N`, and the CI smoke emission, which runs every
/// gated figure, [`u32::MAX`]. A due floor without its datapoint fails, so a
/// sweep or label edit, or a figure dropped from the smoke run, cannot
/// silently stop it from being enforced. Returns one line per violation;
/// empty means the gate passes.
pub fn gate(points: &[BenchPoint], through: u32) -> Vec<String> {
    let mut failures: Vec<String> = points
        .iter()
        .filter(|p| p.tps <= 0.0)
        .map(|p| format!("{} [{}]: throughput collapsed to {:.0} tps", p.figure, p.params, p.tps))
        .collect();
    for &(figure, params, floor, what, since) in FLOORS {
        if since > through && !points.iter().any(|p| p.figure == figure) {
            continue;
        }
        let gated: Vec<&BenchPoint> = points.iter().filter(|p| p.figure == figure && p.params == params).collect();
        if gated.is_empty() {
            failures.push(format!("{figure} is missing its gated datapoint [{params}]; {what} was not checked"));
        }
        for p in gated.into_iter().filter(|p| p.speedup < floor) {
            failures.push(format!("{figure} [{params}]: {what} is {:.3} (gate requires >= {floor})", p.speedup));
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
    fn gate_flags_collapses_and_every_floor() {
        // Any throughput that committed something: quiet, whatever it is.
        let ok = vec![point("fig01", "YCSB-A", 400.0, 1.2), point("fig99", "new", 5.0, 1.0)];
        assert!(gate(&ok, 0).is_empty());
        let failures = gate(&[point("fig01", "YCSB-A", 0.0, 1.2)], 0);
        assert!(failures.len() == 1 && failures[0].contains("collapsed"), "{failures:?}");
        for &(figure, params, floor, what, _) in FLOORS {
            let below = gate(&[point(figure, params, 1000.0, floor * 0.5)], 0);
            assert!(below.len() == 1 && below[0].contains(what), "{figure}: {below:?}");
            assert!(gate(&[point(figure, params, 1000.0, floor * 2.0)], 0).is_empty(), "{figure}");
            let missing = gate(&[point(figure, "another datapoint", 1000.0, floor * 2.0)], 0);
            assert!(missing.len() == 1 && missing[0].contains("missing its gated datapoint"), "{missing:?}");
        }
        // Ran or not, a floor is due from its `since` on: BENCH_6 is held to
        // the batching and switch-scaling floors, the smoke run to all.
        assert_eq!(gate(&[], 6).len(), 2);
        assert_eq!(gate(&[], u32::MAX).len(), FLOORS.len());
    }

    /// The committed `BENCH_*.json` trajectory must always be schema-valid —
    /// the emitted JSON parses and has no missing or NaN fields — and each
    /// file must hold every floor from the file the floor's datapoint first
    /// appeared in.
    #[test]
    fn gate_committed_bench_files_are_schema_valid() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<(u32, String)> = std::fs::read_dir(&root)
            .expect("listing the workspace root")
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()?;
                Some((n, name))
            })
            .collect();
        files.sort();
        assert!(files.len() >= 8, "committed BENCH files: {files:?}");
        for &(figure, .., since) in FLOORS {
            assert!(files.iter().any(|(n, _)| *n >= since), "no committed file holds the {figure} floor");
        }
        for (n, name) in &files {
            let text = std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"));
            let points = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            for figure in ["fig01", "fig13", "micro"] {
                assert!(points.iter().any(|p| p.figure == figure), "{name} is missing {figure} datapoints");
            }
            let failures = gate(&points, *n);
            assert!(failures.is_empty(), "{name}:\n  {}", failures.join("\n  "));
        }
    }

    /// The CI regression gate: checks the freshly emitted smoke
    /// `BENCH_*.json` (path in `$P4DB_BENCH_JSON`) against every floor. Only
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
        let failures = gate(&current, u32::MAX);
        assert!(failures.is_empty(), "bench regression gate failed:\n  {}", failures.join("\n  "));
    }
}

//! The result document: one JSON object per run (the last line of
//! standard output is its strict subset), a minimal JSON reader for it,
//! and `compare`, which judges two sets of runs by the bounds fixed in
//! the metric tables.

use crate::metrics::{quote, Better, END_TO_END, PER_LAYER};
use crate::run::RunResult;
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric exactly `value` and `unit`.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The full record of a run, one line, for `--out` files and `compare`.
pub fn record_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let slices: Vec<String> = m.slices.iter().map(|v| number(*v)).collect();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"spread\": {}, \"slices\": [{}]}}",
                quote(m.name),
                number(m.value),
                quote(m.unit),
                number(m.spread()),
                slices.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"path\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"lat_samples\": {}, \
         \"wall_s\": {}, \"metrics\": {{{}}}}}",
        quote(r.workload.name()),
        r.seed,
        number(r.seconds),
        r.trace,
        quote(r.path),
        r.failed == 0,
        r.attempted,
        r.failed,
        r.lat_samples,
        number(r.wall_s),
        metrics.join(", ")
    )
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The human-readable table printed above the result line.
pub fn table(r: &RunResult) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "ffbench {} seed={} seconds={} trace={} path={} attempted={} failed={} wall={:.1}s",
        r.workload.name(),
        r.seed,
        r.seconds,
        r.trace as u8,
        r.path,
        r.attempted,
        r.failed,
        r.wall_s
    )
    .expect("write to string");
    for m in &r.metrics {
        // A gated metric shows its bound; a per-layer one what it should move.
        let note = if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
            format!("bound {:.2}  slice-spread {:.3}", e.bound, m.spread())
        } else {
            let layer = PER_LAYER.iter().find(|l| l.name == m.name);
            layer.map_or(String::new(), |l| format!("-> {}", l.moves))
        };
        let samples = if m.name == "lat_p50_us" {
            format!("  ({} samples)", r.lat_samples)
        } else {
            String::new()
        };
        writeln!(
            s,
            "  {:<34} {:>14.4} {:<7} {note}{samples}",
            m.name, m.value, m.unit
        )
        .expect("write to string");
    }
    s
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value(0)?;
        p.space();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.space();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 32 {
            return Err("nesting deeper than 32".into());
        }
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value(depth + 1)?));
                    self.space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let rest = &self.bytes[self.at..];
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return Ok(v);
                    }
                }
                let len = rest
                    .iter()
                    .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .count();
                let text = std::str::from_utf8(&rest[..len]).expect("ascii digits");
                let v = text
                    .parse::<f64>()
                    .map_err(|_| format!("bad number at offset {}", self.at))?;
                self.at += len;
                Ok(Json::Num(v))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".into());
                }
                Some(b'\\') => {
                    let esc = *self.bytes.get(self.at + 1).ok_or("unterminated escape")?;
                    self.at += 2;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at offset {}", self.at)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

/// The runs of one set, as `(workload, metric) → values` plus the widest
/// within-run slice spread seen for that pair.
#[derive(Debug, Default)]
pub struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    slice_spread: BTreeMap<(String, String), f64>,
}

impl RunSet {
    /// Read a set: one [`record_line`] per line; blank lines are skipped.
    /// Traced runs carry no gated metrics and are ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut set = Self::default();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: no workload", n + 1))?;
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                return Err(format!("line {}: no metrics", n + 1));
            };
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {}: {name} has no value", n + 1))?;
                let key = (workload.to_string(), name.clone());
                set.values.entry(key.clone()).or_default().push(value);
                let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
                let widest = set.slice_spread.entry(key).or_default();
                *widest = widest.max(spread);
            }
        }
        if set.values.is_empty() {
            return Err("no runs found".into());
        }
        Ok(set)
    }
}

/// How one `(metric, workload)` pair fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread is wider than the bound: the data cannot say.
    Unresolved,
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// End-to-end metric.
    pub metric: &'static str,
    /// Workload.
    pub workload: String,
    /// Median over set A's runs.
    pub a: f64,
    /// Median over set B's runs.
    pub b: f64,
    /// Relative change, positive = worse, as a share of A's median.
    pub worsening: f64,
    /// The spread judged against the bound: run-to-run interquartile range
    /// over the median where a set has at least four runs, else the widest
    /// slice spread within its runs; the larger of the two sets.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compare every gated `(metric, workload)` pair present in both sets.
pub fn compare(a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, name), va) in &a.values {
        let Some(def) = END_TO_END.iter().find(|e| e.name == name) else {
            continue;
        };
        let key = (workload.clone(), name.clone());
        let Some(vb) = b.values.get(&key) else {
            continue;
        };
        let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
        let change = (mb - ma) / ma.abs();
        let worsening = match def.better {
            Better::Lower => change,
            Better::Higher => -change,
        };
        let spread_of = |set: &RunSet, v: &[f64]| {
            if v.len() >= 4 {
                iqr_share(v)
            } else {
                set.slice_spread.get(&key).copied().unwrap_or(0.0)
            }
        };
        let spread = spread_of(a, va).max(spread_of(b, vb));
        let verdict = if spread > def.bound {
            Verdict::Unresolved
        } else if worsening > def.bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        rows.push(Row {
            metric: def.name,
            workload: workload.clone(),
            a: ma,
            b: mb,
            worsening,
            spread,
            bound: def.bound,
            verdict,
        });
    }
    rows
}

/// The comparison as a table, one row per `(metric, workload)`.
pub fn compare_table(rows: &[Row]) -> String {
    let mut s = format!(
        "{:<16} {:<13} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict\n",
        "metric", "workload", "median A", "median B", "worse by", "spread", "bound"
    );
    for r in rows {
        writeln!(
            s,
            "{:<16} {:<13} {:>12.4} {:>12.4} {:>+8.1}% {:>7.1}% {:>6.2}  {}",
            r.metric,
            r.workload,
            r.a,
            r.b,
            100.0 * r.worsening,
            100.0 * r.spread,
            r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        )
        .expect("write to string");
    }
    s
}

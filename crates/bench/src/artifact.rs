//! The JSON artifacts, baseline gates and 1-vs-N runner shared by the
//! smoke binaries (`fleet_smoke`, `chaos_smoke`, `resilience_smoke`,
//! `soak_smoke`, `perf_smoke`, `adaptive_bench`).
//!
//! [`Json`] keeps every number as its formatted token, so each writer
//! picks its precision and a parse-then-render round trip is byte-exact.
//! [`Json::render`] has one layout rule: the top-level object puts one
//! member per line, a non-empty array of objects one element per line at
//! a 4-space indent, and everything else is inline. [`Json::parse`] is
//! strict: a truncated or malformed document is an error naming the key
//! path and byte offset, and [`Field`] lookups name the file and key.
//! [`Gate`] is the one baseline check, [`two_phase`] and [`Failures`]
//! the 1-vs-N runner.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

use smartconf_runtime::FleetExecutor;

use crate::fleet::FleetPhase;

/// A JSON value; object members keep their order.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, stored as its formatted token.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
json_from!(bool => |v| Json::Bool(v), u64 => |v| Json::Num(v.to_string()),
    usize => |v| Json::Num(v.to_string()), &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v));

impl Json {
    /// A float with `decimals` digits after the point.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// An array of anything convertible to `Json`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// An object from `(key, value)` members, in order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Appends a member to an object (no-op on other values).
    pub fn push(&mut self, key: &str, value: Json) {
        if let Json::Obj(members) = self {
            members.push((key.to_string(), value));
        }
    }

    /// Renders the document with the layout rule, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let Json::Obj(members) = self else {
            self.inline(&mut out);
            return out + "\n";
        };
        for (i, (key, value)) in members.iter().enumerate() {
            out += if i == 0 { "{\n  " } else { ",\n  " };
            write_str(&mut out, key);
            out += ": ";
            match value {
                Json::Arr(rows)
                    if !rows.is_empty() && rows.iter().all(|r| matches!(r, Json::Obj(_))) =>
                {
                    for (j, row) in rows.iter().enumerate() {
                        out += if j == 0 { "[\n    " } else { ",\n    " };
                        row.inline(&mut out);
                    }
                    out += "\n  ]";
                }
                _ => value.inline(&mut out),
            }
        }
        out + if members.is_empty() { "{}\n" } else { "\n}\n" }
    }

    fn inline(&self, out: &mut String) {
        match self {
            Json::Null => *out += "null",
            Json::Bool(b) => *out += if *b { "true" } else { "false" },
            Json::Num(token) => *out += token,
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    *out += if i == 0 { "" } else { ", " };
                    item.inline(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    *out += if i == 0 { "" } else { ", " };
                    write_str(out, key);
                    *out += ": ";
                    value.inline(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed); an
    /// error names the key path, the problem and the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
            path: Vec::new(),
        };
        let value = p.value()?;
        p.ws();
        match p.pos < p.s.len() {
            true => Err(p.err("trailing characters after the document")),
            false => Ok(value),
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => *out += &format!("\\{c}"),
            '\n' => *out += "\\n",
            c if c < ' ' => *out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
    /// `.key` / `[i]` segments of the value being read.
    path: Vec<String>,
}

impl Parser<'_> {
    /// An error at the cursor; any failure at the end of the input is a
    /// truncation.
    fn err(&self, msg: &str) -> String {
        let msg = if self.pos >= self.s.len() {
            "unexpected end of input"
        } else {
            msg
        };
        let path = self.path.concat();
        let path = path.trim_start_matches('.');
        let path = if path.is_empty() { "document" } else { path };
        format!("`{path}`: {msg} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes and returns the next byte if
    /// `accept` takes it.
    fn eat(&mut self, accept: impl Fn(u8) -> bool) -> Option<u8> {
        self.ws();
        let b = self.s.get(self.pos).copied().filter(|&b| accept(b));
        self.pos += usize::from(b.is_some());
        b
    }

    /// Consumes the byte run `accept` matches and returns it as a token.
    fn token(&mut self, accept: impl Fn(u8) -> bool) -> &str {
        let start = self.pos;
        while self.s.get(self.pos).is_some_and(|&b| accept(b)) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos]).expect("runs end on ASCII bytes")
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.pos) {
            Some(b'{' | b'[') => self.container(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => {
                let t = self.token(|b| b.is_ascii_digit() || b"+-.eE".contains(&b));
                let u = t.strip_prefix('-').unwrap_or(t);
                let int = u.find(|c: char| !c.is_ascii_digit()).unwrap_or(u.len());
                let frac_ok = !u[int..].starts_with('.')
                    || u[int + 1..].starts_with(|c: char| c.is_ascii_digit());
                match int > 0
                    && !(int > 1 && u.starts_with('0'))
                    && frac_ok
                    && u.parse::<f64>().is_ok()
                {
                    true => Ok(Json::Num(t.to_string())),
                    false => Err(self.err("malformed number")),
                }
            }
            _ => match self.token(|b| b.is_ascii_lowercase()) {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "null" => Ok(Json::Null),
                _ => Err(self.err("expected a value")),
            },
        }
    }

    /// An object or array, its opening bracket at the cursor.
    fn container(&mut self) -> Result<Json, String> {
        let is_obj = self.s[self.pos] == b'{';
        let close = if is_obj { b'}' } else { b']' };
        self.pos += 1;
        let (mut members, mut items) = (Vec::new(), Vec::new());
        self.ws();
        if self.s.get(self.pos) == Some(&close) {
            self.pos += 1;
        } else {
            loop {
                if is_obj {
                    self.ws();
                    let key = self.string()?;
                    if self.eat(|b| b == b':').is_none() {
                        return Err(self.err("expected `:` after an object key"));
                    }
                    self.path.push(format!(".{key}"));
                    members.push((key, self.value()?));
                } else {
                    self.path.push(format!("[{}]", items.len()));
                    items.push(self.value()?);
                }
                self.path.pop();
                match self.eat(|b| b == b',' || b == close) {
                    Some(b',') => continue,
                    Some(_) => break,
                    None => return Err(self.err("expected `,` or a closing bracket")),
                }
            }
        }
        Ok(if is_obj {
            Json::Obj(members)
        } else {
            Json::Arr(items)
        })
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            out += self.token(|b| b != b'"' && b != b'\\' && b >= 0x20);
            let b = self.s.get(self.pos).copied();
            self.pos += usize::from(b.is_some());
            let escape = match b {
                Some(b'"') => return Ok(out),
                Some(b'\\') => self.s.get(self.pos).copied(),
                _ => return Err(self.err("control character in a string")),
            };
            self.pos += usize::from(escape.is_some());
            let c = match escape.and_then(|e| b"\"\\/bfnrt".iter().position(|&x| x == e)) {
                Some(i) => ['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i],
                None if escape == Some(b'u') => {
                    let hex = self
                        .s
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok());
                    let c = hex
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32);
                    self.pos += 4;
                    c.ok_or_else(|| self.err("bad \\u escape"))?
                }
                None => return Err(self.err("bad escape")),
            };
            out.push(c);
        }
    }
}

/// Reads and parses the artifact at `path`; `role` (e.g. `"baseline"`)
/// prefixes the path in every error, as [`Field::root`] expects.
pub fn read_artifact(role: &str, path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {role} {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("malformed {role} {path}: {e}"))
}

/// A value inside a parsed artifact, with the file and key path it was
/// reached by: every failed lookup names both.
#[derive(Debug, Clone)]
pub struct Field<'a> {
    source: &'a str,
    path: String,
    value: &'a Json,
}

impl<'a> Field<'a> {
    /// The root of the artifact `source`, e.g. `"baseline BENCH_soak.json"`.
    pub fn root(source: &'a str, value: &'a Json) -> Field<'a> {
        Field {
            source,
            path: String::new(),
            value,
        }
    }

    fn err<T>(&self, path: &str, problem: &str) -> Result<T, String> {
        let path = if path.is_empty() { "document" } else { path };
        Err(format!("malformed {}: `{path}` {problem}", self.source))
    }

    /// The raw value.
    pub fn value(&self) -> &'a Json {
        self.value
    }

    fn key_path(&self, key: &str) -> String {
        match self.path.is_empty() {
            true => key.to_string(),
            false => format!("{}.{key}", self.path),
        }
    }

    /// Member `key`, or `None` when absent (an error if this is not an
    /// object).
    pub fn opt(&self, key: &str) -> Result<Option<Field<'a>>, String> {
        let Json::Obj(members) = self.value else {
            return self.err(&self.path, "is not an object");
        };
        let found = members.iter().find(|(k, _)| k == key);
        Ok(found.map(|(_, value)| Field {
            path: self.key_path(key),
            value,
            ..*self
        }))
    }

    /// Member `key`, which must be present.
    pub fn get(&self, key: &str) -> Result<Field<'a>, String> {
        self.opt(key)?
            .map_or_else(|| self.err(&self.key_path(key), "is missing"), Ok)
    }

    /// The elements of an array.
    pub fn items(&self) -> Result<Vec<Field<'a>>, String> {
        let Json::Arr(items) = self.value else {
            return self.err(&self.path, "is not an array");
        };
        let field = |(i, value)| Field {
            path: format!("{}[{i}]", self.path),
            value,
            ..*self
        };
        Ok(items.iter().enumerate().map(field).collect())
    }

    /// The value as a number.
    pub fn f64(&self) -> Result<f64, String> {
        let number = match self.value {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        };
        number.map_or_else(|| self.err(&self.path, "is not a number"), Ok)
    }

    /// The value as a string.
    pub fn str(&self) -> Result<&'a str, String> {
        match self.value {
            Json::Str(s) => Ok(s),
            _ => self.err(&self.path, "is not a string"),
        }
    }

    /// The value as a boolean.
    pub fn bool(&self) -> Result<bool, String> {
        match self.value {
            Json::Bool(b) => Ok(*b),
            _ => self.err(&self.path, "is not a boolean"),
        }
    }
}

/// The `host_cpus` member: a 1-CPU host cannot show parallel speedup.
pub fn host_cpus() -> (&'static str, Json) {
    (
        "host_cpus",
        FleetExecutor::available_parallelism().threads().into(),
    )
}

/// The `phases` member: one `{name, threads, wall_clock_secs}` row per
/// timed phase.
pub fn phases(phases: &[FleetPhase]) -> (&'static str, Json) {
    let row = |p: &FleetPhase| {
        Json::obj([
            ("name", p.name.as_str().into()),
            ("threads", p.threads.into()),
            ("wall_clock_secs", Json::fixed(p.wall.as_secs_f64(), 3)),
        ])
    };
    ("phases", Json::arr(phases.iter().map(row)))
}

/// Renders `json` to `path` and logs the write.
pub fn write_artifact(path: &str, json: &Json) {
    std::fs::write(path, json.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Which way a gated number improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (wall-clock, tail overshoot, failure counts).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// How a fresh number compares to its [`Gate`].
#[derive(Debug, Clone, PartialEq)]
pub enum CheckVerdict {
    /// Inside the gate.
    Ok,
    /// Past the gate on the better side: not a failure, but the
    /// baseline understates the current code and should be regenerated.
    BaselineStale,
    /// Past the gate on the worse side: a regression.
    Regression,
}

/// Minimum finite series length for [`Gate::stat`].
pub const STAT_MIN_HISTORY: usize = 5;

/// Width of the statistical gate in MADs. k = 5 on a MAD (≈ 0.674 σ
/// for normal noise) is roughly a 3.4 σ gate.
pub const STAT_K: f64 = 5.0;

/// Floor on the MAD as a fraction of the median, so a history of
/// near-identical runs does not gate on measurement noise.
pub const STAT_MAD_FLOOR: f64 = 0.02;

/// One baseline check: the window a fresh number is judged against.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Exactly this value.
    Exact(f64),
    /// `reference × (1 ± tol)`.
    Band {
        /// The baseline value.
        reference: f64,
        /// Fractional half-width.
        tol: f64,
    },
    /// `median ± STAT_K · mad` over a recorded series.
    Stat {
        /// Median of the series.
        median: f64,
        /// Median absolute deviation, floored at
        /// [`STAT_MAD_FLOOR`] × |median|.
        mad: f64,
        /// Finite series length the gate was fit on.
        n: usize,
    },
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n % 2 {
        1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

impl Gate {
    /// Fits median ± k·MAD over the finite values of `series`, or `None`
    /// when fewer than [`STAT_MIN_HISTORY`] remain.
    pub fn stat(series: &[f64]) -> Option<Gate> {
        let mut sorted: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.len() < STAT_MIN_HISTORY {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let median = median_of(&sorted);
        let mut devs: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        devs.sort_by(f64::total_cmp);
        let mad = median_of(&devs).max(STAT_MAD_FLOOR * median.abs());
        Some(Gate::Stat {
            median,
            mad,
            n: sorted.len(),
        })
    }

    /// The acceptance window `(lo, hi)`.
    pub fn bounds(&self) -> (f64, f64) {
        match *self {
            Gate::Exact(v) => (v, v),
            Gate::Band { reference, tol } => (reference * (1.0 - tol), reference * (1.0 + tol)),
            Gate::Stat { median, mad, .. } => (median - STAT_K * mad, median + STAT_K * mad),
        }
    }

    /// Judges `value`: outside the window on the worse side is a
    /// regression, on the better side a stale baseline.
    pub fn check(&self, value: f64, better: Better) -> CheckVerdict {
        let (lo, hi) = self.bounds();
        let (worse, improved) = match better {
            Better::Lower => (value > hi, value < lo),
            Better::Higher => (value < lo, value > hi),
        };
        match (worse, improved) {
            (true, _) => CheckVerdict::Regression,
            (_, true) => CheckVerdict::BaselineStale,
            _ => CheckVerdict::Ok,
        }
    }

    /// The window in words with `decimals` digits and `unit`, e.g.
    /// `baseline 0.686 s, tolerance ±25% -> [0.515, 0.858] s`.
    pub fn describe(&self, decimals: usize, unit: &str) -> String {
        let (lo, hi) = self.bounds();
        let window = format!("[{lo:.decimals$}, {hi:.decimals$}] {unit}");
        match *self {
            Gate::Exact(v) => format!("exactly {v:.decimals$} {unit}"),
            Gate::Band { reference, tol } => {
                let pct = tol * 100.0;
                format!("baseline {reference:.decimals$} {unit}, tolerance ±{pct:.0}% -> {window}")
            }
            Gate::Stat { median, n, .. } => {
                format!("history median {median:.decimals$} {unit} over {n} runs, ±{STAT_K}·MAD -> {window}")
            }
        }
    }
}

/// Where two renders first differ, for the failure report (`None` when
/// identical).
pub fn first_diff(serial: &str, parallel: &str, threads: usize) -> Option<String> {
    let (mut a, mut b) = (serial.lines(), parallel.lines());
    for line in 1.. {
        match (a.next(), b.next()) {
            (None, None) if serial == parallel => return None,
            (None, None) => return Some("renders differ in line endings".to_string()),
            (x, y) if x != y => {
                let [x, y] = [x, y].map(|l| l.unwrap_or("<end of render>"));
                return Some(format!(
                    "first diff at line {line}:\n  1-thread: {x}\n  {threads}-thread: {y}"
                ));
            }
            _ => {}
        }
    }
    unreachable!("a render has finitely many lines")
}

/// Runs `run` at 1 worker thread and again at `threads`, timing each
/// call as the phase `{prefix}-{n}-thread(s)` and logging it.
pub fn two_phase<R>(
    prefix: &str,
    threads: usize,
    mut run: impl FnMut(usize) -> R,
) -> ((R, R), [FleetPhase; 2]) {
    let mut phase = |n: usize| {
        let (result, phase) = FleetPhase::time(prefix, n, || run(n));
        eprintln!("  {}: {:.3} s", phase.name, phase.wall.as_secs_f64());
        (result, phase)
    };
    let ((serial, p1), (parallel, p2)) = (phase(1), phase(threads));
    ((serial, parallel), [p1, p2])
}

/// The failures one smoke run found, reported together at the end.
#[derive(Debug, Default)]
pub struct Failures(Vec<String>);

impl Failures {
    /// Records one failure line.
    pub fn fail(&mut self, line: impl Into<String>) {
        self.0.push(line.into());
    }

    /// Diffs the 1-thread and `threads`-thread renders of `what`,
    /// recording the first differing line; returns whether they match.
    pub fn same_render(
        &mut self,
        what: &str,
        threads: usize,
        serial: &str,
        parallel: &str,
    ) -> bool {
        let diff = first_diff(serial, parallel, threads);
        if let Some(diff) = &diff {
            self.fail(format!(
                "{what} reports differ between 1 and {threads} threads; {diff}"
            ));
        }
        diff.is_none()
    }

    /// Prints every failure and exits 1 if there is any; otherwise
    /// prints `OK: {ok}`.
    pub fn finish(self, ok: impl Display) {
        for line in &self.0 {
            eprintln!("FAIL: {line}");
        }
        if !self.0.is_empty() {
            std::process::exit(1);
        }
        eprintln!("OK: {ok}");
    }
}

/// A smoke binary's `--flag value` arguments.
#[derive(Debug)]
pub struct Flags(HashMap<String, String>);

impl Flags {
    /// Parses the process arguments; panics on a flag outside `accepted`
    /// or one without a value. A repeated flag keeps its last value.
    pub fn parse(accepted: &[&str]) -> Flags {
        let mut values = HashMap::new();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            assert!(accepted.contains(&flag.as_str()), "unknown argument {flag}");
            let value = args
                .next()
                .unwrap_or_else(|| panic!("{flag} needs a value"));
            values.insert(flag, value);
        }
        Flags(values)
    }

    /// `flag`'s value parsed as `T`, or `default` when absent.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.0.get(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} cannot take {v:?}"))
        })
    }

    /// `flag`'s value, if given.
    pub fn opt(&self, flag: &str) -> Option<String> {
        self.0.get(flag).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_rule_renders_members_rows_and_inline_values() {
        let doc = Json::obj([
            ("seeds", Json::arr([42u64, 43])),
            ("empty", Json::Arr(Vec::new())),
            ("kernel", Json::obj([("x", Json::fixed(1.5, 3))])),
            (
                "rows",
                Json::arr([
                    Json::obj([("a", Json::from(1u64)), ("b", Json::Null)]),
                    Json::obj([("s", Json::from("q\"\\\n"))]),
                ]),
            ),
            ("speedup", Json::Num(2.0.to_string())),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"seeds\": [42, 43],\n  \"empty\": [],\n  \"kernel\": {\"x\": 1.500},\n  \
             \"rows\": [\n    {\"a\": 1, \"b\": null},\n    {\"s\": \"q\\\"\\\\\\n\"}\n  ],\n  \
             \"speedup\": 2\n}\n"
        );
        assert_eq!(Json::parse(&text), Ok(doc));
    }

    #[test]
    fn reader_keeps_number_tokens_and_round_trips() {
        let text = "{\n  \"a\": 0.5000,\n  \"b\": [-1e-3, 10, 2.50]\n}\n";
        let doc = Json::parse(text).expect("parse");
        assert_eq!(doc.render(), text);
        let root = Field::root("test doc", &doc);
        assert_eq!(root.get("a").unwrap().f64(), Ok(0.5));
        assert_eq!(root.get("b").unwrap().items().unwrap()[2].f64(), Ok(2.5));
    }

    #[test]
    fn reader_rejects_malformed_documents_with_the_key_path() {
        for (text, err) in [
            (
                "{\"a\": [1, {\"b\": 2",
                "`a[1]`: unexpected end of input at byte 17",
            ),
            (
                "{\"a\": [1, {\"b\": \"x",
                "`a[1].b`: unexpected end of input at byte 18",
            ),
            ("{\"a\": 01}", "`a`: malformed number at byte 8"),
            ("{\"a\": 1.}", "`a`: malformed number at byte 8"),
            ("{\"a\": 1.", "`a`: unexpected end of input at byte 8"),
            ("{\"a\": tr", "`a`: unexpected end of input at byte 8"),
            (
                "{\"a\": 1} x",
                "`document`: trailing characters after the document at byte 9",
            ),
            (
                "{\"a\" 1}",
                "`document`: expected `:` after an object key at byte 5",
            ),
            (
                "[1 2]",
                "`document`: expected `,` or a closing bracket at byte 3",
            ),
            ("{\"a\": nul}", "`a`: expected a value at byte 9"),
            ("{\"a\": \"\\q\"}", "`a`: bad escape at byte 9"),
            ("", "`document`: unexpected end of input at byte 0"),
        ] {
            assert_eq!(Json::parse(text), Err(err.to_string()), "{text}");
        }
    }

    #[test]
    fn field_errors_name_the_file_and_the_key() {
        let doc = Json::parse("{\"k\": {\"n\": \"x\"}, \"rows\": [{}]}").unwrap();
        let root = Field::root("baseline B.json", &doc);
        let k = root.get("k").unwrap();
        assert_eq!(
            k.get("n").unwrap().f64(),
            Err("malformed baseline B.json: `k.n` is not a number".into())
        );
        assert_eq!(
            k.get("m").unwrap_err(),
            "malformed baseline B.json: `k.m` is missing"
        );
        let rows = root.get("rows").unwrap().items().unwrap();
        assert_eq!(
            rows[0].get("p99").unwrap_err(),
            "malformed baseline B.json: `rows[0].p99` is missing"
        );
        assert!(root.get("k").unwrap().items().is_err());
    }

    #[test]
    fn gate_directions_and_windows() {
        let band = Gate::Band {
            reference: 10.0,
            tol: 0.5,
        };
        assert_eq!(band.bounds(), (5.0, 15.0));
        assert_eq!(band.check(16.0, Better::Lower), CheckVerdict::Regression);
        assert_eq!(
            band.check(16.0, Better::Higher),
            CheckVerdict::BaselineStale
        );
        assert_eq!(band.check(4.0, Better::Higher), CheckVerdict::Regression);
        assert_eq!(Gate::Exact(0.0).check(0.0, Better::Lower), CheckVerdict::Ok);
        assert_eq!(
            Gate::Exact(0.0).check(3.0, Better::Lower),
            CheckVerdict::Regression
        );
        assert_eq!(
            band.describe(1, "s"),
            "baseline 10.0 s, tolerance ±50% -> [5.0, 15.0] s"
        );
    }

    #[test]
    fn first_diff_names_the_line_or_the_missing_tail() {
        assert_eq!(first_diff("a\nb\n", "a\nb\n", 4), None);
        let diff = first_diff("a\nb\n", "a\nc\n", 4).unwrap();
        assert!(
            diff.ends_with(" line 2:\n  1-thread: b\n  4-thread: c"),
            "{diff}"
        );
        assert_eq!(
            first_diff("a\n", "a\r\n", 4).unwrap(),
            "renders differ in line endings"
        );
        assert!(first_diff("a\n", "a\nb\n", 2)
            .unwrap()
            .contains("1-thread: <end of render>"));
    }
}

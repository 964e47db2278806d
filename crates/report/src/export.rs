//! JSON export of result data — self-contained, no external dependencies.
//!
//! Experiment binaries persist campaign and sampling results as JSON
//! artifacts so EXPERIMENTS.md numbers are reproducible and diffable. The
//! writer lives in-tree so the export path works in hermetic builds; the
//! output format matches the former `serde_json` pretty printer (2-space
//! indent, `"key": value`), keeping existing artifacts diffable.
//!
//! Three layers:
//!
//! * [`Json`] — a plain JSON value tree with a pretty printer and a small
//!   parser (the parser exists for tests and for consumers that want to
//!   inspect artifacts without a full deserialization framework);
//! * [`ToJson`] — the conversion trait; implemented here for the suite's
//!   result types and derivable for flat structs via [`impl_to_json!`](crate::impl_to_json);
//! * [`to_json`] / [`write_json`] — the entry points the CLI and the
//!   bench binaries use.

use sofi_campaign::{
    BurstSampledResult, CampaignResult, ExecutorStats, ExperimentResult, FaultDomain, Outcome,
    SampledOutcome, SampledResult, SamplingMode,
};
use sofi_machine::Trap;
use sofi_metrics::{Comparison, FailureEstimate, Table1Row};
use sofi_space::{Experiment, FaultCoord, FaultSpace};
use sofi_telemetry::{Bucket, HistogramSnapshot, Snapshot};
use std::fmt;

/// Serializes any exportable structure to pretty-printed JSON.
///
/// # Examples
///
/// ```
/// use sofi_space::FaultSpace;
/// let json = sofi_report::to_json(&FaultSpace::new(8, 16));
/// assert!(json.contains("\"cycles\": 8"));
/// ```
pub fn to_json<T: ToJson>(value: &T) -> String {
    value.to_json().pretty()
}

/// Serializes to a writer (e.g. a results file).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_json<T: ToJson, W: std::io::Write>(value: &T, mut writer: W) -> std::io::Result<()> {
    writer.write_all(to_json(value).as_bytes())
}

/// A JSON value tree.
///
/// Object members keep insertion order (a `Vec` of pairs, not a map), so
/// exported artifacts list fields in declaration order like the former
/// derive-based serializer did.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (values `>= 0` normalize to [`Json::U64`]).
    I64(i64),
    /// A floating-point number. Non-finite values print as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index (`None` for non-arrays and out of range).
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The integer value, if this is a number representable as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The numeric value as `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation (the `serde_json` style the
    /// suite's artifacts have always used).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let mut buf = itoa_buffer();
                out.push_str(write_u64(&mut buf, *v));
            }
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` keeps a trailing `.0` on integral floats, so a
                    // float field stays a float across a round-trip.
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// Supports the full value grammar the writer emits (and standard JSON
    /// in general: escapes, `\uXXXX`, exponents). Trailing garbage is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn itoa_buffer() -> [u8; 20] {
    [0; 20]
}

fn write_u64(buf: &mut [u8; 20], mut v: u64) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).unwrap()
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + lo.checked_sub(0xDC00)
                                            .ok_or_else(|| self.err("invalid low surrogate"))?;
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Conversion into a [`Json`] tree.
///
/// Implemented for primitives, strings, options, slices and the suite's
/// result types. Flat report structs can derive an implementation with
/// [`impl_to_json!`](crate::impl_to_json).
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! impl_to_json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_to_json_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 { Json::U64(v as u64) } else { Json::I64(v) }
            }
        }
    )*};
}

impl_to_json_unsigned!(u8, u16, u32, u64, usize);
impl_to_json_signed!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(f64::from(*self))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Implements [`ToJson`] for a struct with public fields, serializing every
/// listed field in order under its own name:
///
/// ```
/// struct Row { benchmark: String, failures: u64 }
/// sofi_report::impl_to_json!(Row { benchmark, failures });
/// let row = Row { benchmark: "hi".into(), failures: 48 };
/// assert!(sofi_report::to_json(&row).contains("\"failures\": 48"));
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::export::ToJson for $ty {
            fn to_json(&self) -> $crate::export::Json {
                $crate::export::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::export::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }
        }
    };
}

// --- Suite result types -------------------------------------------------
//
// Shapes match what the former serde derives produced: structs as objects
// in field order, unit enum variants as strings, data-carrying variants as
// single-key objects.

impl ToJson for FaultCoord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycle".into(), self.cycle.to_json()),
            ("bit".into(), self.bit.to_json()),
        ])
    }
}

impl ToJson for FaultSpace {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles".into(), self.cycles.to_json()),
            ("bits".into(), self.bits.to_json()),
        ])
    }
}

impl ToJson for Experiment {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), self.id.to_json()),
            ("coord".into(), self.coord.to_json()),
            ("weight".into(), self.weight.to_json()),
        ])
    }
}

impl ToJson for FaultDomain {
    fn to_json(&self) -> Json {
        // `FaultDomain::name` is the canonical artifact spelling; going
        // through it (rather than a local match) keeps exports and the
        // CLI round-trip (`Display`/`FromStr`) in lock-step as domains
        // are added.
        Json::Str(self.name().into())
    }
}

impl ToJson for SamplingMode {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                SamplingMode::UniformRaw => "UniformRaw",
                SamplingMode::WeightedClasses => "WeightedClasses",
                SamplingMode::BiasedPerClass => "BiasedPerClass",
            }
            .into(),
        )
    }
}

impl ToJson for Trap {
    fn to_json(&self) -> Json {
        match *self {
            Trap::Misaligned { addr, width } => Json::Obj(vec![(
                "Misaligned".into(),
                Json::Obj(vec![
                    ("addr".into(), addr.to_json()),
                    ("width".into(), Json::Str(format!("{width:?}"))),
                ]),
            )]),
            Trap::OutOfRange { addr } => Json::Obj(vec![(
                "OutOfRange".into(),
                Json::Obj(vec![("addr".into(), addr.to_json())]),
            )]),
            Trap::MmioRead { addr } => Json::Obj(vec![(
                "MmioRead".into(),
                Json::Obj(vec![("addr".into(), addr.to_json())]),
            )]),
            Trap::BadJump { target } => Json::Obj(vec![(
                "BadJump".into(),
                Json::Obj(vec![("target".into(), target.to_json())]),
            )]),
            Trap::SerialOverflow => Json::Str("SerialOverflow".into()),
            Trap::IllegalOpcode { opcode } => Json::Obj(vec![(
                "IllegalOpcode".into(),
                Json::Obj(vec![("opcode".into(), opcode.to_json())]),
            )]),
        }
    }
}

impl ToJson for Outcome {
    fn to_json(&self) -> Json {
        match *self {
            Outcome::NoEffect => Json::Str("NoEffect".into()),
            Outcome::DetectedCorrected => Json::Str("DetectedCorrected".into()),
            Outcome::SilentDataCorruption => Json::Str("SilentDataCorruption".into()),
            Outcome::DetectedUnrecoverable => Json::Str("DetectedUnrecoverable".into()),
            Outcome::Timeout => Json::Str("Timeout".into()),
            Outcome::OutputFlood => Json::Str("OutputFlood".into()),
            Outcome::AbnormalHalt { code } => Json::Obj(vec![(
                "AbnormalHalt".into(),
                Json::Obj(vec![("code".into(), code.to_json())]),
            )]),
            Outcome::CpuException(trap) => Json::Obj(vec![("CpuException".into(), trap.to_json())]),
        }
    }
}

impl ToJson for ExperimentResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("experiment".into(), self.experiment.to_json()),
            ("outcome".into(), self.outcome.to_json()),
        ])
    }
}

impl ToJson for CampaignResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("benchmark".into(), self.benchmark.to_json()),
            ("domain".into(), self.domain.to_json()),
            ("space".into(), self.space.to_json()),
            (
                "known_benign_weight".into(),
                self.known_benign_weight.to_json(),
            ),
            ("golden_cycles".into(), self.golden_cycles.to_json()),
            ("results".into(), self.results.to_json()),
        ])
    }
}

impl ToJson for SampledOutcome {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("experiment".into(), self.experiment.to_json()),
            ("hits".into(), self.hits.to_json()),
            ("outcome".into(), self.outcome.to_json()),
        ])
    }
}

impl ToJson for SampledResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("benchmark".into(), self.benchmark.to_json()),
            ("domain".into(), self.domain.to_json()),
            ("mode".into(), self.mode.to_json()),
            ("draws".into(), self.draws.to_json()),
            ("population".into(), self.population.to_json()),
            ("benign_draws".into(), self.benign_draws.to_json()),
            ("outcomes".into(), self.outcomes.to_json()),
        ])
    }
}

impl ToJson for BurstSampledResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("benchmark".into(), self.benchmark.to_json()),
            ("domain".into(), self.domain.to_json()),
            ("width".into(), self.width.to_json()),
            ("draws".into(), self.draws.to_json()),
            ("population".into(), self.population.to_json()),
            ("benign_skips".into(), self.benign_skips.to_json()),
            ("failure_draws".into(), self.failure_draws.to_json()),
            ("by_kind".into(), self.by_kind.to_json()),
        ])
    }
}

impl ToJson for ExecutorStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workers".into(), self.workers.to_json()),
            ("experiments".into(), self.experiments.to_json()),
            ("pristine_cycles".into(), self.pristine_cycles.to_json()),
            ("faulted_cycles".into(), self.faulted_cycles.to_json()),
            ("converged_early".into(), self.converged_early.to_json()),
            (
                "faulted_cycles_saved".into(),
                self.faulted_cycles_saved.to_json(),
            ),
            ("memo_hits".into(), self.memo_hits.to_json()),
            ("memo_misses".into(), self.memo_misses.to_json()),
            (
                "memoized_cycles_saved".into(),
                self.memoized_cycles_saved.to_json(),
            ),
        ])
    }
}

/// The artifact exported for a finished service job: the daemon's job id
/// next to the merged campaign result and the executor counters
/// accumulated over all journaled batches. This is the journal → export
/// bridge `sofi submit --wait --out <file>` writes.
pub fn job_artifact(job: u64, result: &CampaignResult, stats: &ExecutorStats) -> Json {
    Json::Obj(vec![
        ("job".into(), job.to_json()),
        ("result".into(), result.to_json()),
        ("stats".into(), stats.to_json()),
    ])
}

impl ToJson for Bucket {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("lo".into(), self.lo.to_json()),
            ("hi".into(), self.hi.to_json()),
            ("count".into(), self.count.to_json()),
        ])
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), self.count.to_json()),
            ("sum".into(), self.sum.to_json()),
            ("min".into(), self.min.to_json()),
            ("max".into(), self.max.to_json()),
            ("mean".into(), self.mean().to_json()),
            ("p50".into(), self.quantile(0.5).to_json()),
            ("p99".into(), self.quantile(0.99).to_json()),
            ("buckets".into(), self.buckets.to_json()),
        ])
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        let entries = |pairs: &[(String, u64)]| {
            Json::Obj(
                pairs
                    .iter()
                    .map(|(name, v)| (name.clone(), v.to_json()))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("counters".into(), entries(&self.counters)),
            ("gauges".into(), entries(&self.gauges)),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(name, h)| (name.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Schema tag stamped into every [`telemetry_artifact`]. Bump the `/v1`
/// suffix on any incompatible change to the snapshot JSON shape.
pub const TELEMETRY_SCHEMA: &str = "sofi.telemetry.snapshot/v1";

/// The artifact exported for a telemetry snapshot: the schema tag, then
/// the counters, gauges and histograms as name-keyed objects (names are
/// sorted — registry snapshots come out that way — so artifacts diff
/// cleanly between runs). Histograms carry their occupied buckets plus
/// derived `mean`/`p50`/`p99` so consumers need no bucket math.
pub fn telemetry_artifact(snapshot: &Snapshot) -> Json {
    let Json::Obj(mut fields) = snapshot.to_json() else {
        unreachable!("Snapshot serializes as an object");
    };
    let mut obj = vec![("schema".into(), Json::Str(TELEMETRY_SCHEMA.into()))];
    obj.append(&mut fields);
    Json::Obj(obj)
}

impl ToJson for Table1Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("k".into(), self.k.to_json()),
            ("probability".into(), self.probability.to_json()),
        ])
    }
}

/// Schema tag stamped into every [`susceptibility_artifact`]. Bump the
/// `/v1` suffix on any incompatible change to the row shape.
pub const SUSCEPTIBILITY_SCHEMA: &str = "sofi.susceptibility.comparison/v1";

/// One benchmark pair of a Figure-2-style susceptibility comparison: the
/// sound absolute-failure estimates for both variants and their ratio,
/// under one fault domain.
#[derive(Debug, Clone, PartialEq)]
pub struct SusceptibilityRow {
    /// Benchmark pair name.
    pub benchmark: String,
    /// The injected fault domain.
    pub domain: FaultDomain,
    /// Baseline fault-space size `w` (cycles × bits).
    pub baseline_space: u64,
    /// Hardened fault-space size `w'`.
    pub hardened_space: u64,
    /// Absolute failure estimate for the baseline build.
    pub baseline: FailureEstimate,
    /// Absolute failure estimate for the hardened build.
    pub hardened: FailureEstimate,
    /// The ratio `r = F_hardened / F_baseline` with conservative bounds.
    pub comparison: Comparison,
}

impl ToJson for FailureEstimate {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("failures".into(), self.failures.to_json()),
            ("ci_lo".into(), self.ci.0.to_json()),
            ("ci_hi".into(), self.ci.1.to_json()),
            ("exact".into(), self.exact.to_json()),
        ])
    }
}

impl ToJson for SusceptibilityRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("benchmark".into(), Json::Str(self.benchmark.clone())),
            ("domain".into(), self.domain.to_json()),
            ("baseline_space".into(), self.baseline_space.to_json()),
            ("hardened_space".into(), self.hardened_space.to_json()),
            ("baseline".into(), self.baseline.to_json()),
            ("hardened".into(), self.hardened.to_json()),
            ("ratio".into(), self.comparison.ratio.to_json()),
            ("ratio_ci_lo".into(), self.comparison.ci.0.to_json()),
            ("ratio_ci_hi".into(), self.comparison.ci.1.to_json()),
            ("improves".into(), self.comparison.improves().to_json()),
            ("conclusive".into(), self.comparison.conclusive().to_json()),
        ])
    }
}

/// The artifact exported for a susceptibility comparison sweep: the
/// schema tag plus one [`SusceptibilityRow`] per benchmark pair × fault
/// domain. This is the Figure-2 analogue for artifact consumers — rows
/// carry *absolute* failure estimates (the paper's sound metric), never
/// coverage percentages.
pub fn susceptibility_artifact(rows: &[SusceptibilityRow]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SUSCEPTIBILITY_SCHEMA.into())),
        ("rows".into(), rows.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_result_round_trips_through_parser() {
        let r = CampaignResult {
            benchmark: "t".into(),
            domain: FaultDomain::Memory,
            space: FaultSpace::new(2, 8),
            known_benign_weight: 10,
            golden_cycles: 2,
            results: vec![ExperimentResult {
                experiment: Experiment {
                    id: 0,
                    coord: FaultCoord { cycle: 1, bit: 3 },
                    weight: 2,
                },
                outcome: Outcome::SilentDataCorruption,
            }],
        };
        let json = to_json(&r);
        let back = Json::parse(&json).unwrap();
        assert_eq!(back, r.to_json());
        assert_eq!(back.get("benchmark").unwrap().as_str(), Some("t"));
        assert_eq!(
            back.get("space").unwrap().get("bits").unwrap().as_u64(),
            Some(8)
        );
        let first = back.get("results").unwrap().at(0).unwrap();
        assert_eq!(
            first.get("outcome").unwrap().as_str(),
            Some("SilentDataCorruption")
        );
        assert_eq!(
            first
                .get("experiment")
                .unwrap()
                .get("coord")
                .unwrap()
                .get("cycle")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn writer_variant_works() {
        let mut buf = Vec::new();
        write_json(&FaultSpace::new(1, 1), &mut buf).unwrap();
        assert!(!buf.is_empty());
    }

    #[test]
    fn pretty_format_matches_previous_exporter() {
        // Two-space indent, space after the colon — artifacts stay diffable
        // against ones produced by earlier revisions.
        let json = to_json(&FaultSpace::new(8, 16));
        assert_eq!(json, "{\n  \"cycles\": 8,\n  \"bits\": 16\n}");
    }

    #[test]
    fn data_carrying_outcomes_serialize_tagged() {
        let halt = Outcome::AbnormalHalt { code: 9 }.to_json().pretty();
        assert!(halt.contains("\"AbnormalHalt\""), "{halt}");
        assert!(halt.contains("\"code\": 9"), "{halt}");
        let trap = Outcome::CpuException(Trap::OutOfRange { addr: 16 })
            .to_json()
            .pretty();
        assert!(trap.contains("\"CpuException\""), "{trap}");
        assert!(trap.contains("\"OutOfRange\""), "{trap}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "a\"b\\c\nd\te\u{08}\u{0C}\r\u{1}é☃\u{1F600}";
        let mut out = String::new();
        write_escaped(&mut out, tricky);
        match Json::parse(&out).unwrap() {
            Json::Str(s) => assert_eq!(s, tricky),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn parser_handles_numbers() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::F64(2000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn float_values_keep_a_decimal_point() {
        assert_eq!(Json::F64(1.0).pretty(), "1.0");
        assert_eq!(Json::F64(f64::NAN).pretty(), "null");
        assert_eq!(Json::parse(&Json::F64(0.1).pretty()), Ok(Json::F64(0.1)));
    }

    #[test]
    fn impl_to_json_macro_serializes_fields_in_order() {
        struct Row {
            name: String,
            count: u64,
            ratio: f64,
        }
        crate::impl_to_json!(Row { name, count, ratio });
        let json = to_json(&Row {
            name: "hi".into(),
            count: 3,
            ratio: 0.5,
        });
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("hi"));
        assert_eq!(parsed.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("ratio").unwrap().as_f64(), Some(0.5));
        assert!(json.find("\"name\"").unwrap() < json.find("\"count\"").unwrap());
    }

    #[test]
    fn job_artifact_bridges_service_results() {
        let result = CampaignResult {
            benchmark: "t".into(),
            domain: FaultDomain::RegisterFile,
            space: FaultSpace::new(4, 8),
            known_benign_weight: 0,
            golden_cycles: 4,
            results: vec![],
        };
        let stats = ExecutorStats {
            workers: 2,
            experiments: 17,
            ..ExecutorStats::default()
        };
        let json = job_artifact(42, &result, &stats).pretty();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("job").unwrap().as_u64(), Some(42));
        assert_eq!(
            parsed
                .get("result")
                .unwrap()
                .get("benchmark")
                .unwrap()
                .as_str(),
            Some("t")
        );
        assert_eq!(
            parsed
                .get("stats")
                .unwrap()
                .get("experiments")
                .unwrap()
                .as_u64(),
            Some(17)
        );
    }

    #[test]
    fn telemetry_artifact_has_a_stable_schema() {
        let reg = sofi_telemetry::Registry::enabled();
        reg.counter("executor.experiments").add(48);
        reg.gauge("serve.queue_depth").set(3);
        let h = reg.histogram("executor.faulted_run_cycles");
        for v in [1, 2, 3, 100, 100, 4096] {
            h.record(v);
        }
        let json = telemetry_artifact(&reg.snapshot()).pretty();
        let parsed = Json::parse(&json).unwrap();

        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some("sofi.telemetry.snapshot/v1")
        );
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("executor.experiments")
                .unwrap()
                .as_u64(),
            Some(48)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .unwrap()
                .get("serve.queue_depth")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        let hist = parsed
            .get("histograms")
            .unwrap()
            .get("executor.faulted_run_cycles")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(6));
        assert_eq!(hist.get("min").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(4096));
        assert!(hist.get("mean").unwrap().as_f64().unwrap() > 0.0);
        assert!(hist.get("p50").unwrap().as_u64().unwrap() >= 1);
        assert!(hist.get("p99").unwrap().as_u64().unwrap() <= 4096);
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert!(!buckets.is_empty());
        for b in buckets {
            assert!(b.get("lo").unwrap().as_u64() <= b.get("hi").unwrap().as_u64());
            assert!(b.get("count").unwrap().as_u64().unwrap() > 0);
        }

        // The empty snapshot still carries every schema section.
        let empty = telemetry_artifact(&Snapshot::default()).pretty();
        let parsed = Json::parse(&empty).unwrap();
        assert_eq!(parsed.get("counters"), Some(&Json::Obj(vec![])));
        assert_eq!(parsed.get("gauges"), Some(&Json::Obj(vec![])));
        assert_eq!(parsed.get("histograms"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn empty_containers_print_compactly() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }
}

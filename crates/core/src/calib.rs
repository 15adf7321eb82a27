//! The DES-calibration loop: measured wall-clock costs from a real run,
//! packaged as a stable-JSON profile the simulator's [`CostModel`] can
//! load back (`--calibrate-out` → `--cost-model`).
//!
//! A [`CalibrationProfile`] aggregates two sample families collected by
//! `Cluster::execute_real` with metrics enabled:
//!
//! * **per task class** — kernel busy nanoseconds per execution, keyed by
//!   task name (`gemm`, `potrf`, …);
//! * **per record kind** — handler durations of the protocol records
//!   ([`REC_ACTIVATE`], [`REC_GET_REQUEST`], [`REC_ARRIVAL`]) plus the
//!   task dispatch overhead around the kernel ([`REC_TASK_OVERHEAD`]).
//!
//! Each family is summarized as `{count, median_ns, mean_ns}` — all
//! integers, BTreeMap-ordered — so serialization is **byte-stable**:
//! `from_json(to_json(p))` re-serializes to the identical string.
//! [`CostModel::from_profile`](crate::CostModel::from_profile) maps the
//! medians onto the simulator's charges, closing the loop.
//!
//! Schema identifier: [`CALIB_SCHEMA`] (`amtlc-calib-v1`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use amt_simnet::json_escape;

/// Schema identifier emitted in (and required of) every profile.
pub const CALIB_SCHEMA: &str = "amtlc-calib-v1";

/// Record-cost key: ACTIVATE handler duration at the consumer.
pub const REC_ACTIVATE: &str = "activate_record_ns";
/// Record-cost key: GET DATA handler duration at the owner.
pub const REC_GET_REQUEST: &str = "get_request_ns";
/// Record-cost key: put-arrival handler duration at the consumer.
pub const REC_ARRIVAL: &str = "arrival_ns";
/// Record-cost key: task dispatch overhead (execution wall time minus
/// kernel wall time).
pub const REC_TASK_OVERHEAD: &str = "task_overhead_ns";

/// Summary of one measured cost population (integer ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSummary {
    /// Samples observed.
    pub count: u64,
    /// Lower median of the samples.
    pub median_ns: u64,
    /// Rounded-down arithmetic mean.
    pub mean_ns: u64,
}

impl CostSummary {
    /// Summarize a sample vector (sorted internally; lower median).
    pub fn from_samples(mut samples: Vec<u64>) -> CostSummary {
        if samples.is_empty() {
            return CostSummary::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        CostSummary {
            count,
            median_ns: samples[(samples.len() - 1) / 2],
            mean_ns: samples.iter().sum::<u64>() / count,
        }
    }
}

/// Measured cost profile of one real execution (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalibrationProfile {
    /// Worker threads the measuring run used.
    pub threads: usize,
    /// Tasks the measuring run executed.
    pub tasks: u64,
    /// Per-class kernel busy times, keyed by task name.
    pub classes: BTreeMap<String, CostSummary>,
    /// Per-record handler durations, keyed by the `REC_*` constants.
    pub records: BTreeMap<String, CostSummary>,
}

fn write_family(out: &mut String, family: &BTreeMap<String, CostSummary>) {
    out.push('{');
    let mut first = true;
    for (name, c) in family {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            r#""{}":{{"count":{},"median_ns":{},"mean_ns":{}}}"#,
            json_escape(name),
            c.count,
            c.median_ns,
            c.mean_ns
        );
    }
    out.push('}');
}

impl CalibrationProfile {
    /// Stable JSON serialization: BTreeMap order, integers only —
    /// byte-identical across identical runs and across a
    /// [`CalibrationProfile::from_json`] round trip.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"schema":"{CALIB_SCHEMA}","threads":{},"tasks":{},"classes":"#,
            self.threads, self.tasks
        );
        write_family(&mut out, &self.classes);
        out.push_str(r#","records":"#);
        write_family(&mut out, &self.records);
        out.push('}');
        out
    }

    /// Parse a profile back from its JSON form (schema-checked).
    pub fn from_json(text: &str) -> Result<CalibrationProfile, String> {
        let v = parse_json(text)?;
        let obj = v.as_obj("profile")?;
        let schema = get(obj, "schema")?.as_str("schema")?;
        if schema != CALIB_SCHEMA {
            return Err(format!("schema {schema:?}, expected {CALIB_SCHEMA:?}"));
        }
        let family = |name: &str| -> Result<BTreeMap<String, CostSummary>, String> {
            let fam = get(obj, name)?.as_obj(name)?;
            fam.iter()
                .map(|(k, v)| {
                    let c = v.as_obj(k)?;
                    Ok((
                        k.clone(),
                        CostSummary {
                            count: get(c, "count")?.as_u64("count")?,
                            median_ns: get(c, "median_ns")?.as_u64("median_ns")?,
                            mean_ns: get(c, "mean_ns")?.as_u64("mean_ns")?,
                        },
                    ))
                })
                .collect()
        };
        Ok(CalibrationProfile {
            threads: get(obj, "threads")?.as_u64("threads")? as usize,
            tasks: get(obj, "tasks")?.as_u64("tasks")?,
            classes: family("classes")?,
            records: family("records")?,
        })
    }
}

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON reader — just enough for the profile
// schema (objects, strings, unsigned integers). No serde in this
// workspace by design.

enum JVal {
    Obj(Vec<(String, JVal)>),
    Num(u64),
    Str(String),
}

impl JVal {
    fn as_obj(&self, what: &str) -> Result<&Vec<(String, JVal)>, String> {
        match self {
            JVal::Obj(o) => Ok(o),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            JVal::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            JVal::Num(n) => Ok(*n),
            _ => Err(format!("{what}: expected an unsigned integer")),
        }
    }
}

fn get<'a>(obj: &'a [(String, JVal)], key: &str) -> Result<&'a JVal, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn parse_json(text: &str) -> Result<JVal, String> {
    let b = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JVal, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JVal::Obj(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                entries.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JVal::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JVal::Str(parse_string(b, pos)?)),
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .expect("digits are utf8")
                .parse()
                .map(JVal::Num)
                .map_err(|e| format!("number at offset {start}: {e}"))
        }
        _ => Err(format!("unexpected value at offset {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(cp).ok_or("surrogate \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
                *pos += 1;
            }
            _ => {
                // Copy one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty rest");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> CalibrationProfile {
        let mut classes = BTreeMap::new();
        classes.insert("gemm".to_string(), CostSummary::from_samples(vec![5, 3, 9]));
        classes.insert(
            "potrf".to_string(),
            CostSummary::from_samples(vec![100, 200]),
        );
        let mut records = BTreeMap::new();
        records.insert(
            REC_ACTIVATE.to_string(),
            CostSummary {
                count: 7,
                median_ns: 1200,
                mean_ns: 1500,
            },
        );
        records.insert(
            REC_TASK_OVERHEAD.to_string(),
            CostSummary {
                count: 5,
                median_ns: 800,
                mean_ns: 900,
            },
        );
        CalibrationProfile {
            threads: 4,
            tasks: 5,
            classes,
            records,
        }
    }

    #[test]
    fn summary_median_is_lower_median() {
        let c = CostSummary::from_samples(vec![9, 3, 5]);
        assert_eq!((c.count, c.median_ns, c.mean_ns), (3, 5, 5));
        let c = CostSummary::from_samples(vec![10, 20]);
        assert_eq!(c.median_ns, 10, "even count takes the lower median");
        assert_eq!(CostSummary::from_samples(vec![]), CostSummary::default());
    }

    #[test]
    fn json_round_trip_is_byte_stable() {
        let p = sample_profile();
        let json = p.to_json();
        assert!(json.starts_with(r#"{"schema":"amtlc-calib-v1""#), "{json}");
        let q = CalibrationProfile::from_json(&json).expect("parse back");
        assert_eq!(p, q);
        assert_eq!(json, q.to_json(), "round trip is byte-identical");
    }

    #[test]
    fn parser_tolerates_whitespace_and_rejects_garbage() {
        let json = sample_profile().to_json().replace(",", " ,\n  ");
        let q = CalibrationProfile::from_json(&json).expect("whitespace ok");
        assert_eq!(q.threads, 4);
        assert!(CalibrationProfile::from_json("{}").is_err());
        assert!(CalibrationProfile::from_json("not json").is_err());
        let wrong = sample_profile().to_json().replace("calib-v1", "calib-v9");
        let err = CalibrationProfile::from_json(&wrong).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }
}

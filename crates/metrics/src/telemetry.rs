//! Validation and summarization of the simulator's telemetry JSONL stream.
//!
//! The stream format is rendered by `hadar-sim` from a finished run's
//! per-round records (schema [`TELEMETRY_SCHEMA`]): a `meta` header line,
//! one `round` record per scheduling round, and a final `summary` line —
//! each a single JSON object. The schema constants live here, below
//! `hadar-sim` in the crate graph, so the producer and this validator share
//! them.
//!
//! This module is the consumer-side contract: [`validate_telemetry_jsonl`]
//! checks both JSON well-formedness (via a small hand-rolled parser — see
//! DESIGN.md §8 for why serde is not used) and the schema (required record
//! types, required round keys, strictly increasing round numbers), and
//! extracts a [`TelemetryReport`] of headline aggregates. CI runs it against
//! `simulate --telemetry-out` output; the bench harness uses the report to
//! tag sweep rows.

/// The schema identifier written to every `meta` record and accepted by
/// the validator. `hadar-sim` re-exports it, so producer and consumer share
/// this one definition.
pub const TELEMETRY_SCHEMA: &str = "hadar.telemetry.v1";

/// The numeric keys every `round` record carries, in the order the
/// producer writes them (`hadar-sim` renders its records from this list).
pub const ROUND_KEYS: [&str; 15] = [
    "round",
    "time_s",
    "queue_depth",
    "running",
    "scheduled",
    "preempted",
    "evicted",
    "completed",
    "arrivals",
    "reallocations",
    "demand_gpus",
    "busy_gpu_s",
    "held_gpu_s",
    "machines_down",
    "decision_s",
];

/// Headline aggregates extracted from a validated stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Scheduler display name from the `meta` header.
    pub scheduler: String,
    /// Number of `round` records.
    pub rounds: u64,
    /// `scheduled` total from the `summary` record.
    pub scheduled: u64,
    /// `preempted` total from the `summary` record.
    pub preempted: u64,
    /// `evicted` total from the `summary` record.
    pub evicted: u64,
    /// `completed` total from the `summary` record.
    pub completed: u64,
}

/// Validate one telemetry JSONL stream against the
/// [`TELEMETRY_SCHEMA`] contract and extract a [`TelemetryReport`].
///
/// Checks, in order: every line parses as a JSON object; the first line is a
/// `meta` record carrying the expected schema id and a scheduler name; every
/// middle line is a `round` record with all [`ROUND_KEYS`] present and
/// strictly increasing round numbers; the last line is a `summary` record.
/// Returns a rendered description of the first violation found.
pub fn validate_telemetry_jsonl(stream: &str) -> Result<TelemetryReport, String> {
    let lines: Vec<&str> = stream.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() < 2 {
        return Err(format!(
            "stream has {} lines; need at least meta + summary",
            lines.len()
        ));
    }
    for (i, line) in lines.iter().enumerate() {
        check_json(line).map_err(|e| format!("line {}: {e}: {line}", i + 1))?;
    }

    let meta = lines[0];
    if string_field(meta, "type").as_deref() != Some("meta") {
        return Err(format!("line 1 is not a meta record: {meta}"));
    }
    match string_field(meta, "schema") {
        Some(s) if s == TELEMETRY_SCHEMA => {}
        other => {
            return Err(format!(
                "meta schema is {other:?}, expected {TELEMETRY_SCHEMA:?}"
            ))
        }
    }
    let scheduler = string_field(meta, "scheduler")
        .ok_or_else(|| format!("meta record lacks a scheduler name: {meta}"))?;

    let last = *lines.last().expect("non-empty");
    if string_field(last, "type").as_deref() != Some("summary") {
        return Err(format!("last line is not a summary record: {last}"));
    }

    let mut rounds = 0u64;
    let mut prev_round: Option<u64> = None;
    for (i, line) in lines[1..lines.len() - 1].iter().enumerate() {
        if string_field(line, "type").as_deref() != Some("round") {
            return Err(format!("line {} is not a round record: {line}", i + 2));
        }
        for key in ROUND_KEYS {
            if number_field(line, key).is_none() {
                return Err(format!("line {} lacks round key {key:?}: {line}", i + 2));
            }
        }
        let n = number_field(line, "round").expect("checked above") as u64;
        if prev_round.is_some_and(|p| n <= p) {
            return Err(format!(
                "line {}: round numbers must strictly increase ({prev_round:?} then {n})",
                i + 2
            ));
        }
        prev_round = Some(n);
        rounds += 1;
    }

    let summary_count = |key: &str| -> Result<u64, String> {
        number_field(last, key)
            .map(|v| v as u64)
            .ok_or_else(|| format!("summary record lacks {key:?}: {last}"))
    };
    let report = TelemetryReport {
        scheduler,
        rounds,
        scheduled: summary_count("scheduled")?,
        preempted: summary_count("preempted")?,
        evicted: summary_count("evicted")?,
        completed: summary_count("completed")?,
    };
    if summary_count("rounds")? != rounds {
        return Err(format!(
            "summary claims {} rounds but the stream has {rounds}",
            summary_count("rounds")?
        ));
    }
    Ok(report)
}

/// Check that `line` is exactly one well-formed JSON object.
fn check_json(line: &str) -> Result<(), String> {
    let mut p = JsonChecker {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err("expected a JSON object".into());
    }
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(())
}

/// A minimal recursive-descent JSON syntax checker. Validates structure
/// only; values are not materialized (the schema layer above extracts the
/// few fields it needs by key search).
struct JsonChecker<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonChecker<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(()),
                Some(b'\\') => match self.bump() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                    Some(b'u') => {
                        for _ in 0..4 {
                            if !self.bump().is_some_and(|b| b.is_ascii_hexdigit()) {
                                return Err("bad \\u escape".into());
                            }
                        }
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {}
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits0 = self.digits()?;
        if digits0 == 0 {
            return Err("number with no digits".into());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits()? == 0 {
                return Err("number with empty fraction".into());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits()? == 0 {
                return Err("number with empty exponent".into());
            }
        }
        Ok(())
    }

    fn digits(&mut self) -> Result<usize, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(self.pos - start)
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }
}

/// Extract the string value of a top-level `"key":"value"` pair by key
/// search. Sound here because the producer never nests objects whose inner
/// keys collide with the top-level schema keys (policy counters are
/// prefixed, e.g. `gavel.lp_solves`), and the line has already passed the
/// syntax checker.
fn string_field(line: &str, key: &str) -> Option<String> {
    let rest = field_value(line, key)?;
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_owned())
}

/// Extract a numeric field value by key search (same caveats as
/// [`string_field`]).
fn number_field(line: &str, key: &str) -> Option<f64> {
    let rest = field_value(line, key)?;
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The text immediately after `"key":`.
fn field_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)?;
    Some(&line[at + needle.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> String {
        [
            format!(
                "{{\"type\":\"meta\",\"schema\":\"{TELEMETRY_SCHEMA}\",\"scheduler\":\"Hadar\",\
                 \"total_gpus\":60,\"machines\":15,\"jobs\":6,\"round_length_s\":360}}"
            ),
            "{\"type\":\"round\",\"round\":1,\"time_s\":0,\"queue_depth\":6,\"running\":4,\
             \"scheduled\":4,\"preempted\":0,\"evicted\":0,\"completed\":0,\"arrivals\":6,\
             \"reallocations\":4,\"demand_gpus\":12,\"busy_gpu_s\":1000,\"held_gpu_s\":1200,\
             \"machines_down\":0,\"decision_s\":0.01,\"util_by_type\":{\"K80\":0,\"V100\":8}}"
                .into(),
            "{\"type\":\"round\",\"round\":2,\"time_s\":360,\"queue_depth\":2,\"running\":2,\
             \"scheduled\":0,\"preempted\":0,\"evicted\":0,\"completed\":4,\"arrivals\":0,\
             \"reallocations\":0,\"demand_gpus\":4,\"busy_gpu_s\":900,\"held_gpu_s\":900,\
             \"machines_down\":0,\"decision_s\":0.002,\"util_by_type\":{\"K80\":0,\"V100\":4},\
             \"policy\":{\"hadar.alpha\":1.5}}"
                .into(),
            "{\"type\":\"summary\",\"rounds\":2,\"scheduled\":4,\"preempted\":0,\"evicted\":0,\
             \"completed\":6,\"max_queue_depth\":6}"
                .into(),
        ]
        .join("\n")
    }

    #[test]
    fn valid_stream_passes_and_reports() {
        let r = validate_telemetry_jsonl(&sample_stream()).unwrap();
        assert_eq!(r.scheduler, "Hadar");
        assert_eq!(r.rounds, 2);
        assert_eq!(r.scheduled, 4);
        assert_eq!(r.completed, 6);
        assert_eq!(r.evicted, 0);
    }

    #[test]
    fn malformed_json_is_rejected() {
        let s = sample_stream().replace("\"type\":\"summary\"", "\"type\":\"summary");
        let e = validate_telemetry_jsonl(&s).unwrap_err();
        assert!(e.contains("line 4"), "{e}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let s = sample_stream().replace(TELEMETRY_SCHEMA, "hadar.telemetry.v0");
        let e = validate_telemetry_jsonl(&s).unwrap_err();
        assert!(e.contains("schema"), "{e}");
    }

    #[test]
    fn missing_round_key_is_rejected() {
        let s = sample_stream().replace("\"machines_down\":0,", "");
        let e = validate_telemetry_jsonl(&s).unwrap_err();
        assert!(e.contains("machines_down"), "{e}");
    }

    #[test]
    fn non_increasing_rounds_are_rejected() {
        let s = sample_stream().replace("\"round\":2", "\"round\":1");
        let e = validate_telemetry_jsonl(&s).unwrap_err();
        assert!(e.contains("strictly increase"), "{e}");
    }

    #[test]
    fn round_count_mismatch_is_rejected() {
        let s = sample_stream().replace("\"rounds\":2", "\"rounds\":7");
        let e = validate_telemetry_jsonl(&s).unwrap_err();
        assert!(e.contains("7 rounds"), "{e}");
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let s: String = sample_stream().lines().next().unwrap().to_owned();
        assert!(validate_telemetry_jsonl(&s).is_err());
    }

    #[test]
    fn json_checker_accepts_and_rejects() {
        assert!(check_json("{}").is_ok());
        assert!(check_json("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null},\"d\":\"x\\\"y\"}").is_ok());
        assert!(check_json("{\"a\":1,}").is_err());
        assert!(check_json("{\"a\":}").is_err());
        assert!(check_json("[1]").is_err()); // top level must be an object
        assert!(check_json("{\"a\":01e}").is_err());
        assert!(check_json("{} trailing").is_err());
    }
}

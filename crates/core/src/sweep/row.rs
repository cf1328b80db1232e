//! The sweep-row format: one column table, [`COLUMNS`], drives the CSV
//! header and lines ([`SweepReport::to_csv`]), the JSON report
//! ([`SweepReport::to_json`]), [`CellRecord::from_row`] and the CSV
//! reader [`CellRecord::from_csv_line`]. A column is one edit to the
//! table; the writers and the reader follow it.

use std::fmt::Write as _;

use super::store::CellRecord;
use super::{SweepReport, SweepRow};
use crate::metrics::VehicleSummary;

/// One number in a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// A count, index or seed: rendered without a decimal point.
    Int(u64),
    /// A measurement: rendered in Rust's shortest round-trip form, which
    /// parses back to the exact value.
    Float(f64),
    /// No value: empty in CSV, `null` in JSON, `None` in a [`CellRecord`].
    Null,
}

impl From<Option<f64>> for Num {
    fn from(value: Option<f64>) -> Self {
        value.map_or(Num::Null, Num::Float)
    }
}

impl Num {
    fn to_f64(self) -> Option<f64> {
        match self {
            Num::Int(v) => Some(v as f64),
            Num::Float(v) => Some(v),
            Num::Null => None,
        }
    }

    fn write(self, out: &mut String, json: bool) {
        let _ = match self {
            Num::Int(v) => write!(out, "{v}"),
            Num::Float(v) => write!(out, "{v}"),
            Num::Null => out.write_str(if json { "null" } else { "" }),
        };
    }
}

/// A column's value in one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// Free text: quoted in CSV when it holds `,`, `"` or a newline.
    Text(&'a str),
    /// One number.
    Num(Num),
    /// Numbers: `|`-joined in CSV, a JSON array.
    List(Vec<Num>),
}

impl Value<'_> {
    /// Appends the value as a CSV field, or as JSON.
    fn write(&self, out: &mut String, json: bool) {
        match self {
            Value::Text(text) if json => out.push_str(&json_string(text)),
            Value::Text(text) => out.push_str(&csv_field(text)),
            Value::Num(num) => num.write(out, json),
            Value::List(items) => {
                let (open, separator, close) = if json { ("[", ',', "]") } else { ("", '|', "") };
                out.push_str(open);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(separator);
                    }
                    item.write(out, json);
                }
                out.push_str(close);
            }
        }
    }
}

/// What a column is for, and how to read it from a [`SweepRow`].
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// The cell index: a [`CellRecord`]'s alignment key.
    Key(fn(&SweepRow) -> u64),
    /// The scenario name; a [`CellRecord`] omits it, so renaming a grid is not drift.
    Name(fn(&SweepRow) -> &str),
    /// An exact-match [`CellRecord`] label: its CSV field, unquoted.
    Label(fn(&SweepRow) -> Value<'_>),
    /// A [`CellRecord`] metric, compared under tolerance.
    Metric {
        /// Whether the value may be [`Num::Null`] (an empty CSV field).
        nullable: bool,
        /// Reads the value.
        value: fn(&SweepRow) -> Num,
    },
    /// A list with one entry per vehicle (see [`COLUMNS`]).
    Vehicle {
        /// Whether an entry may be [`Num::Null`].
        nullable: bool,
        /// Reads one vehicle's entry.
        value: fn(&VehicleSummary) -> Num,
    },
}

impl Role {
    fn value<'r>(&self, row: &'r SweepRow) -> Value<'r> {
        match self {
            Role::Key(read) => Value::Num(Num::Int(read(row))),
            Role::Name(read) => Value::Text(read(row)),
            Role::Label(read) => read(row),
            Role::Metric { value, .. } => Value::Num(value(row)),
            Role::Vehicle { value, .. } => {
                Value::List(row.summary.vehicles.iter().map(value).collect())
            }
        }
    }
}

/// The sweep-row columns as `(name, role)`, in CSV and JSON order.
///
/// | columns | meaning |
/// |---|---|
/// | `cell`, `scenario` | the cell index in grid order; the scenario name |
/// | `suite` … `detector` | the cell's axis labels |
/// | `rounds`, `seed` | rounds run; the derived per-cell RNG seed |
/// | `mean_width`, `min_width`, `max_width` | fused-interval widths over the fused rounds |
/// | `truth_lost`, `truth_loss_rate` | fused rounds that missed the truth: count, fraction |
/// | `fusion_failures`, `flagged_rounds` | rounds whose fusion failed; rounds that flagged a sensor |
/// | `condemned` | sensors condemned as of the last fused round |
/// | `above_rate`, `below_rate` | Table II: supervised rounds whose fused bound escaped `v + δ1`, `v − δ2` |
/// | `preemptions`, `min_gap` | supervisor preemptions; the smallest inter-vehicle gap (miles) |
/// | `vehicle_*` | per vehicle, leader first: mean width, max width, truth lost |
///
/// **Nulls.** `min_width` and `max_width` are null when no round fused,
/// the supervisor columns (`above_rate` … `min_gap`) on open-loop rows,
/// `min_gap` also for a single vehicle, and a `vehicle_max_widths` entry
/// when that vehicle never fused. A null is an empty CSV field and a
/// JSON `null`. No other column is ever null.
///
/// **Lists.** `condemned` and the `vehicle_*` lists are `|`-joined in
/// CSV and JSON arrays. `condemned` stays `|`-joined as a [`CellRecord`]
/// label; a [`CellRecord`] expands the `vehicle_*` lists vehicle-major
/// into indexed metrics: `vehicle_mean_widths[0]`, `vehicle_max_widths[0]`,
/// `vehicle_truth_lost[0]`, `vehicle_mean_widths[1]`, … They are empty
/// except on closed-loop platoon rows. The first is never null, so the
/// reader takes the vehicle count from it.
#[rustfmt::skip]
pub static COLUMNS: [(&str, Role); 25] = [
    ("cell", Role::Key(|r| r.cell as u64)),
    ("scenario", Role::Name(|r| &r.summary.scenario)),
    ("suite", Role::Label(|r| Value::Text(&r.suite))),
    ("faults", Role::Label(|r| Value::Text(&r.faults))),
    ("attacker", Role::Label(|r| Value::Text(&r.attacker))),
    ("schedule", Role::Label(|r| Value::Text(&r.schedule))),
    ("fuser", Role::Label(|r| Value::Text(&r.summary.fuser))),
    ("detector", Role::Label(|r| Value::Text(&r.summary.detector))),
    ("rounds", Role::Label(|r| Value::Num(Num::Int(r.rounds)))),
    ("seed", Role::Label(|r| Value::Num(Num::Int(r.seed)))),
    ("mean_width", Role::Metric { nullable: false, value: |r| Num::Float(r.summary.widths.mean()) }),
    ("min_width", Role::Metric { nullable: true, value: |r| r.summary.widths.min().into() }),
    ("max_width", Role::Metric { nullable: true, value: |r| r.summary.widths.max().into() }),
    ("truth_lost", Role::Metric { nullable: false, value: |r| Num::Int(r.summary.truth_lost) }),
    ("truth_loss_rate", Role::Metric { nullable: false, value: |r| Num::Float(r.summary.truth_loss_rate()) }),
    ("fusion_failures", Role::Metric { nullable: false, value: |r| Num::Int(r.summary.fusion_failures) }),
    ("flagged_rounds", Role::Metric { nullable: false, value: |r| Num::Int(r.summary.flagged_rounds) }),
    ("condemned", Role::Label(|r| Value::List(r.summary.condemned.iter().map(|&s| Num::Int(s as u64)).collect()))),
    ("above_rate", Role::Metric { nullable: true, value: |r| r.summary.supervisor.map(|s| s.above_rate).into() }),
    ("below_rate", Role::Metric { nullable: true, value: |r| r.summary.supervisor.map(|s| s.below_rate).into() }),
    ("preemptions", Role::Metric { nullable: true, value: |r| r.summary.supervisor.map_or(Num::Null, |s| Num::Int(s.preemptions)) }),
    ("min_gap", Role::Metric { nullable: true, value: |r| r.summary.supervisor.and_then(|s| s.min_gap).into() }),
    ("vehicle_mean_widths", Role::Vehicle { nullable: false, value: |v| Num::Float(v.widths.mean()) }),
    ("vehicle_max_widths", Role::Vehicle { nullable: true, value: |v| v.widths.max().into() }),
    ("vehicle_truth_lost", Role::Vehicle { nullable: false, value: |v| Num::Int(v.truth_lost) }),
];

/// Decodes a stored `condemned` label into sensor indices: the
/// [`COLUMNS`] list encoding, `|`-joined, empty for none.
///
/// # Errors
///
/// A message naming the first entry that is not a sensor index.
pub fn decode_condemned(label: &str) -> Result<Vec<usize>, String> {
    if label.is_empty() {
        return Ok(Vec::new());
    }
    label
        .split('|')
        .map(|entry| {
            entry
                .parse()
                .map_err(|_| format!("bad condemned entry `{entry}`"))
        })
        .collect()
}

impl SweepReport {
    /// The CSV header line [`SweepReport::to_csv`] emits: the
    /// [`COLUMNS`] names, trailing newline included.
    pub fn csv_header() -> String {
        let names: Vec<&str> = COLUMNS.iter().map(|&(name, _)| name).collect();
        names.join(",") + "\n"
    }
}

impl SweepRow {
    /// Renders the row as one CSV data line (no trailing newline) in
    /// [`COLUMNS`] order — the unit both [`SweepReport::to_csv_body`] and
    /// the streaming writers emit, so a row rendered in isolation is
    /// byte-identical to the same row inside a full report.
    pub fn to_csv_line(&self) -> String {
        let mut out = String::new();
        for (i, (_, role)) in COLUMNS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            role.value(self).write(&mut out, false);
        }
        out
    }

    /// Appends the row as one JSON object keyed by the [`COLUMNS`] names.
    pub(super) fn write_json(&self, out: &mut String) {
        for (i, (name, role)) in COLUMNS.iter().enumerate() {
            out.push_str(if i == 0 { "{\"" } else { ",\"" });
            out.push_str(name);
            out.push_str("\":");
            role.value(self).write(out, true);
        }
        out.push('}');
    }
}

impl CellRecord {
    /// Flattens one report row as the [`COLUMNS`] roles say.
    pub fn from_row(row: &SweepRow) -> Self {
        let mut record = CellRecord::default();
        let mut vehicles = Vec::new();
        for &(name, role) in &COLUMNS {
            match role {
                Role::Key(read) => record.cell = read(row),
                Role::Name(_) => {}
                Role::Label(read) => {
                    let mut text = String::new();
                    match read(row) {
                        Value::Text(label) => text.push_str(label),
                        value => value.write(&mut text, false),
                    }
                    record.labels.push((name.to_string(), text));
                }
                Role::Metric { value, .. } => {
                    record.metrics.push((name.to_string(), value(row).to_f64()));
                }
                Role::Vehicle { value, .. } => {
                    let entries = row.summary.vehicles.iter().map(|v| value(v).to_f64());
                    vehicles.push((name, entries.collect()));
                }
            }
        }
        push_vehicles(&mut record.metrics, &vehicles);
        record
    }

    /// Rebuilds the record [`CellRecord::from_row`] gives from the row's
    /// [`SweepRow::to_csv_line`]. Floats come back exactly, so a baseline
    /// rebuilt from CSV equals one built from the in-memory report.
    ///
    /// # Errors
    ///
    /// A message naming the column count, or the column holding a bad
    /// number, an empty never-null field or a list of the wrong length.
    pub fn from_csv_line(line: &str) -> Result<Self, String> {
        let fields = split_csv(line);
        if fields.len() != COLUMNS.len() {
            return Err(format!(
                "expected {} CSV columns, got {}",
                COLUMNS.len(),
                fields.len()
            ));
        }
        let mut record = CellRecord::default();
        let mut vehicles: Vec<(&str, Vec<Option<f64>>)> = Vec::new();
        for (&(name, role), field) in COLUMNS.iter().zip(fields) {
            match role {
                Role::Key(_) => {
                    record.cell = field
                        .parse()
                        .map_err(|_| format!("bad cell index `{field}`"))?;
                }
                Role::Name(_) => {}
                Role::Label(_) => record.labels.push((name.to_string(), field)),
                Role::Metric { nullable, .. } => {
                    let value = parse_number(&field, name, nullable)?;
                    record.metrics.push((name.to_string(), value));
                }
                Role::Vehicle { nullable, .. } => {
                    // An empty field is no vehicles, unless the first
                    // list says there is one: then it is one null entry.
                    let count = vehicles.first().map(|(_, values)| values.len());
                    let entries: Vec<&str> = match count {
                        None | Some(0) if field.is_empty() => Vec::new(),
                        _ => field.split('|').collect(),
                    };
                    if let Some(count) = count.filter(|&count| count != entries.len()) {
                        return Err(format!(
                            "vehicle column lengths disagree: {name} has {} entries, expected \
                             {count}",
                            entries.len()
                        ));
                    }
                    let values = entries
                        .into_iter()
                        .map(|entry| parse_number(entry, name, nullable));
                    vehicles.push((name, values.collect::<Result<_, _>>()?));
                }
            }
        }
        push_vehicles(&mut record.metrics, &vehicles);
        Ok(record)
    }
}

/// Appends the per-vehicle lists as indexed metrics, vehicle-major.
fn push_vehicles(metrics: &mut Vec<(String, Option<f64>)>, lists: &[(&str, Vec<Option<f64>>)]) {
    let count = lists.first().map_or(0, |(_, values)| values.len());
    for i in 0..count {
        for (name, values) in lists {
            metrics.push((format!("{name}[{i}]"), values[i]));
        }
    }
}

fn parse_number(field: &str, column: &str, nullable: bool) -> Result<Option<f64>, String> {
    match field {
        "" if nullable => Ok(None),
        "" => Err(format!("missing {column}")),
        _ => field
            .parse()
            .map(Some)
            .map_err(|_| format!("bad {column} `{field}`")),
    }
}

/// Quotes a CSV field when it holds `,`, `"` or a newline, doubling
/// inner quotes.
pub(super) fn csv_field(raw: &str) -> String {
    if raw.contains([',', '"', '\n']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

/// Splits one CSV line into fields, undoing [`SweepRow::to_csv_line`]'s
/// quoting.
pub fn split_csv(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// Renders a string as a JSON string literal, escaping quotes,
/// backslashes and control characters.
pub fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condemned_labels_decode_or_name_the_bad_entry() {
        assert_eq!(decode_condemned(""), Ok(vec![]));
        assert_eq!(decode_condemned("1|4"), Ok(vec![1, 4]));
        let err = decode_condemned("0|x").unwrap_err();
        assert!(err.contains("`x`"), "{err}");
        assert!(decode_condemned("1||4").is_err());
        assert!(decode_condemned(" 1").is_err());
    }

    #[test]
    fn split_csv_honours_quoting() {
        assert_eq!(split_csv("a,b,c"), ["a", "b", "c"]);
        assert_eq!(split_csv("a,\"b,c\",d"), ["a", "b,c", "d"]);
        assert_eq!(
            split_csv("a,\"say \"\"hi\"\"\",c"),
            ["a", "say \"hi\"", "c"]
        );
        assert_eq!(split_csv("a,,c"), ["a", "", "c"]);
        assert_eq!(split_csv(""), [""]);
    }

    #[test]
    fn csv_reconstruction_names_malformed_columns() {
        assert!(CellRecord::from_csv_line("1,2,3")
            .unwrap_err()
            .contains("25"));
        let row = format!("x{}", ",f".repeat(24));
        assert!(CellRecord::from_csv_line(&row)
            .unwrap_err()
            .contains("bad cell index `x`"));
    }

    #[test]
    fn csv_reader_names_missing_bad_and_ragged_columns() {
        use crate::scenario::{Scenario, SuiteSpec};
        use crate::sweep::SweepGrid;
        let base = Scenario::new("reader", SuiteSpec::Landshark).with_rounds(5);
        let line = SweepGrid::new(base).run_serial().rows()[0].to_csv_line();
        let with = |edits: &[(usize, &str)]| {
            let mut fields = split_csv(&line);
            for &(i, value) in edits {
                fields[i] = value.to_string();
            }
            CellRecord::from_csv_line(&fields.join(","))
        };
        assert!(with(&[]).is_ok());
        assert_eq!(with(&[(10, "")]).unwrap_err(), "missing mean_width");
        assert_eq!(with(&[(12, "x")]).unwrap_err(), "bad max_width `x`");
        assert_eq!(
            with(&[(22, "1|2"), (23, "3"), (24, "0|0")]).unwrap_err(),
            "vehicle column lengths disagree: vehicle_max_widths has 1 entries, expected 2"
        );
        // One vehicle that never fused: its null max width is an empty
        // field, which a nullable list reads as one null entry.
        let record = with(&[(22, "0"), (23, ""), (24, "0")]).unwrap();
        assert_eq!(record.metric("vehicle_max_widths[0]"), Some(None));
        assert_eq!(record.metric("vehicle_truth_lost[0]"), Some(Some(0.0)));
    }
}

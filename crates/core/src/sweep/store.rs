//! Content-addressed persistence of sweep reports.
//!
//! The paper's guarantees are quantitative — fused-interval widths,
//! Table II violation rates — so a regression in fusion *quality* is
//! invisible to ordinary unit tests even though every sweep cell is
//! deterministically reproducible. This module turns a [`SweepReport`]
//! into a **baseline** that future runs are diffed against (see
//! [`diff`](super::diff)):
//!
//! * `canonical_definition` — a stable, versioned textual form of a
//!   [`SweepGrid`]'s *semantic* content: every axis, the base scenario's
//!   fault assumption, truth trajectory and closed-loop spec. Formatting
//!   details that do not change what the grid computes (the base
//!   scenario's *name*) are deliberately excluded, so renaming a grid
//!   does not orphan its baseline.
//! * [`content_address`] / [`grid_address`] — the FNV-1a hash of that
//!   canonical form, rendered as 16 hex digits. Equal grids hash equal;
//!   touching any axis produces a new address and therefore a *new*
//!   baseline file instead of silently overwriting the old one.
//! * [`Baseline`] — the address, the definition and one flattened
//!   [`CellRecord`] per grid cell (its columns are the row format's,
//!   [`COLUMNS`](super::row::COLUMNS)), saved as `baselines/<address>.json`
//!   ([`Baseline::save`]) and loaded back without any external JSON
//!   dependency ([`Baseline::load`]).
//!
//! # Example
//!
//! ```
//! use arsf_core::scenario::{AttackerSpec, Scenario, StrategySpec, SuiteSpec};
//! use arsf_core::sweep::store::{grid_address, Baseline};
//! use arsf_core::sweep::SweepGrid;
//!
//! let base = Scenario::new("demo", SuiteSpec::Landshark)
//!     .with_attacker(AttackerSpec::Fixed {
//!         sensors: vec![0],
//!         strategy: StrategySpec::PhantomOptimal,
//!     })
//!     .with_rounds(30);
//! let grid = SweepGrid::new(base).seeds([1, 2]);
//! let baseline = Baseline::from_report(&grid, &grid.run_serial());
//! assert_eq!(baseline.address, grid_address(&grid));
//! let reloaded = Baseline::from_json(&baseline.to_json()).unwrap();
//! assert_eq!(baseline, reloaded);
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

use crate::scenario::{ClosedLoopSpec, FuserSpec, TruthSpec};
use crate::DetectionMode;

use super::row::json_string;
use super::{Axis, SweepGrid, SweepReport};

/// The format tag written into every baseline file; bumped whenever the
/// stored shape changes incompatibly.
pub(crate) const FORMAT: &str = "arsf-baseline-v1";

/// A compact, canonical label for a fuser axis entry — unlike
/// [`FuserSpec::name`] it carries the parameters, so two historical
/// fusers with different rate bounds hash differently.
pub(crate) fn fuser_label(spec: &FuserSpec) -> String {
    match spec {
        FuserSpec::Historical { max_rate, dt } => format!("historical({max_rate},{dt})"),
        other => other.name().to_string(),
    }
}

/// A compact, canonical label for a detector axis entry, parameters
/// included, so two windowed detectors with different windows hash
/// differently.
pub fn detector_label(mode: &DetectionMode) -> String {
    match mode {
        DetectionMode::Off => "off".to_string(),
        DetectionMode::Immediate => "immediate".to_string(),
        DetectionMode::Windowed { window, tolerance } => format!("windowed({window},{tolerance})"),
    }
}

fn truth_label(truth: &TruthSpec) -> String {
    match truth {
        TruthSpec::Constant(v) => format!("constant({v})"),
        TruthSpec::Ramp {
            start,
            rate_per_round,
        } => format!("ramp({start},{rate_per_round})"),
    }
}

fn closed_loop_label(spec: &Option<ClosedLoopSpec>) -> String {
    match spec {
        None => "none".to_string(),
        Some(cl) => {
            let platoon = match cl.platoon {
                None => "none".to_string(),
                Some(p) => format!("{}x{}", p.size, p.gap_miles),
            };
            format!(
                "target:{},up:{},down:{},platoon:{}",
                cl.target_speed, cl.delta_up, cl.delta_down, platoon
            )
        }
    }
}

/// Renders the grid's semantic content — every axis plus the base
/// scenario's fault assumption `f`, truth trajectory and closed-loop
/// spec — in a stable, versioned textual form.
///
/// The base scenario's *name* is deliberately excluded: it changes what
/// the report rows are called, not what they compute, so renaming a grid
/// keeps its content address. Everything that feeds a cell's execution
/// is included, so changing any axis value changes the definition (and
/// the [`content_address`]).
pub(crate) fn canonical_definition(grid: &SweepGrid) -> String {
    let base = &grid.base;
    let mut out = String::new();
    out.push_str("arsf-sweep-grid v1\n");
    out.push_str(&format!("f={}\n", base.f));
    out.push_str(&format!("truth={}\n", truth_label(&base.truth)));
    out.push_str(&format!(
        "closed_loop={}\n",
        closed_loop_label(&base.closed_loop)
    ));
    // The suite is the base scenario's; the line keeps the v1 form of
    // a one-value axis, so committed content addresses stay put.
    out.push_str(&format!("suites={}\n", base.suite.label()));
    for (axis, labels) in Axis::ALL.into_iter().zip(grid.axis_labels()) {
        out.push_str(&format!("{}={}\n", axis.name(), labels.join(";")));
    }
    out
}

/// Hashes a canonical definition into its content address (FNV-1a 64,
/// 16 lowercase hex digits).
pub fn content_address(definition: &str) -> String {
    let mut hash = Fnv64::default();
    hash.update(definition.as_bytes());
    hash.finish()
}

/// Incremental FNV-1a 64 — [`content_address`]'s hash over a stream of
/// chunks: the digest does not depend on how the bytes are split.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Feeds bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current digest as 16 lowercase hex digits.
    pub fn finish(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The content address of a grid: `content_address(canonical_definition(grid))`.
pub fn grid_address(grid: &SweepGrid) -> String {
    content_address(&canonical_definition(grid))
}

/// The file a grid's baseline lives at inside a baseline directory:
/// `<dir>/<address>.json`.
pub fn baseline_path(dir: impl AsRef<Path>, address: &str) -> PathBuf {
    dir.as_ref().join(format!("{address}.json"))
}

/// One sweep row, flattened for comparison: exact textual *labels* and
/// numeric *metrics* (compared under [`diff`](super::diff) tolerances),
/// as the [`COLUMNS`](super::row::COLUMNS) roles assign them — built
/// from a row by [`CellRecord::from_row`] or from its CSV line by
/// [`CellRecord::from_csv_line`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellRecord {
    /// The cell's position in grid order — the alignment key for diffs.
    pub cell: u64,
    /// The label columns, in table order, as unquoted CSV text.
    pub labels: Vec<(String, String)>,
    /// The metric columns (a null is `None`), then the per-vehicle lists
    /// expanded vehicle-major into indexed columns
    /// (`vehicle_mean_widths[0]`, …) so every scalar has its own name in
    /// a drift report.
    pub metrics: Vec<(String, Option<f64>)>,
}

impl CellRecord {
    /// Looks a label up by column name.
    pub fn label(&self, column: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(name, _)| name == column)
            .map(|(_, value)| value.as_str())
    }

    /// Looks a metric up by column name (`None` when the column is
    /// absent; `Some(None)` when present but null).
    pub fn metric(&self, column: &str) -> Option<Option<f64>> {
        self.metrics
            .iter()
            .find(|(name, _)| name == column)
            .map(|(_, value)| *value)
    }
}

/// A persisted sweep result: the grid's canonical definition, its
/// content address, and one [`CellRecord`] per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The grid's content address (the file stem under the baseline
    /// directory).
    pub address: String,
    /// The grid's canonical definition (see `canonical_definition`),
    /// stored verbatim so a baseline file is self-describing.
    pub definition: String,
    /// The flattened rows, in grid order.
    pub rows: Vec<CellRecord>,
}

impl Baseline {
    /// The baseline of `grid` holding `rows`, addressed by the grid's
    /// canonical definition.
    pub fn new(grid: &SweepGrid, rows: Vec<CellRecord>) -> Self {
        let definition = canonical_definition(grid);
        Self {
            address: content_address(&definition),
            definition,
            rows,
        }
    }

    /// Flattens a report produced by `grid` into a baseline.
    pub fn from_report(grid: &SweepGrid, report: &SweepReport) -> Self {
        Self::new(
            grid,
            report.rows().iter().map(CellRecord::from_row).collect(),
        )
    }

    /// Renders the baseline as JSON (dependency-free, one row per line;
    /// [`Baseline::from_json`] round-trips the exact value).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"format\": {},\n", json_string(FORMAT)));
        out.push_str(&format!("  \"address\": {},\n", json_string(&self.address)));
        out.push_str(&format!(
            "  \"definition\": {},\n",
            json_string(&self.definition)
        ));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"cell\":");
            out.push_str(&row.cell.to_string());
            out.push_str(",\"labels\":{");
            for (j, (name, value)) in row.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json_string(name), json_string(value)));
            }
            out.push_str("},\"metrics\":{");
            for (j, (name, value)) in row.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let rendered = value.map_or("null".to_string(), |v| format!("{v}"));
                out.push_str(&format!("{}:{}", json_string(name), rendered));
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a baseline file's contents.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Parse`] on malformed JSON, a wrong format
    /// tag, or a missing/ill-typed field.
    pub fn from_json(src: &str) -> Result<Self, StoreError> {
        let value = json::parse(src).map_err(StoreError::Parse)?;
        let top = value.as_object("baseline")?;
        let format = get(top, "format")?.as_str("format")?;
        if format != FORMAT {
            return Err(StoreError::Parse(format!(
                "unsupported baseline format `{format}` (expected `{FORMAT}`)"
            )));
        }
        let address = get(top, "address")?.as_str("address")?.to_string();
        let definition = get(top, "definition")?.as_str("definition")?.to_string();
        let mut rows = Vec::new();
        for (i, row) in get(top, "rows")?.as_array("rows")?.iter().enumerate() {
            let row = row.as_object("row")?;
            let cell = get(row, "cell")?.as_u64(&format!("rows[{i}].cell"))?;
            let mut labels = Vec::new();
            for (name, value) in get(row, "labels")?.as_object("labels")? {
                labels.push((name.clone(), value.as_str(name)?.to_string()));
            }
            let mut metrics = Vec::new();
            for (name, value) in get(row, "metrics")?.as_object("metrics")? {
                metrics.push((name.clone(), value.as_nullable_f64(name)?));
            }
            rows.push(CellRecord {
                cell,
                labels,
                metrics,
            });
        }
        Ok(Self {
            address,
            definition,
            rows,
        })
    }

    /// Writes the baseline to `<dir>/<address>.json`, creating the
    /// directory if needed, and returns the path.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory or file cannot be
    /// written.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<PathBuf, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = baseline_path(dir, &self.address);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Loads a baseline from an explicit file path.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be read and
    /// [`StoreError::Parse`] when its contents are malformed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let src = std::fs::read_to_string(path)?;
        Self::from_json(&src)
    }

    /// Recomputes the content address of the embedded definition.
    ///
    /// A healthy baseline satisfies
    /// `self.address == self.computed_address()`; anything else means
    /// the file was hand-edited, corrupted, or written by a buggy tool.
    pub(crate) fn computed_address(&self) -> String {
        content_address(&self.definition)
    }

    /// Checks that the stored address matches the recomputed address of
    /// the embedded definition.
    ///
    /// # Errors
    ///
    /// Returns an [`AddressMismatch`] carrying both addresses when they
    /// disagree — the content-addressing invariant is broken and the
    /// baseline must not be trusted (or silently re-recorded over).
    pub fn verify_address(&self) -> Result<(), AddressMismatch> {
        let computed = self.computed_address();
        if self.address == computed {
            Ok(())
        } else {
            Err(AddressMismatch {
                stored: self.address.clone(),
                computed,
            })
        }
    }

    /// Checks that the rows are exactly the cells of `grid`: one row per
    /// cell, cells `0..grid.len()` in grid order.
    ///
    /// [`Baseline::new`] and [`Baseline::from_report`] take the rows as
    /// given, so a report of other cells can be stored under `grid`'s
    /// address; recording and linting refuse such a baseline here.
    ///
    /// # Errors
    ///
    /// A message naming the row and cell counts, or the first row that
    /// holds the wrong cell.
    pub fn verify_cells(&self, grid: &SweepGrid) -> Result<(), String> {
        if self.rows.len() != grid.len() {
            return Err(format!(
                "{} row(s) for a grid of {} cell(s)",
                self.rows.len(),
                grid.len()
            ));
        }
        match (0u64..).zip(&self.rows).find(|(i, row)| row.cell != *i) {
            Some((i, row)) => Err(format!(
                "row {i} holds cell {}, expected cell {i} (rows are the grid's cells in \
                 grid order)",
                row.cell
            )),
            None => Ok(()),
        }
    }

    /// Loads the baseline a grid addresses inside a baseline directory.
    ///
    /// # Errors
    ///
    /// Same as [`Baseline::load`]; a missing file surfaces as
    /// [`StoreError::Io`] with [`std::io::ErrorKind::NotFound`].
    pub fn load_for_grid(dir: impl AsRef<Path>, grid: &SweepGrid) -> Result<Self, StoreError> {
        Self::load(baseline_path(dir, &grid_address(grid)))
    }
}

fn get<'a>(obj: &'a [(String, json::Json)], key: &str) -> Result<&'a json::Json, StoreError> {
    obj.iter()
        .find(|(name, _)| name == key)
        .map(|(_, value)| value)
        .ok_or_else(|| StoreError::Parse(format!("missing field `{key}`")))
}

/// A baseline whose stored address does not match the recomputed
/// address of its embedded definition (see [`Baseline::verify_address`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMismatch {
    /// The address stored in the file.
    pub stored: String,
    /// The address recomputed from the embedded definition.
    pub computed: String,
}

impl fmt::Display for AddressMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stored content address {} does not match the recomputed address {} \
             of the embedded definition",
            self.stored, self.computed
        )
    }
}

impl std::error::Error for AddressMismatch {}

/// Errors loading or saving a [`Baseline`].
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file's contents are not a valid baseline.
    Parse(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "baseline I/O error: {e}"),
            StoreError::Parse(e) => write!(f, "baseline parse error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A minimal recursive-descent JSON parser — exactly the subset the
/// baseline files (and the reports they embed) use. Numbers keep their
/// raw source text so 64-bit integers (derived seeds) survive without a
/// lossy trip through `f64`.
mod json {
    /// One parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number, kept as its raw source text.
        Num(String),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, in source order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn as_object(&self, what: &str) -> Result<&[(String, Json)], super::StoreError> {
            match self {
                Json::Obj(fields) => Ok(fields),
                other => Err(type_error(what, "an object", other)),
            }
        }

        pub fn as_array(&self, what: &str) -> Result<&[Json], super::StoreError> {
            match self {
                Json::Arr(items) => Ok(items),
                other => Err(type_error(what, "an array", other)),
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, super::StoreError> {
            match self {
                Json::Str(s) => Ok(s),
                other => Err(type_error(what, "a string", other)),
            }
        }

        pub fn as_u64(&self, what: &str) -> Result<u64, super::StoreError> {
            match self {
                Json::Num(raw) => raw
                    .parse()
                    .map_err(|_| super::StoreError::Parse(format!("{what}: `{raw}` is not a u64"))),
                other => Err(type_error(what, "an integer", other)),
            }
        }

        pub fn as_nullable_f64(&self, what: &str) -> Result<Option<f64>, super::StoreError> {
            match self {
                Json::Null => Ok(None),
                Json::Num(raw) => raw.parse().map(Some).map_err(|_| {
                    super::StoreError::Parse(format!("{what}: `{raw}` is not a number"))
                }),
                other => Err(type_error(what, "a number or null", other)),
            }
        }
    }

    fn type_error(what: &str, expected: &str, got: &Json) -> super::StoreError {
        let kind = match got {
            Json::Null => "null",
            Json::Bool(_) => "a bool",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        };
        super::StoreError::Parse(format!("{what}: expected {expected}, got {kind}"))
    }

    /// The deepest array/object nesting the reader accepts. Baselines nest
    /// 4 deep; the bound keeps a hostile file from overflowing the stack
    /// of this recursive reader.
    pub const MAX_DEPTH: usize = 64;

    /// Parses one complete JSON document.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects open around the current position.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", byte as char, self.pos))
            }
        }

        fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(open @ (b'{' | b'[')) => {
                    if self.depth == MAX_DEPTH {
                        return Err(format!(
                            "nesting deeper than {MAX_DEPTH} levels at byte {}",
                            self.pos
                        ));
                    }
                    self.depth += 1;
                    let value = if open == b'{' {
                        self.object()
                    } else {
                        self.array()
                    };
                    self.depth -= 1;
                    value
                }
                Some(b'"') => self.string().map(Json::Str),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(format!("unexpected input at byte {}", self.pos)),
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
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
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Consume a run of plain bytes in one slice.
                while let Some(c) = self.peek() {
                    if c == b'"' || c == b'\\' || c < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                out.push_str(
                    core::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let escape = self
                            .peek()
                            .ok_or_else(|| "unterminated escape".to_string())?;
                        self.pos += 1;
                        match escape {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let end = self.pos + 4;
                                let hex = self
                                    .bytes
                                    .get(self.pos..end)
                                    .and_then(|h| core::str::from_utf8(h).ok())
                                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                                self.pos = end;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                                );
                            }
                            other => return Err(format!("unknown escape `\\{}`", other as char)),
                        }
                    }
                    _ => return Err("unterminated string".to_string()),
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let raw = core::str::from_utf8(&self.bytes[start..self.pos])
                .unwrap_or_else(|_| unreachable!("number bytes are ASCII"));
            if raw.is_empty() || raw == "-" || raw.parse::<f64>().is_err() {
                return Err(format!("invalid number `{raw}` at byte {start}"));
            }
            Ok(Json::Num(raw.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{StreamingSweeper, SweepGrid};
    use super::*;
    use crate::scenario::{AttackerSpec, ClosedLoopSpec, Scenario, StrategySpec, SuiteSpec};
    use arsf_schedule::SchedulePolicy;
    use arsf_sensor::{FaultKind, FaultModel};

    fn attacked_base(rounds: u64) -> Scenario {
        Scenario::new("store", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_rounds(rounds)
    }

    fn small_grid(rounds: u64) -> SweepGrid {
        SweepGrid::new(attacked_base(rounds))
            .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
            .seeds([2014, 99])
    }

    #[test]
    fn canonical_definition_is_versioned_and_lists_every_axis() {
        let def = canonical_definition(&small_grid(20));
        assert!(def.starts_with("arsf-sweep-grid v1\n"));
        for line in [
            "f=1",
            "truth=constant(10)",
            "closed_loop=none",
            "suites=landshark",
            "fault_sets=none",
            "attackers=phantom-optimal@0",
            "schedules=ascending;descending",
            "fusers=marzullo;brooks-iyengar",
            "detectors=immediate",
            "rounds=20",
            "seeds=2014;99",
        ] {
            assert!(
                def.contains(&format!("{line}\n")),
                "missing `{line}` in:\n{def}"
            );
        }
    }

    #[test]
    fn address_ignores_the_name_but_tracks_every_axis() {
        let grid = small_grid(20);
        let address = grid_address(&grid);
        // Renaming the base scenario is formatting, not semantics.
        let renamed = SweepGrid::new(attacked_base(20).named("different"))
            .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
            .seeds([2014, 99]);
        assert_eq!(address, grid_address(&renamed));
        // Any axis change moves the address.
        let wider = small_grid(20).seeds([2014, 99, 7]);
        assert_ne!(address, grid_address(&wider));
        let other_rounds = small_grid(21);
        assert_ne!(address, grid_address(&other_rounds));
        let detectors = small_grid(20).detectors([
            crate::DetectionMode::Immediate,
            crate::DetectionMode::Windowed {
                window: 10,
                tolerance: 3,
            },
        ]);
        assert_ne!(address, grid_address(&detectors));
        // Parameters inside an axis entry count too.
        let a = SweepGrid::new(attacked_base(20)).fusers([FuserSpec::Historical {
            max_rate: 2.5,
            dt: 0.1,
        }]);
        let b = SweepGrid::new(attacked_base(20)).fusers([FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        }]);
        assert_ne!(grid_address(&a), grid_address(&b));
        // Addresses are 16 lowercase hex digits.
        assert_eq!(address.len(), 16);
        assert!(address.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let grid = small_grid(25);
        let report = StreamingSweeper::new(2).run(&grid);
        let baseline = Baseline::from_report(&grid, &report);
        assert_eq!(baseline.rows.len(), 8);
        assert_eq!(baseline.address, grid_address(&grid));
        let reloaded = Baseline::from_json(&baseline.to_json()).expect("round trip");
        assert_eq!(baseline, reloaded);
        // Seeds survive exactly (they exceed f64's integer range).
        let seed = baseline.rows[3].label("seed").unwrap();
        assert_eq!(seed, reloaded.rows[3].label("seed").unwrap());
        assert_eq!(seed.parse::<u64>().unwrap(), report.rows()[3].seed);
    }

    #[test]
    fn closed_loop_rows_flatten_supervisor_and_vehicle_columns() {
        let base = Scenario::new("cl", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_rounds(30)
            .with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(2, 0.01));
        let grid = SweepGrid::new(base);
        let baseline = Baseline::from_report(&grid, &grid.run_serial());
        let row = &baseline.rows[0];
        assert!(row.metric("above_rate").unwrap().is_some());
        assert!(row.metric("min_gap").unwrap().is_some());
        assert!(row.metric("vehicle_mean_widths[1]").is_some());
        assert!(row.metric("vehicle_truth_lost[0]").unwrap().is_some());
        // The definition names the closed-loop spec.
        assert!(baseline
            .definition
            .contains("closed_loop=target:10,up:0.5,down:0.5,platoon:2x0.01"));
        // And open-loop rows carry null supervisor columns instead.
        let open = Baseline::from_report(
            &SweepGrid::new(attacked_base(10)),
            &SweepGrid::new(attacked_base(10)).run_serial(),
        );
        assert_eq!(open.rows[0].metric("above_rate"), Some(None));
        assert!(open.rows[0].metric("vehicle_mean_widths[0]").is_none());
    }

    #[test]
    fn save_and_load_use_the_content_address() {
        let dir = std::env::temp_dir().join(format!(
            "arsf-store-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let grid = SweepGrid::new(attacked_base(15));
        let baseline = Baseline::from_report(&grid, &grid.run_serial());
        let path = baseline.save(&dir).expect("save");
        assert_eq!(
            path,
            baseline_path(&dir, &grid_address(&grid)),
            "file is content-addressed"
        );
        let loaded = Baseline::load_for_grid(&dir, &grid).expect("load");
        assert_eq!(baseline, loaded);
        // A different grid misses with NotFound.
        let other = SweepGrid::new(attacked_base(16));
        match Baseline::load_for_grid(&dir, &other) {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected NotFound, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_address_catches_corruption() {
        let grid = SweepGrid::new(attacked_base(12));
        let mut baseline = Baseline::from_report(&grid, &grid.run_serial());
        assert_eq!(baseline.verify_address(), Ok(()));
        assert_eq!(baseline.computed_address(), baseline.address);
        // Hand-edit the definition: the stored address no longer matches.
        baseline.definition.push_str("rounds=extra\n");
        let err = baseline.verify_address().unwrap_err();
        assert_eq!(err.stored, baseline.address);
        assert_eq!(err.computed, content_address(&baseline.definition));
        assert_ne!(err.stored, err.computed);
        let rendered = err.to_string();
        assert!(rendered.contains(&err.stored), "{rendered}");
        assert!(rendered.contains(&err.computed), "{rendered}");
        // Tampering with the stored address is caught the same way.
        let mut retagged = Baseline::from_report(&grid, &grid.run_serial());
        retagged.address = "0000000000000000".to_string();
        assert!(retagged.verify_address().is_err());
    }

    #[test]
    fn verify_cells_requires_the_grid_cells_in_grid_order() {
        let grid = SweepGrid::new(attacked_base(6)).seeds([1, 2, 3]);
        let mut baseline = Baseline::from_report(&grid, &grid.run_serial());
        assert_eq!(baseline.verify_cells(&grid), Ok(()));
        // Rows out of grid order name the first misplaced row.
        baseline.rows.swap(1, 2);
        let err = baseline.verify_cells(&grid).unwrap_err();
        assert!(err.contains("row 1 holds cell 2, expected cell 1"), "{err}");
        // A dropped row is a count mismatch.
        baseline.rows.remove(0);
        let err = baseline.verify_cells(&grid).unwrap_err();
        assert!(err.contains("2 row(s) for a grid of 3 cell(s)"), "{err}");
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(matches!(
            Baseline::from_json("not json"),
            Err(StoreError::Parse(_))
        ));
        assert!(matches!(
            Baseline::from_json("{}"),
            Err(StoreError::Parse(_))
        ));
        let wrong_format =
            r#"{"format":"arsf-baseline-v0","address":"x","definition":"d","rows":[]}"#;
        match Baseline::from_json(wrong_format) {
            Err(StoreError::Parse(msg)) => assert!(msg.contains("arsf-baseline-v0")),
            other => panic!("expected a format error, got {other:?}"),
        }
        // Trailing garbage is an error, not silently ignored.
        let trailing = format!(
            "{} x",
            r#"{"format":"arsf-baseline-v1","address":"x","definition":"d","rows":[]}"#
        );
        assert!(Baseline::from_json(&trailing).is_err());
    }

    #[test]
    fn nesting_is_bounded_with_a_named_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        let err = json::parse(&nested(json::MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        // A hostile file fails cleanly instead of overflowing the stack.
        match Baseline::from_json(&"[".repeat(200_000)) {
            Err(StoreError::Parse(msg)) => assert!(msg.contains("deeper than 64"), "{msg}"),
            other => panic!("expected a depth error, got {other:?}"),
        }
        let objects = "{\"a\":".repeat(100) + "0" + &"}".repeat(100);
        assert!(json::parse(&objects).is_err());
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let baseline = Baseline {
            address: "00ff".to_string(),
            definition: "line1\nline2 \"quoted\" \\slash\t".to_string(),
            rows: vec![CellRecord {
                cell: u64::MAX,
                labels: vec![("seed".to_string(), u64::MAX.to_string())],
                metrics: vec![
                    ("a".to_string(), Some(-1.5e-3)),
                    ("b".to_string(), None),
                    ("c".to_string(), Some(0.1 + 0.2)),
                ],
            }],
        };
        let reloaded = Baseline::from_json(&baseline.to_json()).expect("round trip");
        assert_eq!(baseline, reloaded, "escapes and numbers survive");
        assert_eq!(reloaded.rows[0].cell, u64::MAX);
        assert_eq!(reloaded.rows[0].metric("c"), Some(Some(0.1 + 0.2)));
    }

    #[test]
    fn fault_axis_reaches_the_definition() {
        let faulty = SweepGrid::new(attacked_base(10)).fault_sets([
            vec![],
            vec![(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.25))],
        ]);
        let def = canonical_definition(&faulty);
        assert!(def.contains("fault_sets=none;2:bias(3)@0.25"));
        assert_ne!(
            grid_address(&faulty),
            grid_address(&SweepGrid::new(attacked_base(10)))
        );
    }
}

//! The coordinator/worker protocol behind distributed sweeps: framed
//! line-delimited row streams, shard planning, stream validation, and
//! CSV-to-baseline reconstruction. A row frame carries one CSV line in
//! the row format of [`arsf_core::sweep::row::COLUMNS`].
//!
//! A `sweep_drive` coordinator splits a grid into contiguous `--cells`
//! ranges and fans them out across child `scenario_sweep --stream`
//! processes. Each worker writes a framed stream to stdout:
//!
//! ```text
//! shard arsf-sweep-stream-v1 grid=<16-hex address> cells=<a>..<b>
//! row <grid index> <derived seed> <csv line>
//! …
//! end rows=<count> checksum=<16-hex FNV-1a over the csv lines>
//! ```
//!
//! The header pins the protocol version, the grid's content address
//! (from [`arsf_core::sweep::store`]) and the claimed range, so a
//! worker built from different axes — or a different binary version —
//! is rejected before its first row. Row indices must arrive strictly
//! in range order; the terminal checksum covers every emitted CSV line
//! (`line + '\n'`), so truncation, reordering, duplication and silent
//! corruption are all distinguishable, named failures rather than a
//! quietly wrong merged report.

use std::fmt;
use std::ops::Range;

use arsf_core::sweep::store::{Baseline, CellRecord, Fnv64};
use arsf_core::sweep::SweepGrid;

use crate::cli::{list, parse_range};

/// The protocol version tag every shard header carries. Bump it when a
/// frame's shape changes; a coordinator refuses a worker with any other
/// tag.
pub(crate) const PROTOCOL_VERSION: &str = "arsf-sweep-stream-v1";

/// One protocol frame (one stdout line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The stream opener: protocol version, grid content address, and
    /// the half-open cell range this worker claims.
    Header {
        /// The grid's content address (16 hex digits).
        grid: String,
        /// The claimed cell range.
        cells: Range<usize>,
    },
    /// One finished cell.
    Row {
        /// The cell's grid-order index.
        index: usize,
        /// The derived per-cell seed actually used (a cheap cross-check
        /// that worker and coordinator agree on the grid).
        seed: u64,
        /// The cell's CSV line (no trailing newline).
        csv: String,
    },
    /// The stream terminator: declared row count and the FNV-1a 64
    /// digest over every emitted `csv + '\n'`.
    End {
        /// How many rows the worker emitted.
        rows: usize,
        /// 16-hex FNV-1a digest of the shard's CSV body.
        checksum: String,
    },
}

impl Frame {
    /// Renders the frame as its wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Frame::Header { grid, cells } => format!(
                "shard {PROTOCOL_VERSION} grid={grid} cells={}..{}",
                cells.start, cells.end
            ),
            Frame::Row { index, seed, csv } => format!("row {index} {seed} {csv}"),
            Frame::End { rows, checksum } => format!("end rows={rows} checksum={checksum}"),
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed token.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "shard" => {
                let mut version = None;
                let mut grid = None;
                let mut cells = None;
                for (i, token) in rest.split(' ').enumerate() {
                    if i == 0 {
                        version = Some(token.to_string());
                    } else if let Some(value) = token.strip_prefix("grid=") {
                        grid = Some(value.to_string());
                    } else if let Some(value) = token.strip_prefix("cells=") {
                        let (start, end) = parse_range(value)?;
                        cells = Some(start..end);
                    } else {
                        return Err(format!("unknown header token `{token}`"));
                    }
                }
                let version = version.ok_or("header missing protocol version")?;
                if version != PROTOCOL_VERSION {
                    return Err(format!(
                        "protocol version mismatch: worker speaks `{version}`, \
                         coordinator speaks `{PROTOCOL_VERSION}`"
                    ));
                }
                Ok(Frame::Header {
                    grid: grid.ok_or("header missing grid=")?,
                    cells: cells.ok_or("header missing cells=")?,
                })
            }
            "row" => {
                let mut parts = rest.splitn(3, ' ');
                let index = parts
                    .next()
                    .filter(|t| !t.is_empty())
                    .ok_or("row frame missing index")?;
                let index: usize = index
                    .parse()
                    .map_err(|_| format!("bad row index `{index}`"))?;
                let seed = parts.next().ok_or("row frame missing seed")?;
                let seed: u64 = seed.parse().map_err(|_| format!("bad row seed `{seed}`"))?;
                let csv = parts.next().ok_or("row frame missing csv payload")?;
                Ok(Frame::Row {
                    index,
                    seed,
                    csv: csv.to_string(),
                })
            }
            "end" => {
                let mut rows = None;
                let mut checksum = None;
                for token in rest.split(' ') {
                    if let Some(value) = token.strip_prefix("rows=") {
                        rows = Some(
                            value
                                .parse()
                                .map_err(|_| format!("bad end row count `{value}`"))?,
                        );
                    } else if let Some(value) = token.strip_prefix("checksum=") {
                        checksum = Some(value.to_string());
                    } else {
                        return Err(format!("unknown end token `{token}`"));
                    }
                }
                Ok(Frame::End {
                    rows: rows.ok_or("end frame missing rows=")?,
                    checksum: checksum.ok_or("end frame missing checksum=")?,
                })
            }
            other => Err(format!("unknown frame kind `{other}`")),
        }
    }
}

/// A named protocol violation in one worker's stream. Every variant is
/// a deterministic defect — retrying the shard would reproduce it — so
/// the coordinator fails fast with the diagnostic instead of retrying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveError {
    /// A line that does not parse as any frame.
    Malformed(String),
    /// The first line was not a header frame.
    MissingHeader,
    /// The header's grid address does not match the coordinator's.
    GridMismatch {
        /// The coordinator's grid address.
        expected: String,
        /// The worker's claimed address.
        got: String,
    },
    /// The header claims a different cell range than assigned.
    RangeMismatch {
        /// The assigned range.
        expected: Range<usize>,
        /// The claimed range.
        got: Range<usize>,
    },
    /// A row index outside the shard's assigned range.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// The assigned range.
        cells: Range<usize>,
    },
    /// A row index emitted twice.
    Duplicate(usize),
    /// A row index ahead of the expected in-order position.
    OutOfOrder {
        /// The expected next index.
        expected: usize,
        /// The index that arrived.
        got: usize,
    },
    /// A row's derived seed disagrees with the coordinator's grid.
    SeedMismatch {
        /// The row's grid index.
        index: usize,
        /// The coordinator's derived seed.
        expected: u64,
        /// The worker's claimed seed.
        got: u64,
    },
    /// The end frame's declared row count disagrees with what arrived.
    RowCountMismatch {
        /// The declared count.
        declared: usize,
        /// The received count.
        received: usize,
    },
    /// The end frame's checksum disagrees with the received rows.
    ChecksumMismatch {
        /// The declared digest.
        declared: String,
        /// The digest of the received rows.
        computed: String,
    },
    /// A frame arrived after the end frame.
    TrailingFrame(String),
    /// The stream ended (or the next shard's work began) before the end
    /// frame — rows may be missing.
    Truncated {
        /// Rows received before the stream stopped.
        received: usize,
        /// Rows the shard was assigned.
        expected: usize,
    },
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            DriveError::MissingHeader => {
                write!(f, "stream did not start with a `shard` header frame")
            }
            DriveError::GridMismatch { expected, got } => write!(
                f,
                "grid address mismatch: worker ran grid {got}, coordinator drives {expected}"
            ),
            DriveError::RangeMismatch { expected, got } => write!(
                f,
                "cell range mismatch: worker claims {}..{}, assigned {}..{}",
                got.start, got.end, expected.start, expected.end
            ),
            DriveError::OutOfRange { index, cells } => write!(
                f,
                "row index {index} is outside the shard's cells {}..{}",
                cells.start, cells.end
            ),
            DriveError::Duplicate(index) => write!(f, "duplicate row for cell {index}"),
            DriveError::OutOfOrder { expected, got } => write!(
                f,
                "out-of-order row: expected cell {expected}, got cell {got}"
            ),
            DriveError::SeedMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "seed mismatch on cell {index}: worker derived {got}, coordinator \
                 derived {expected} — the two sides disagree about the grid"
            ),
            DriveError::RowCountMismatch { declared, received } => write!(
                f,
                "row count mismatch: end frame declares {declared} rows, received {received}"
            ),
            DriveError::ChecksumMismatch { declared, computed } => write!(
                f,
                "shard checksum mismatch: end frame declares {declared}, received rows \
                 hash to {computed}"
            ),
            DriveError::TrailingFrame(line) => {
                write!(f, "frame after the end frame: `{line}`")
            }
            DriveError::Truncated { received, expected } => write!(
                f,
                "truncated shard stream: received {received} of {expected} rows with no \
                 end frame"
            ),
        }
    }
}

/// A validated row from a worker stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRow {
    /// The cell's grid-order index.
    pub index: usize,
    /// The worker's derived seed (already format-checked, not yet
    /// compared against the coordinator's grid — the coordinator does
    /// that, since only it holds the grid).
    pub seed: u64,
    /// The cell's CSV line.
    pub csv: String,
}

/// Incremental validator for one worker's framed stdout: feed it lines,
/// get validated rows out, and call [`ShardStream::finish`] at EOF.
/// Enforces the header (version, grid address, range), strict in-order
/// contiguity of row indices, and the terminal count + checksum.
#[derive(Debug)]
pub struct ShardStream {
    expected_grid: String,
    cells: Range<usize>,
    next: usize,
    ended: bool,
    saw_header: bool,
    hash: Fnv64,
}

impl ShardStream {
    /// A validator for one shard: the coordinator's grid address and
    /// the range assigned to this worker.
    pub fn new(expected_grid: &str, cells: Range<usize>) -> Self {
        ShardStream {
            expected_grid: expected_grid.to_string(),
            next: cells.start,
            cells,
            ended: false,
            saw_header: false,
            hash: Fnv64::default(),
        }
    }

    /// Feeds one stdout line. Returns `Ok(Some(row))` for a validated
    /// row frame, `Ok(None)` for the header and end frames.
    ///
    /// # Errors
    ///
    /// Returns the named [`DriveError`] for any protocol violation.
    pub fn accept(&mut self, line: &str) -> Result<Option<ShardRow>, DriveError> {
        if self.ended {
            return Err(DriveError::TrailingFrame(line.to_string()));
        }
        let frame = Frame::parse(line).map_err(DriveError::Malformed)?;
        if !self.saw_header {
            let Frame::Header { grid, cells } = frame else {
                return Err(DriveError::MissingHeader);
            };
            if grid != self.expected_grid {
                return Err(DriveError::GridMismatch {
                    expected: self.expected_grid.clone(),
                    got: grid,
                });
            }
            if cells != self.cells {
                return Err(DriveError::RangeMismatch {
                    expected: self.cells.clone(),
                    got: cells,
                });
            }
            self.saw_header = true;
            return Ok(None);
        }
        match frame {
            Frame::Header { .. } => Err(DriveError::Malformed(format!(
                "second header frame: `{line}`"
            ))),
            Frame::Row { index, seed, csv } => {
                if !self.cells.contains(&index) {
                    return Err(DriveError::OutOfRange {
                        index,
                        cells: self.cells.clone(),
                    });
                }
                if index < self.next {
                    return Err(DriveError::Duplicate(index));
                }
                if index > self.next {
                    return Err(DriveError::OutOfOrder {
                        expected: self.next,
                        got: index,
                    });
                }
                self.next += 1;
                self.hash.update(csv.as_bytes());
                self.hash.update(b"\n");
                Ok(Some(ShardRow { index, seed, csv }))
            }
            Frame::End { rows, checksum } => {
                let received = self.next - self.cells.start;
                if received < self.cells.len() {
                    // The worker closed early; report it as truncation
                    // (the crash-shaped failure), not a count quibble.
                    return Err(DriveError::Truncated {
                        received,
                        expected: self.cells.len(),
                    });
                }
                if rows != received {
                    return Err(DriveError::RowCountMismatch {
                        declared: rows,
                        received,
                    });
                }
                let computed = self.hash.finish();
                if checksum != computed {
                    return Err(DriveError::ChecksumMismatch {
                        declared: checksum,
                        computed,
                    });
                }
                self.ended = true;
                Ok(None)
            }
        }
    }

    /// Closes the stream at worker EOF.
    ///
    /// # Errors
    ///
    /// Returns [`DriveError::Truncated`] when the end frame never
    /// arrived.
    pub fn finish(&self) -> Result<(), DriveError> {
        if self.ended {
            Ok(())
        } else {
            Err(DriveError::Truncated {
                received: self.next - self.cells.start,
                expected: self.cells.len(),
            })
        }
    }
}

/// Splits `0..len` into `workers` balanced contiguous shards (the first
/// `len % workers` shards take one extra cell). Trailing shards may be
/// empty when `workers > len`; empty shards simply run no worker.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn plan_shards(len: usize, workers: usize) -> Vec<Range<usize>> {
    assert!(workers > 0, "sharding needs at least one worker");
    let base = len / workers;
    let extra = len % workers;
    let mut shards = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let size = base + usize::from(i < extra);
        shards.push(start..start + size);
        start += size;
    }
    shards
}

/// Parses an explicit shard plan `a..b,b..c,…`: a contiguous ascending
/// partition of `0..len`. Empty ranges (`a..a`) are allowed — they model
/// a worker with nothing to do — but gaps, overlaps, and ranges outside
/// the grid are errors.
///
/// # Errors
///
/// Returns a message naming the offending range.
pub fn parse_shards(spec: &str, len: usize) -> Result<Vec<Range<usize>>, String> {
    let mut cursor = 0usize;
    let shards = list("shard plan", spec, |token| {
        let (start, end) = parse_range(token)?;
        if start > end {
            return Err(format!("cell range {start}..{end} is reversed"));
        }
        if start != cursor {
            return Err(format!(
                "shard plan is not contiguous: expected a range starting at {cursor}, \
                 got {start}..{end}"
            ));
        }
        if end > len {
            return Err(format!(
                "cell range {start}..{end} exceeds the {len}-cell grid"
            ));
        }
        cursor = end;
        Ok(start..end)
    })?;
    if cursor != len {
        return Err(format!(
            "shard plan covers 0..{cursor} of the {len}-cell grid"
        ));
    }
    Ok(shards)
}

/// Rebuilds a [`Baseline`] from a driven run's merged CSV lines — the
/// bridge that lets `sweep_drive --baseline record|check` work without
/// ever materialising a [`arsf_core::sweep::SweepReport`].
///
/// # Errors
///
/// Returns a message naming the malformed line.
pub fn baseline_from_rows(grid: &SweepGrid, lines: &[String]) -> Result<Baseline, String> {
    let rows = lines.iter().enumerate().map(|(i, line)| {
        CellRecord::from_csv_line(line).map_err(|e| format!("merged CSV row {i}: {e}"))
    });
    Ok(Baseline::new(grid, rows.collect::<Result<_, _>>()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use arsf_core::sweep::store::content_address;
    use arsf_core::sweep::ParallelSweeper;

    #[test]
    fn incremental_fnv_matches_content_address() {
        let text = "arsf-sweep-grid v1\nsome,csv,line\n";
        let mut hash = Fnv64::default();
        // Feed in awkward splits: the digest must not depend on chunking.
        hash.update(&text.as_bytes()[..7]);
        hash.update(&text.as_bytes()[7..]);
        assert_eq!(hash.finish(), content_address(text));
        assert_eq!(Fnv64::default().finish(), content_address(""));
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Header {
                grid: "0123456789abcdef".to_string(),
                cells: 5..12,
            },
            Frame::Row {
                index: 7,
                seed: 1234567890123,
                csv: "7,\"grid#7\",landshark,none,a b,asc,marzullo,off,50,1,2.5,,,0,0,0,0,,,,,,,,"
                    .to_string(),
            },
            Frame::End {
                rows: 7,
                checksum: "deadbeefdeadbeef".to_string(),
            },
        ];
        for frame in frames {
            assert_eq!(Frame::parse(&frame.render()).unwrap(), frame);
        }
    }

    #[test]
    fn frame_parse_names_malformed_tokens() {
        assert!(Frame::parse("wibble 1 2").unwrap_err().contains("wibble"));
        assert!(Frame::parse("row x 2 csv").unwrap_err().contains("`x`"));
        assert!(Frame::parse("row 1 y csv").unwrap_err().contains("`y`"));
        assert!(Frame::parse("end rows=z checksum=aa")
            .unwrap_err()
            .contains("`z`"));
        assert!(
            Frame::parse("shard arsf-sweep-stream-v0 grid=aa cells=0..1")
                .unwrap_err()
                .contains("version mismatch")
        );
    }

    fn stream_lines(
        grid_addr: &str,
        cells: Range<usize>,
        rows: &[(usize, u64, &str)],
    ) -> Vec<String> {
        let mut lines = vec![Frame::Header {
            grid: grid_addr.to_string(),
            cells: cells.clone(),
        }
        .render()];
        let mut hash = Fnv64::default();
        for (index, seed, csv) in rows {
            hash.update(csv.as_bytes());
            hash.update(b"\n");
            lines.push(
                Frame::Row {
                    index: *index,
                    seed: *seed,
                    csv: csv.to_string(),
                }
                .render(),
            );
        }
        lines.push(
            Frame::End {
                rows: rows.len(),
                checksum: hash.finish(),
            }
            .render(),
        );
        lines
    }

    #[test]
    fn shard_stream_accepts_a_clean_stream() {
        let lines = stream_lines("aa", 3..5, &[(3, 1, "x"), (4, 2, "y")]);
        let mut stream = ShardStream::new("aa", 3..5);
        let mut rows = Vec::new();
        for line in &lines {
            if let Some(row) = stream.accept(line).unwrap() {
                rows.push(row.index);
            }
        }
        stream.finish().unwrap();
        assert_eq!(rows, [3, 4]);
    }

    #[test]
    fn shard_stream_names_each_violation() {
        let violations: Vec<(Vec<String>, Range<usize>, &str)> = vec![
            // Grid address mismatch.
            (
                stream_lines("bb", 0..1, &[(0, 1, "x")]),
                0..1,
                "grid address",
            ),
            // Range mismatch.
            (
                stream_lines("aa", 0..2, &[(0, 1, "x")]),
                0..1,
                "range mismatch",
            ),
            // Out-of-range index.
            (
                stream_lines("aa", 0..1, &[(5, 1, "x")]),
                0..1,
                "outside the shard",
            ),
            // Duplicate row.
            (
                stream_lines("aa", 0..2, &[(0, 1, "x"), (0, 1, "x")]),
                0..2,
                "duplicate row",
            ),
            // Out-of-order row.
            (
                stream_lines("aa", 0..2, &[(1, 1, "x"), (0, 1, "y")]),
                0..2,
                "out-of-order",
            ),
            // Missing header.
            (vec!["row 0 1 x".to_string()], 0..1, "header"),
        ];
        for (lines, cells, needle) in violations {
            let mut stream = ShardStream::new("aa", cells);
            let err = lines
                .iter()
                .find_map(|line| stream.accept(line).err())
                .expect("stream must be rejected");
            assert!(
                err.to_string().contains(needle),
                "`{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn shard_stream_checks_count_and_checksum() {
        // Tampered checksum.
        let mut lines = stream_lines("aa", 0..1, &[(0, 1, "x")]);
        let last = lines.last_mut().unwrap();
        *last = "end rows=1 checksum=0000000000000000".to_string();
        let mut stream = ShardStream::new("aa", 0..1);
        let err = lines
            .iter()
            .find_map(|line| stream.accept(line).err())
            .unwrap();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // End frame before all assigned rows: truncation.
        let lines = stream_lines("aa", 0..3, &[(0, 1, "x")]);
        let mut stream = ShardStream::new("aa", 0..3);
        let err = lines
            .iter()
            .find_map(|line| stream.accept(line).err())
            .unwrap();
        assert!(err.to_string().contains("truncated"), "{err}");

        // EOF with no end frame at all: truncation via finish().
        let mut stream = ShardStream::new("aa", 0..2);
        let lines = stream_lines("aa", 0..2, &[(0, 1, "x"), (1, 2, "y")]);
        for line in &lines[..2] {
            stream.accept(line).unwrap();
        }
        let err = stream.finish().unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // A frame after the end frame.
        let mut lines = stream_lines("aa", 0..1, &[(0, 1, "x")]);
        lines.push("row 0 1 x".to_string());
        let mut stream = ShardStream::new("aa", 0..1);
        let err = lines
            .iter()
            .find_map(|line| stream.accept(line).err())
            .unwrap();
        assert!(err.to_string().contains("after the end frame"), "{err}");
    }

    #[test]
    fn planned_shards_partition_the_grid() {
        assert_eq!(plan_shards(8, 3), vec![0..3, 3..6, 6..8]);
        assert_eq!(plan_shards(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(plan_shards(0, 2), vec![0..0, 0..0]);
        assert_eq!(plan_shards(6, 1), vec![0..6]);
    }

    #[test]
    fn explicit_shard_plans_must_partition_the_grid() {
        assert_eq!(parse_shards("0..3,3..8", 8).unwrap(), vec![0..3, 3..8]);
        assert_eq!(
            parse_shards("0..0,0..8,8..8", 8).unwrap(),
            vec![0..0, 0..8, 8..8]
        );
        assert!(parse_shards("0..3,4..8", 8)
            .unwrap_err()
            .contains("not contiguous"));
        assert!(parse_shards("0..3,3..7", 8)
            .unwrap_err()
            .contains("covers 0..7"));
        assert!(parse_shards("0..9", 8).unwrap_err().contains("exceeds"));
        assert!(parse_shards("3..1", 8).unwrap_err().contains("reversed"));
        assert!(parse_shards("x..1", 8)
            .unwrap_err()
            .contains("bad cell index `x`"));
        assert!(parse_shards("", 8).unwrap_err().contains("empty"));
    }

    #[test]
    fn baseline_from_csv_rows_equals_baseline_from_report() {
        for (name, grid) in golden::all() {
            // Shrink the grids so the test stays fast; the shape (open-
            // vs closed-loop, platoon columns) is what matters.
            let report = ParallelSweeper::new(2).run_range(&grid, 0..grid.len().min(6));
            let lines: Vec<String> = report.rows().iter().map(|r| r.to_csv_line()).collect();
            let mut rebuilt_rows = Vec::new();
            for line in &lines {
                rebuilt_rows.push(CellRecord::from_csv_line(line).unwrap());
            }
            let from_report = Baseline::from_report(&grid, &report);
            for (rebuilt, direct) in rebuilt_rows.iter().zip(&from_report.rows) {
                assert_eq!(rebuilt, direct, "grid `{name}`");
            }
            let rebuilt = baseline_from_rows(&grid, &lines).unwrap();
            assert_eq!(rebuilt.address, from_report.address);
            assert_eq!(rebuilt.definition, from_report.definition);
        }
    }
}

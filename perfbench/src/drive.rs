//! The drive layer: whole `sweep_drive` invocations over the
//! `open-attacked` grid, timed from spawn to exit, each one's merged CSV
//! compared byte for byte with the in-process sweep of the same grid.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::verify::BASELINE_DIR;
use crate::workloads::{self, DEFAULT_SEED};

/// Where the driven binaries live and where invocations may write.
#[derive(Debug, Clone)]
pub struct DriveEnv {
    /// Directory holding `sweep_drive` and `scenario_sweep`.
    pub bin_dir: PathBuf,
    /// Scratch directory for merged CSVs and recorded baselines.
    pub out_dir: PathBuf,
    /// The benchmark seed.
    pub seed: u64,
}

/// One finished invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Spawn-to-exit wall, in seconds.
    pub wall_s: f64,
    /// Whether the process exited 0.
    pub exited_ok: bool,
    /// The merged CSV it wrote (empty when it wrote none).
    pub csv: String,
    /// `(elapsed_s, attempt)` of every `--json-progress` shard line.
    pub shards: Vec<(f64, u64)>,
}

impl DriveEnv {
    /// Directory recorded baselines go to.
    pub fn record_dir(&self) -> PathBuf {
        self.out_dir.join("baselines")
    }

    /// Directory checks read: the committed baselines at the default
    /// seed, else the ones this run recorded.
    pub fn check_dir(&self) -> PathBuf {
        if self.seed == DEFAULT_SEED {
            PathBuf::from(BASELINE_DIR)
        } else {
            self.record_dir()
        }
    }

    fn exe(&self, name: &str) -> PathBuf {
        self.bin_dir
            .join(format!("{name}{}", std::env::consts::EXE_SUFFIX))
    }

    /// Runs `sweep_drive --baseline check --json-progress` once over the
    /// driven grid with `workers` single-threaded worker processes.
    ///
    /// # Errors
    ///
    /// Returns a message when the process cannot be started.
    pub fn invoke(&self, workers: usize) -> Result<Invocation, String> {
        let csv_path = self.out_dir.join("drive.csv");
        let _ = std::fs::remove_file(&csv_path);
        let mut command = Command::new(self.exe("sweep_drive"));
        command
            .args(workloads::drive_grid_args(self.seed))
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--csv")
            .arg(&csv_path)
            .args(["--json-progress", "--baseline", "check", "--baseline-dir"])
            .arg(self.check_dir())
            .stdin(Stdio::null());
        let start = Instant::now();
        let output = command
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.exe("sweep_drive").display()))?;
        let wall_s = start.elapsed().as_secs_f64();
        let stderr = String::from_utf8_lossy(&output.stderr);
        Ok(Invocation {
            wall_s,
            exited_ok: output.status.success(),
            csv: std::fs::read_to_string(&csv_path).unwrap_or_default(),
            shards: stderr.lines().filter_map(progress_line).collect(),
        })
    }

    /// `drive.stream_bytes_per_row`: protocol bytes one
    /// `scenario_sweep --stream` worker writes per row for the whole
    /// grid.
    ///
    /// # Errors
    ///
    /// Returns a message when the worker cannot be run or fails.
    pub fn stream_bytes_per_row(&self, cells: usize) -> Result<f64, String> {
        let output = Command::new(self.exe("scenario_sweep"))
            .args(workloads::drive_grid_args(self.seed))
            .args(["--stream", "--threads", "1", "--cells"])
            .arg(format!("0..{cells}"))
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run scenario_sweep: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "scenario_sweep --stream exited with {}",
                output.status
            ));
        }
        Ok(output.stdout.len() as f64 / cells.max(1) as f64)
    }
}

/// Parses `"elapsed_s"` and `"attempt"` out of one `--json-progress`
/// line.
fn progress_line(line: &str) -> Option<(f64, u64)> {
    if !line.starts_with("{\"schema\":1") {
        return None;
    }
    let field = |name: &str| -> Option<f64> {
        let tail = line.split(&format!("\"{name}\":")).nth(1)?;
        let token: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        token.parse().ok()
    };
    Some((field("elapsed_s")?, field("attempt")? as u64))
}

/// Counts the data lines of a driven CSV that differ from `expected`
/// (both with header); a missing or truncated file counts every cell.
pub fn mismatched_rows(csv: &str, expected: &str) -> u64 {
    let got: Vec<&str> = csv.lines().skip(1).collect();
    let want: Vec<&str> = expected.lines().skip(1).collect();
    let same = got.iter().zip(&want).filter(|(a, b)| a == b).count();
    (want.len().max(got.len()) - same) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_lines_parse_elapsed_and_attempt() {
        let line = "{\"schema\":1,\"worker\":1,\"cells\":\"24..48\",\"rows\":24,\
                    \"attempt\":2,\"elapsed_s\":0.013,\"rows_per_s\":1856.6}";
        assert_eq!(progress_line(line), Some((0.013, 2)));
        assert_eq!(progress_line("sweep_drive: merged 48 rows"), None);
    }

    #[test]
    fn row_mismatches_count_cells() {
        let expected = "h\na\nb\nc\n";
        assert_eq!(mismatched_rows(expected, expected), 0);
        assert_eq!(mismatched_rows("h\na\nx\nc\n", expected), 1);
        assert_eq!(mismatched_rows("", expected), 3);
    }
}

//! Property test: every `SweepRow` renders its axis coordinates — the
//! cell index, suite, fault-set, attacker, schedule, rounds, seed and the
//! closed-loop supervisor columns — into both the CSV line and the JSON
//! object, byte-for-byte, for randomly-built grids in both execution
//! modes, and the CSV reader rebuilds exactly the row's `CellRecord`.
//! The reader is also total: any line, including truncated, spliced and
//! field-dropped real rows, gives `Ok` or an error naming a column.

use arsf_core::scenario::{
    faults_label, AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec,
};
use arsf_core::sweep::row::{split_csv, COLUMNS};
use arsf_core::sweep::store::CellRecord;
use arsf_core::sweep::{SweepGrid, SweepRow};
use arsf_core::DetectionMode;
use arsf_schedule::SchedulePolicy;
use arsf_sensor::{FaultKind, FaultModel};
use proptest::prelude::*;

fn schedule_pool(i: usize) -> SchedulePolicy {
    match i % 3 {
        0 => SchedulePolicy::Ascending,
        1 => SchedulePolicy::Descending,
        _ => SchedulePolicy::Random,
    }
}

fn open_fuser_pool(i: usize) -> FuserSpec {
    match i % 4 {
        0 => FuserSpec::Marzullo,
        1 => FuserSpec::Hull,
        2 => FuserSpec::MidpointMedian,
        _ => FuserSpec::Historical {
            max_rate: 3.5,
            dt: 0.1,
        },
    }
}

fn fault_set_pool(i: usize) -> Vec<(usize, FaultModel)> {
    match i % 3 {
        0 => vec![],
        1 => vec![(2, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.25))],
        _ => vec![
            (1, FaultModel::new(FaultKind::Silent, 0.5)),
            (3, FaultModel::new(FaultKind::Scale { factor: 1.5 }, 1.0)),
        ],
    }
}

fn attacker_pool(i: usize) -> AttackerSpec {
    match i % 3 {
        0 => AttackerSpec::None,
        1 => AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        },
        _ => AttackerSpec::RandomEachRound,
    }
}

/// Asserts one row's CSV line and JSON object carry exactly its axis
/// coordinates and supervisor columns.
fn assert_row_round_trips(
    row: &SweepRow,
    csv_line: &str,
    json_object: &str,
) -> Result<(), TestCaseError> {
    let fields = split_csv(csv_line);
    prop_assert_eq!(fields.len(), 25, "CSV column count: {}", csv_line);
    let s = &row.summary;
    prop_assert_eq!(&fields[0], &format!("{}", row.cell));
    prop_assert_eq!(&fields[1], &s.scenario);
    prop_assert_eq!(&fields[2], &row.suite);
    prop_assert_eq!(&fields[3], &row.faults);
    prop_assert_eq!(&fields[4], &row.attacker);
    prop_assert_eq!(&fields[5], &row.schedule);
    prop_assert_eq!(&fields[6], &s.fuser);
    prop_assert_eq!(&fields[7], &s.detector);
    prop_assert_eq!(&fields[8], &format!("{}", row.rounds));
    prop_assert_eq!(&fields[9], &format!("{}", row.seed));
    let (above, below, preempts, gap) = match &s.supervisor {
        None => (String::new(), String::new(), String::new(), String::new()),
        Some(sup) => (
            format!("{}", sup.above_rate),
            format!("{}", sup.below_rate),
            format!("{}", sup.preemptions),
            sup.min_gap.map_or(String::new(), |g| format!("{g}")),
        ),
    };
    prop_assert_eq!(&fields[18], &above);
    prop_assert_eq!(&fields[19], &below);
    prop_assert_eq!(&fields[20], &preempts);
    prop_assert_eq!(&fields[21], &gap);
    // Per-vehicle columns: pipe-joined in CSV, arrays in JSON, leader
    // first; empty for everything but closed-loop platoon rows.
    let vehicle_means: Vec<String> = s
        .vehicles
        .iter()
        .map(|v| format!("{}", v.widths.mean()))
        .collect();
    let vehicle_maxes_csv: Vec<String> = s
        .vehicles
        .iter()
        .map(|v| v.widths.max().map_or(String::new(), |w| format!("{w}")))
        .collect();
    let vehicle_lost: Vec<String> = s
        .vehicles
        .iter()
        .map(|v| format!("{}", v.truth_lost))
        .collect();
    prop_assert_eq!(&fields[22], &vehicle_means.join("|"));
    prop_assert_eq!(&fields[23], &vehicle_maxes_csv.join("|"));
    prop_assert_eq!(&fields[24], &vehicle_lost.join("|"));

    let null_or = |v: &str| {
        if v.is_empty() {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    for expected in [
        format!("\"cell\":{}", row.cell),
        format!("\"suite\":\"{}\"", row.suite),
        format!("\"faults\":\"{}\"", row.faults),
        format!("\"attacker\":\"{}\"", row.attacker),
        format!("\"schedule\":\"{}\"", row.schedule),
        format!("\"rounds\":{}", row.rounds),
        format!("\"seed\":{}", row.seed),
        format!("\"above_rate\":{}", null_or(&above)),
        format!("\"below_rate\":{}", null_or(&below)),
        format!("\"preemptions\":{}", null_or(&preempts)),
        format!("\"min_gap\":{}", null_or(&gap)),
        format!("\"vehicle_mean_widths\":[{}]", vehicle_means.join(",")),
        format!(
            "\"vehicle_max_widths\":[{}]",
            s.vehicles
                .iter()
                .map(|v| v
                    .widths
                    .max()
                    .map_or("null".to_string(), |w| format!("{w}")))
                .collect::<Vec<_>>()
                .join(",")
        ),
        format!("\"vehicle_truth_lost\":[{}]", vehicle_lost.join(",")),
    ] {
        prop_assert!(
            json_object.contains(&expected),
            "JSON object misses `{}`: {}",
            expected,
            json_object
        );
    }
    Ok(())
}

fn assert_report_round_trips(grid: &SweepGrid) -> Result<(), TestCaseError> {
    let report = grid.run_serial();
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().skip(1).collect();
    prop_assert_eq!(lines.len(), report.len());
    let json = report.to_json();
    let objects: Vec<&str> = json
        .split("{\"cell\":")
        .skip(1)
        .map(|chunk| chunk.split('}').next().unwrap_or(""))
        .collect();
    prop_assert_eq!(objects.len(), report.len());
    for (row, (line, object)) in report.rows().iter().zip(lines.iter().zip(&objects)) {
        let object = format!("{{\"cell\":{object}}}");
        assert_row_round_trips(row, line, &object)?;
        prop_assert_eq!(
            CellRecord::from_csv_line(&row.to_csv_line()),
            Ok(CellRecord::from_row(row))
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn open_loop_rows_round_trip_axis_coordinates(
        fusers in prop::collection::vec(0usize..4, 1..=2),
        fault_sets in prop::collection::vec(0usize..3, 1..=2),
        attackers in prop::collection::vec(0usize..3, 1..=2),
        schedule in 0usize..3,
        seeds in prop::collection::vec(0u64..1000, 1..=2),
        rounds in 3u64..8,
    ) {
        let base = Scenario::new("prop", SuiteSpec::Landshark).with_rounds(rounds);
        let grid = SweepGrid::new(base)
            .fusers(fusers.into_iter().map(open_fuser_pool))
            .fault_sets(fault_sets.into_iter().map(fault_set_pool))
            .attackers(attackers.into_iter().map(attacker_pool))
            .schedules([schedule_pool(schedule)])
            .seeds(seeds);
        assert_report_round_trips(&grid)?;
    }

    #[test]
    fn closed_loop_rows_round_trip_supervisor_columns(
        historical in 0usize..2,
        platoon in 0usize..2,
        schedule in 0usize..3,
        seeds in prop::collection::vec(0u64..1000, 1..=2),
        rounds in 3u64..8,
        detector in 0usize..2,
    ) {
        let mut spec = ClosedLoopSpec::new(10.0);
        if platoon == 1 {
            spec = spec.with_platoon(2, 0.01);
        }
        let fuser = if historical == 1 {
            FuserSpec::Historical { max_rate: 3.5, dt: 0.1 }
        } else {
            FuserSpec::Marzullo
        };
        let detector = if detector == 1 {
            DetectionMode::Windowed { window: 5, tolerance: 2 }
        } else {
            DetectionMode::Immediate
        };
        let base = Scenario::new("prop-cl", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_fuser(fuser)
            .with_detector(detector)
            .with_rounds(rounds)
            .with_closed_loop(spec);
        let grid = SweepGrid::new(base)
            .schedules([schedule_pool(schedule)])
            .seeds(seeds);
        for cell in grid.cells() {
            prop_assert!(cell.scenario.closed_loop.is_some());
        }
        assert_report_round_trips(&grid)?;
    }

    #[test]
    fn fault_labels_are_stable_and_distinct(
        a in 0usize..3,
        b in 0usize..3,
    ) {
        let la = faults_label(&fault_set_pool(a));
        let lb = faults_label(&fault_set_pool(b));
        prop_assert_eq!(a % 3 == b % 3, la == lb, "labels {} vs {}", la, lb);
        prop_assert!(!la.contains(','), "labels stay CSV-safe: {}", la);
    }
}

/// Real rows: the pinned report, open- and closed-loop, platoon included.
fn real_rows() -> Vec<&'static str> {
    include_str!("fixtures/report_bytes.csv")
        .lines()
        .skip(1)
        .collect()
}

/// The characters arbitrary lines are drawn from: CSV and list
/// separators, quotes, number syntax, and a multi-byte character.
const ALPHABET: &[char] = &[
    ',', ',', '"', '|', '0', '1', '7', '.', '-', 'e', 'E', 'n', 'i', 'f', 'a', 'N', ' ', '\\',
    '\u{3bc}',
];

/// Builds one reader input: an arbitrary line (mode 0), or a real row
/// truncated (1), spliced with another (2) or missing one field (3).
fn reader_input(mode: usize, a: usize, b: usize, cut: usize, junk: &[usize]) -> String {
    let rows = real_rows();
    let (a, b) = (rows[a % rows.len()], rows[b % rows.len()]);
    let chars = |row: &str| row.chars().collect::<Vec<_>>();
    match mode {
        0 => junk.iter().map(|&i| ALPHABET[i % ALPHABET.len()]).collect(),
        1 => {
            let a = chars(a);
            a[..cut % (a.len() + 1)].iter().collect()
        }
        2 => {
            let (a, b) = (chars(a), chars(b));
            let head = &a[..cut % (a.len() + 1)];
            let tail = &b[junk.len() % (b.len() + 1)..];
            head.iter().chain(tail).collect()
        }
        _ => {
            let mut fields: Vec<&str> = a.split(',').collect();
            fields.remove(cut % fields.len());
            fields.join(",")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn csv_reader_is_total(
        mode in 0usize..4,
        a in 0usize..64,
        b in 0usize..64,
        cut in 0usize..512,
        junk in prop::collection::vec(0usize..64, 0..120),
    ) {
        let line = reader_input(mode, a, b, cut, &junk);
        match CellRecord::from_csv_line(&line) {
            Ok(record) => {
                prop_assert_eq!(record.labels.len(), 9, "{}", line);
                prop_assert!(record.metrics.len() >= 11 && (record.metrics.len() - 11) % 3 == 0);
            }
            Err(message) => prop_assert!(
                message.contains("CSV columns")
                    || COLUMNS.iter().any(|(name, _)| message.contains(name)),
                "error names no column: {} (line {})",
                message,
                line
            ),
        }
    }
}

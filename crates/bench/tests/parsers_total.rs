//! The hand-written parsers are total: every input gives `Ok` or `Err`,
//! never a panic or an abort.
//!
//! * `Baseline::from_json` reads the committed golden baselines. It is fed
//!   arbitrary bytes (lossy UTF-8), every truncation of both committed
//!   files, and random mutations of them: single-byte substitutions with
//!   JSON punctuation, a member value replaced by a 400-digit number, by
//!   `1e999999` or by 65-deep nesting, duplicate keys, and splices of the
//!   two files.
//! * `drive::Frame::parse` reads a worker's stdout. Every frame it
//!   accepts must survive a render/parse round trip unchanged.
//! * `cli::Args::parse` reads `scenario_sweep`'s and `sweep_drive`'s
//!   command lines: arbitrary argv mixing their flag names, plausible and
//!   degenerate values and arbitrary strings. Every argv that parses goes
//!   on through `cli::grid_from` and `cli::runnable_grid`.

use arsf_bench::cli::{self, Args, Cli, SCENARIO_SWEEP, SWEEP_DRIVE};
use arsf_bench::drive::Frame;
use arsf_core::sweep::store::Baseline;
use proptest::prelude::*;

const BASELINES: [&str; 2] = [
    include_str!("../../../baselines/3923b1688ebe2b0c.json"),
    include_str!("../../../baselines/3d08bd0680471f85.json"),
];

/// Bytes a single-byte substitution writes.
const SUBSTITUTES: &[u8] = b"\"{}[],:-e9\\";

/// Inserted by the duplicate-key mutation right after an opening brace.
const DUPLICATE_MEMBERS: [&str; 4] = [
    "\"format\":\"arsf-baseline-v1\",",
    "\"rows\":[],",
    "\"cell\":7,",
    "\"mean_width\":1,",
];

fn parse_baseline(src: &str) {
    // Only the absence of a panic matters; the verdict itself is free.
    let _ = Baseline::from_json(src);
}

/// The byte offset `at` pulled back to a char boundary of `s`.
fn boundary(s: &str, at: usize) -> usize {
    let mut at = at % (s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// The byte ranges of the numbers that are object member values.
fn number_values(src: &str) -> Vec<(usize, usize)> {
    let is_number = |b: u8| b.is_ascii_digit() || b"+-.eE".contains(&b);
    src.match_indices("\":")
        .map(|(i, _)| i + 2)
        .filter(|&start| src.as_bytes().get(start).is_some_and(|&b| is_number(b)))
        .map(|start| {
            let len = src.as_bytes()[start..]
                .iter()
                .take_while(|&&b| is_number(b))
                .count();
            (start, start + len)
        })
        .collect()
}

/// One mutation of a committed baseline, chosen by `op`; `a`, `b` and `c`
/// pick positions and replacement text.
fn mutate(file: usize, op: usize, a: usize, b: usize, c: usize) -> String {
    let src = BASELINES[file];
    let numbers = number_values(src);
    let (start, end) = numbers[a % numbers.len()];
    let replace_number = |with: &str| format!("{}{with}{}", &src[..start], &src[end..]);
    match op {
        0 => {
            let mut bytes = src.as_bytes().to_vec();
            bytes[a % src.len()] = SUBSTITUTES[c % SUBSTITUTES.len()];
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => replace_number(&"9".repeat(400)),
        2 => replace_number(["1e999999", "-1e999999", "1e-999999"][c % 3]),
        3 => {
            let braces: Vec<usize> = src.match_indices('{').map(|(i, _)| i + 1).collect();
            let at = braces[a % braces.len()];
            let member = DUPLICATE_MEMBERS[c % DUPLICATE_MEMBERS.len()];
            format!("{}{member}{}", &src[..at], &src[at..])
        }
        4 => replace_number(&if c.is_multiple_of(2) {
            format!("{}{}", "[".repeat(65), "]".repeat(65))
        } else {
            format!("{}1{}", "{\"k\":".repeat(65), "}".repeat(65))
        }),
        _ => {
            let other = BASELINES[1 - file];
            format!(
                "{}{}",
                &src[..boundary(src, a)],
                &other[boundary(other, b)..]
            )
        }
    }
}

/// A line of one frame kind (or a stray word) followed by tokens drawn
/// mostly from that kind's vocabulary, the rest random chars, so that
/// every kind parses now and then.
fn frame_line() -> impl Strategy<Value = String> {
    const HEADS: [&str; 4] = ["shard arsf-sweep-stream-v1", "row", "end", "rows=1"];
    const VOCABULARY: [[&str; 6]; 4] = [
        [
            "grid=3923b1688ebe2b0c",
            "grid=",
            "cells=0..8",
            "cells= 3 ..1",
            "cells=9",
            "arsf-sweep-stream-v1",
        ],
        [
            "7",
            "+3",
            "18446744073709551615",
            "-1",
            "0,marzullo,\"a b\",",
            "",
        ],
        [
            "rows=5",
            "rows=+0",
            "rows=-1",
            "checksum=00ff",
            "checksum=",
            "end",
        ],
        ["shard", "row", "end", "grid=0", "cells=0..1", "checksum=0"],
    ];
    let token = (0usize..8, 0u32..0x11_0000);
    (0usize..4, prop::collection::vec(token, 0..6)).prop_map(|(kind, tokens)| {
        let mut line = HEADS[kind].to_string();
        for (i, c) in tokens {
            line.push(' ');
            match VOCABULARY[kind].get(i) {
                Some(t) => line.push_str(t),
                None => line.extend(char::from_u32(c)),
            }
        }
        line
    })
}

const TABLES: [Cli; 2] = [SCENARIO_SWEEP, SWEEP_DRIVE];

/// Flag values: well-formed, degenerate and out-of-range ones. Each list
/// is at most four entries long, so no grid that parses gets huge.
const FLAG_VALUES: [&str; 40] = [
    "marzullo,brooks-iyengar",
    "historical:3.5:0.1,hull",
    "historical:-1:0",
    "inverse-variance,midpoint-median,intersection",
    "off,immediate,windowed:10:3",
    "windowed:0:0",
    "windowed:3:9",
    "ascending,descending,random",
    "ascending,,",
    "1,2,3",
    "18446744073709551615",
    "-1",
    "0",
    "2",
    "nan",
    "inf",
    "1e309",
    "landshark",
    "widths:5,11,17",
    "widths:",
    "widths:0,-2",
    "0:bias:3:0.5",
    "9:silent:1",
    "0:stuck:nan:2",
    "phantom-optimal",
    "greedy-high",
    "3:0.01",
    "0:0",
    "0.5:2",
    "open-loop-48",
    "table2-closed-loop",
    "record",
    "check",
    "0..4",
    "5..2",
    "0..0,0..48",
    "detect-vacuous,guarantee-unbounded",
    "max_width=0.1:0.2",
    "1:2:3",
    "-",
];

/// One argv item, chosen by `kind`: mostly a flag of either table
/// followed by a flag value or an arbitrary string, sometimes a lone
/// flag, an arbitrary string, or an arbitrary string after `--`.
fn argv_item(kind: usize, flag: usize, value: usize, chars: &[u32]) -> Vec<String> {
    let flags: Vec<&str> = TABLES
        .iter()
        .flat_map(|cli| cli.flags.iter().copied().flatten())
        .map(|flag| flag.name)
        .collect();
    let flag = flags[flag % flags.len()].to_string();
    let arbitrary = || chars.iter().filter_map(|&c| char::from_u32(c));
    match kind {
        0..=3 => vec![flag, FLAG_VALUES[value % FLAG_VALUES.len()].to_string()],
        4 => vec![flag, arbitrary().collect()],
        5 => vec![flag],
        6 => vec![arbitrary().collect()],
        _ => vec!["--".chars().chain(arbitrary()).collect()],
    }
}

/// Characters mostly from the flag-value alphabet, sometimes any
/// Unicode scalar value.
fn argv_chars() -> impl Strategy<Value = Vec<u32>> {
    const ALPHABET: &[u8] = b"0123456789.,:-=e ahinrstw";
    let char = (0usize..ALPHABET.len() + 1, 0u32..0x11_0000)
        .prop_map(|(i, c)| ALPHABET.get(i).map_or(c, |&b| u32::from(b)));
    prop::collection::vec(char, 0..8)
}

#[test]
fn every_truncation_of_the_committed_baselines_parses_or_errs() {
    for src in BASELINES {
        for end in (0..=src.len()).filter(|&i| src.is_char_boundary(i)) {
            parse_baseline(&src[..end]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn baseline_parser_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        json_ish in prop::collection::vec(0usize..SUBSTITUTES.len() + 2, 0..256),
    ) {
        parse_baseline(&String::from_utf8_lossy(&bytes));
        let alphabet: Vec<u8> = SUBSTITUTES.iter().copied().chain(*b"1 ").collect();
        let text: Vec<u8> = json_ish.iter().map(|&i| alphabet[i]).collect();
        parse_baseline(&String::from_utf8_lossy(&text));
    }

    #[test]
    fn baseline_parser_is_total_on_mutated_baselines(
        file in 0usize..2,
        op in 0usize..6,
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
        c in 0usize..64,
    ) {
        parse_baseline(&mutate(file, op, a, b, c));
    }

    #[test]
    fn grid_command_lines_parse_or_err(
        table in 0usize..TABLES.len(),
        items in prop::collection::vec((0usize..8, 0usize..1 << 10, 0usize..1 << 10, argv_chars()), 0..6),
    ) {
        let argv: Vec<String> = items
            .iter()
            .flat_map(|(kind, flag, value, chars)| argv_item(*kind, *flag, *value, chars))
            .collect();
        if let Ok(args) = Args::parse(&TABLES[table], argv) {
            // Only the absence of a panic matters; the verdicts are free.
            let _ = cli::grid_from(&args);
            let _ = cli::runnable_grid(&args);
        }
    }

    #[test]
    fn accepted_frames_survive_a_render_round_trip(line in frame_line()) {
        if let Ok(frame) = Frame::parse(&line) {
            prop_assert_eq!(Frame::parse(&frame.render()), Ok(frame));
        }
    }
}

//! Contract test for the golden tier's citations.
//!
//! `scripts/check_results.sh` pins every experiment binary's output in
//! `results/`, but EXPERIMENTS.md quotes those outputs by hand, so a
//! re-pinned file can leave its row quoting numbers no run prints any
//! more. This test reads every table of EXPERIMENTS.md that has a
//! `Reproduction` or `Measured` column and checks each number in that
//! column against the `results/` files the row names (as `name` in
//! backticks, or as `results/name.txt`).
//!
//! A number in square brackets is not checked: a swept input or a seed,
//! a value worked out from the output by hand, or a figure from outside
//! `results/` (the bracket says which). A row that quotes unbracketed
//! numbers must name at least one results file.

use std::collections::HashSet;
use std::path::Path;

/// The numbers in `text`: runs of digits, with at most one decimal
/// point between digits.
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut k = 0;
    while k < chars.len() {
        if !chars[k].is_ascii_digit() {
            k += 1;
            continue;
        }
        let start = k;
        let mut seen_point = false;
        while k < chars.len() {
            let c = chars[k];
            let point =
                c == '.' && !seen_point && chars.get(k + 1).is_some_and(char::is_ascii_digit);
            if point {
                seen_point = true;
            } else if !c.is_ascii_digit() {
                break;
            }
            k += 1;
        }
        out.push(chars[start..k].iter().collect());
    }
    out
}

/// `text` with every `open`…`close` span removed.
fn without(text: &str, open: char, close: char) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in text.chars() {
        if c == open && (open != close || depth == 0) {
            depth += 1;
        } else if c == close && depth > 0 {
            depth -= 1;
        } else if depth == 0 {
            out.push(c);
        }
    }
    out
}

/// The results files `row` names, as (name, contents).
fn named_files(row: &str, root: &Path) -> Vec<(String, String)> {
    let mut names: Vec<String> = Vec::new();
    for (k, span) in row.split('`').enumerate() {
        if k % 2 == 1 {
            let name = span
                .strip_prefix("results/")
                .and_then(|s| s.strip_suffix(".txt"))
                .unwrap_or(span);
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names
        .into_iter()
        .filter_map(|name| {
            let path = root.join("results").join(format!("{name}.txt"));
            std::fs::read_to_string(path).ok().map(|text| (name, text))
        })
        .collect()
}

/// The cells of a Markdown table row.
fn cells(row: &str) -> Vec<&str> {
    let inner = row.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

/// One problem per offending row of `doc`, checked against the files
/// under `root`.
fn problems(doc: &str, root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut column: Option<usize> = None;
    let mut in_table = false;
    for (n, line) in doc.lines().enumerate() {
        if !line.starts_with('|') {
            in_table = false;
            column = None;
            continue;
        }
        if !in_table {
            // A header row: find the column that quotes the results.
            in_table = true;
            column = cells(line)
                .iter()
                .position(|c| c.starts_with("Reproduction") || c.starts_with("Measured"));
            continue;
        }
        let Some(col) = column else { continue };
        let row = cells(line);
        let Some(cell) = row.get(col) else { continue };
        if cell.starts_with("---") {
            continue;
        }
        let quoted = numbers(&without(&without(cell, '`', '`'), '[', ']'));
        if quoted.is_empty() {
            continue;
        }
        let files = named_files(line, root);
        if files.is_empty() {
            out.push(format!(
                "EXPERIMENTS.md:{}: quotes {quoted:?} but names no results file",
                n + 1
            ));
            continue;
        }
        let printed: HashSet<String> = files.iter().flat_map(|(_, t)| numbers(t)).collect();
        let missing: Vec<&String> = quoted.iter().filter(|q| !printed.contains(*q)).collect();
        if !missing.is_empty() {
            let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
            out.push(format!(
                "EXPERIMENTS.md:{}: {missing:?} not in results/{{{}}}.txt",
                n + 1,
                names.join(",")
            ));
        }
    }
    out
}

#[test]
fn every_quoted_number_is_in_its_results_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let found = problems(&doc, root);
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn checker_finds_a_stale_number_and_skips_brackets() {
    let root = std::env::temp_dir().join(format!("experiments_cited_{}", std::process::id()));
    std::fs::create_dir_all(root.join("results")).unwrap();
    std::fs::write(root.join("results/demo.txt"), "goodput 76.1 kb/s at d=40\n").unwrap();
    let doc = "\
| Artifact | Paper | Reproduction | Verdict |
|---|---|---|---|
| ok | 75 | 76.1 kb/s [d = 40 ms] (`demo`) | ✓ |
| stale | 75 | 76.2 kb/s (`demo`) | ✓ |
| unnamed | 75 | 76.1 kb/s | ✓ |
| bracketed | 75 | [8 seeds outside results/: 98.8 %] | ✓ |
";
    let found = problems(doc, &root);
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(found.len(), 2, "{found:#?}");
    assert!(found[0].contains(":4:") && found[0].contains("76.2"));
    assert!(found[1].contains(":5:") && found[1].contains("names no results file"));
    assert_eq!(
        numbers("1.5-15× at 0→100 ms, v0.43."),
        ["1.5", "15", "0", "100", "0.43"]
    );
}

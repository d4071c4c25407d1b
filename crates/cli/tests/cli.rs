//! Integration tests driving the compiled `hypart` binary end-to-end.

use std::path::PathBuf;
use std::process::Command;

fn hypart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hypart"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hypart_bin_{tag}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = hypart().output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn help_exits_zero() {
    let out = hypart().arg("--help").output().expect("run");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn unknown_subcommand_is_an_error() {
    let out = hypart().arg("frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn full_pipeline_gen_stats_partition_eval() {
    let dir = temp_dir("pipeline");
    let hgr = dir.join("c.hgr");
    let part = dir.join("c.part");

    let out = hypart()
        .args(["gen", "mcnc300", "--seed", "7", "--out"])
        .arg(&hgr)
        .output()
        .expect("gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = hypart().arg("stats").arg(&hgr).output().expect("stats");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("|V|=300"));

    let out = hypart()
        .arg("partition")
        .arg(&hgr)
        .args([
            "--engine", "ml-lifo", "--tol", "0.1", "--starts", "2", "--out",
        ])
        .arg(&part)
        .output()
        .expect("partition");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(report.contains("cut"), "{report}");
    assert!(part.exists());

    let out = hypart()
        .arg("eval")
        .arg(&hgr)
        .arg(&part)
        .args(["--tol", "0.1"])
        .output()
        .expect("eval");
    assert!(out.status.success());
    let eval = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(eval.contains("satisfied: true"), "{eval}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kway_partition_writes_k_part_ids() {
    let dir = temp_dir("kway");
    let hgr = dir.join("k.hgr");
    hypart()
        .args(["gen", "mcnc200", "--seed", "5", "--out"])
        .arg(&hgr)
        .output()
        .expect("gen");
    let out = hypart()
        .arg("partition")
        .arg(&hgr)
        .args(["--engine", "ml-lifo", "--k", "5", "--tol", "0.3"])
        .output()
        .expect("partition");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let solution = std::fs::read_to_string(dir.join("k.part")).expect("solution file");
    let max_part: usize = solution
        .lines()
        .map(|l| l.trim().parse::<usize>().expect("part id"))
        .max()
        .expect("non-empty");
    assert_eq!(max_part, 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// Recursive bisection keeps a netD file's pads on their sides at
/// `--k 4`: every pad fixed on side s is written in part s.
#[test]
fn kway_partition_keeps_netd_pads_in_their_parts() {
    use hypart_hypergraph::io::netd;
    let dir = temp_dir("kway_pads");
    let net = dir.join("pads.net");
    let h = hypart_benchgen::with_pad_ring(&hypart_benchgen::mcnc_like(400, 3), 20, 1);
    netd::write_path(&h, &net).expect("write netD");
    let out = hypart()
        .arg("partition")
        .arg(&net)
        .args(["--engine", "ml-lifo", "--k", "4"])
        .output()
        .expect("partition");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let solution = std::fs::read_to_string(dir.join("pads.part")).expect("solution file");
    let parts: Vec<usize> = solution
        .lines()
        .map(|l| l.trim().parse().expect("part id"))
        .collect();
    let read = netd::read_path(&net).expect("read netD");
    assert_eq!(parts.len(), read.num_vertices());
    assert_eq!(read.num_fixed(), 20);
    for v in read.vertices() {
        if let Some(side) = read.fixed_part(v) {
            assert_eq!(parts[v.index()], side.index(), "pad {v:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_input_file_is_a_runtime_error_exit_4() {
    let out = hypart()
        .args(["stats", "/definitely/not/here.hgr"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("here.hgr"));
}

#[test]
fn corrupt_input_is_a_parse_error_exit_3_with_one_line_diagnostic() {
    let dir = temp_dir("corrupt");
    let hgr = dir.join("bad.hgr");
    // Header promises 3 nets; the file holds only one.
    std::fs::write(&hgr, "3 4\n1 2\n").expect("write");
    let out = hypart().arg("stats").arg(&hgr).output().expect("run");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(stderr.lines().count(), 1, "one-line diagnostic: {stderr}");
    assert!(stderr.contains("promised 3 nets"), "{stderr}");
    assert!(stderr.contains("line"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_corpus_files_all_exit_3() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corrupt");
    let mut checked = 0;
    for entry in std::fs::read_dir(&corpus).expect("corpus dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("hgr") {
            continue;
        }
        let out = hypart().arg("stats").arg(&path).output().expect("run");
        assert_eq!(
            out.status.code(),
            Some(3),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        checked += 1;
    }
    assert!(checked >= 5, "corpus should hold several .hgr files");
}

#[test]
fn audit_flag_is_accepted_and_clean_on_a_real_run() {
    let dir = temp_dir("audit");
    let hgr = dir.join("a.hgr");
    hypart()
        .args(["gen", "mcnc200", "--seed", "5", "--out"])
        .arg(&hgr)
        .output()
        .expect("gen");
    let out = hypart()
        .arg("partition")
        .arg(&hgr)
        .args([
            "--engine",
            "hmetis",
            "--starts",
            "4",
            "--audit",
            "checkpoints",
        ])
        .output()
        .expect("partition");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = hypart()
        .arg("partition")
        .arg(&hgr)
        .args(["--audit", "sometimes"])
        .output()
        .expect("partition");
    assert_eq!(
        out.status.code(),
        Some(2),
        "bad audit level is a usage error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `hypart` with the words of `line` in `dir`.
fn hypart_in(dir: &std::path::Path, line: &str) -> std::process::Output {
    hypart()
        .current_dir(dir)
        .args(line.split_whitespace())
        .output()
        .expect("run")
}

/// A flag the experiment does not take, a flag without its value, a
/// value that is not a number and an unknown experiment are usage
/// errors: exit 2 with the usage text, before anything runs or is
/// written.
#[test]
fn experiment_usage_errors_exit_2_before_running() {
    let dir = temp_dir("experiment_usage");
    let mut cases = vec![
        (
            "experiment table1 --scale 0.01 --junk 1",
            "unknown flag `--junk`",
        ),
        ("experiment table4 --tol 0.1", "unknown flag `--tol`"),
        ("experiment table4 --reps 2", "unknown flag `--reps`"),
        (
            "experiment table1 --instances 1",
            "unknown flag `--instances`",
        ),
        ("experiment table5 --trials", "--trials takes a value"),
        ("experiment table1 --seed", "--seed takes a value"),
        (
            "experiment table1 --trials 2.5",
            "--trials takes a non-negative integer",
        ),
        (
            "experiment table4 --instances x",
            "--instances takes a non-negative integer",
        ),
        (
            "experiment table1 --seed -1",
            "--seed takes a non-negative integer",
        ),
        ("experiment table1 --scale x", "--scale takes a number"),
        (
            "experiment table1 --trials 0",
            "--trials must be at least 1",
        ),
        ("experiment table45", "unknown experiment `table45`"),
        ("experiment", "missing <name>"),
    ];
    // Valid tiny-run flags first: the typo alone must stop the run.
    let typos: Vec<String> = hypart_bench::EXPERIMENTS
        .iter()
        .map(|name| format!("experiment {name} --scale 0.01 --trials 1 --trial 50"))
        .collect();
    cases.extend(
        typos
            .iter()
            .map(|line| (line.as_str(), "unknown flag `--trial`")),
    );
    for (line, error) in cases {
        let out = hypart_in(&dir, line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains(error), "{line}: {stderr}");
        assert!(stderr.contains("USAGE"), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line}: ran anyway");
        assert!(!dir.join("results").exists(), "{line}: wrote results/");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_that_cannot_make_results_exits_4() {
    let dir = temp_dir("experiment_results_file");
    std::fs::write(dir.join("results"), "a file, not a directory").expect("write");
    let out = hypart_in(&dir, "experiment table2 --scale 0.01 --trials 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("results"), "{stderr}");
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every experiment prints its artifact and writes it under `results/`
/// in the current directory.
#[test]
fn every_experiment_writes_its_result() {
    let dir = temp_dir("experiment_all");
    for name in hypart_bench::EXPERIMENTS {
        let instances = if matches!(name, "table4" | "table5") {
            " --instances 1"
        } else {
            ""
        };
        let line = format!("experiment {name} --scale 0.01 --trials 1 --seed 3{instances}");
        let out = hypart_in(&dir, &line);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{line}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let written = stdout.lines().last().expect("output");
        let path = written
            .rsplit_once(" to ")
            .and_then(|(_, path)| path.strip_suffix(')'))
            .unwrap_or_else(|| panic!("{line}: {written}"));
        assert!(path.starts_with("results/"), "{line}: {written}");
        let saved = std::fs::read_to_string(dir.join(path)).expect("result file");
        assert!(!saved.is_empty(), "{line}: empty {path}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `trace` recovers a `partition --trace` file's counters offline; an
/// unreadable file exits 4 and a line that is not a run event exits 3.
#[test]
fn trace_summarizes_partition_traces() {
    let dir = temp_dir("trace");
    assert!(hypart_in(&dir, "gen mcnc200 --seed 5 --out t.hgr")
        .status
        .success());
    let out = hypart_in(
        &dir,
        "partition t.hgr --engine ml-clip --starts 2 --trace t.jsonl",
    );
    assert!(out.status.success());
    let live = String::from_utf8_lossy(&out.stdout).to_string();

    let out = hypart_in(&dir, "trace t.jsonl t.jsonl");
    assert_eq!(out.status.code(), Some(0));
    let summary = String::from_utf8_lossy(&out.stdout).to_string();
    let events = std::fs::read_to_string(dir.join("t.jsonl"))
        .expect("trace file")
        .lines()
        .count();
    assert_eq!(
        summary
            .matches(&format!("t.jsonl: {events} events\n"))
            .count(),
        2,
        "{summary}"
    );
    for counter in [
        "pass_end",
        "corked passes",
        "moves / rollbacks",
        "final cut",
    ] {
        let line = |text: &str| {
            text.lines()
                .find(|l| l.trim_start().starts_with(counter))
                .map(str::to_string)
        };
        assert!(line(&summary).is_some(), "{counter}: {summary}");
        assert_eq!(line(&summary), line(&live), "{counter}");
    }

    let out = hypart_in(&dir, "trace missing.jsonl");
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing.jsonl"));
    std::fs::write(dir.join("bad.jsonl"), "{\"ev\":\"warp\"}\n").expect("write");
    let out = hypart_in(&dir, "trace t.jsonl bad.jsonl");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad.jsonl:1:"));
    let out = hypart_in(&dir, "trace");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// The n-level and lane-parallel engines are library-only: the flags
/// that selected them are usage errors.
#[test]
fn removed_engine_options_exit_2() {
    for line in [
        "partition x.hgr --engine nlevel",
        "partition x.hgr --threads 2",
        "partition x.hgr --deterministic false",
        "eval ibm01 --engine ml",
    ] {
        let out = hypart()
            .args(line.split_whitespace())
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains("USAGE"), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line}: ran anyway");
    }
}

/// Above `--k 2` the CLI runs one start of ML recursive bisection, so a
/// flat or hMetis-style engine there, or more than one start there, is a
/// usage error naming the combination, not a run that reports what did
/// not run. `kway` is no engine.
#[test]
fn engine_k_and_starts_that_would_not_run_exit_2() {
    for (line, error) in [
        (
            "partition x.hgr --engine lifo --k 4",
            "--engine lifo with --k 4",
        ),
        (
            "partition x.hgr --engine clip --k 4 --starts 4",
            "--engine clip with --k 4",
        ),
        (
            "partition x.hgr --engine hmetis --k 8",
            "--engine hmetis with --k 8",
        ),
        (
            "partition x.hgr --k 4 --starts 2",
            "--starts 2 with --engine ml-lifo --k 4",
        ),
        (
            "partition x.hgr --engine ml-clip --k 4 --starts 3",
            "--starts 3 with --engine ml-clip --k 4",
        ),
        (
            "partition x.hgr --engine kway --k 3",
            "unknown engine `kway`",
        ),
    ] {
        let out = hypart()
            .args(line.split_whitespace())
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains(error), "{line}: {stderr}");
        assert!(stderr.contains("USAGE"), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line}: ran anyway");
    }
    // What does run: ML recursive bisection at k = 4 and k = 3.
    let dir = temp_dir("engine_k_starts");
    assert!(hypart_in(&dir, "gen mcnc200 --seed 3 --out t.hgr")
        .status
        .success());
    for line in [
        "partition t.hgr --engine ml-clip --k 4 --tol 0.1",
        "partition t.hgr --engine ml-lifo --k 3 --tol 0.3",
    ] {
        let out = hypart_in(&dir, line);
        assert!(
            out.status.success(),
            "{line}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A value outside what the library accepts exits 2 with the usage text,
/// before anything runs or is written, instead of panicking.
#[test]
fn out_of_range_values_exit_2_before_writing() {
    let dir = temp_dir("out_of_range");
    assert!(hypart_in(&dir, "gen mcnc200 --seed 5 --out t.hgr")
        .status
        .success());
    assert!(hypart_in(&dir, "partition t.hgr --tol 0.1")
        .status
        .success());
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|entry| entry.expect("entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    for (line, error) in [
        ("partition t.hgr --tol 2", "--tol must be in [0, 1]"),
        ("partition t.hgr --tol -0.1", "--tol must be in [0, 1]"),
        ("partition t.hgr --tol NaN", "--tol must be in [0, 1]"),
        ("partition t.hgr --starts 0", "--starts must be at least 1"),
        ("partition t.hgr --k 70000", "--k must be in [2, 65535]"),
        ("eval t.hgr t.part --tol inf", "--tol must be in [0, 1]"),
        ("report t.hgr --tol 1.5", "--tol must be in [0, 1]"),
        ("report t.hgr --trials 0", "--trials must be at least 1"),
        (
            "gen ibm01 --scale 0 --out g.hgr",
            "--scale must be in (0, 1]",
        ),
        (
            "gen ibm01 --scale 1.5 --out g.hgr",
            "--scale must be in (0, 1]",
        ),
        ("gen mcnc5 --out g.hgr", "bad mcnc spec `mcnc5`"),
        ("experiment table1 --scale 0", "--scale must be in (0, 1]"),
        ("place t.hgr --width -5", "--width must be finite"),
        ("place t.hgr --width NaN", "--width must be finite"),
        (
            "place t.hgr --height inf --rows 4",
            "--height must be finite",
        ),
    ] {
        let out = hypart_in(&dir, line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains(error), "{line}: {stderr}");
        assert!(stderr.contains("USAGE"), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line}: ran anyway");
        assert_eq!(listing(), before, "{line}: wrote a file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

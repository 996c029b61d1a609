//! The `repro` front door's contract (DESIGN.md §17): what parses, what is
//! refused and how, that the docs' command lines and EXPERIMENTS.md's
//! artifact sections agree with the verb table, and what the process
//! prints and exits with. Only cheap invocations run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use pscp_bench::cli::{self, parse, Args, Failure, VERBS};
use pscp_bench::experiments_md;
use pscp_bench::scale::ScaleArgs;
use pscp_bench::watch::WatchConfig;
use pscp_core::experiments;
use pscp_service::select::Protocol;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

fn parsed(line: &str) -> (cli::Ctx, Vec<Args>) {
    parse(&argv(line)).unwrap_or_else(|f| panic!("`repro {line}` was refused: {}", f.message))
}

fn names(line: &str) -> Vec<String> {
    parsed(line).1.into_iter().map(|a| a.name).collect()
}

fn refused(line: &str) -> Failure {
    parse(&argv(line)).err().unwrap_or_else(|| panic!("`repro {line}` parsed"))
}

// ------------------------------------------------------------- (i) parser

#[test]
fn a_flag_without_its_value_is_an_error_naming_the_flag() {
    for (line, flag) in [
        ("scale --tier", "--tier"),
        ("chaos --sessions", "--sessions"),
        ("incidents --loss-scale", "--loss-scale"),
        ("watch --batches", "--batches"),
        ("scale --tier --shards 4", "--tier"),
        ("fig7 --scale", "--scale"),
        ("--seed", "--seed"),
    ] {
        let failure = refused(line);
        assert_eq!(failure.message, format!("{flag} needs a value"), "`repro {line}`");
    }
    // The usage under the error is the offending verb's own line.
    assert!(refused("scale --tier").usage.starts_with("repro scale [--tier 10k|100k|1m|all]"));
}

#[test]
fn no_token_is_silently_dropped() {
    assert!(refused("trace nonsense").message.contains("unknown experiment 'nonsense'"));
    assert!(refused("fig7 nonsense").message.contains("unknown experiment 'nonsense'"));
    assert!(refused("list chaos nonsense").message.contains("'nonsense'"));
    assert!(refused("--sessions 4 chaos").message.contains("'--sessions'"));
    assert_eq!(refused("chaos --tier 10k").message, "unknown chaos argument '--tier'");
    assert_eq!(refused("fig7 --once").message, "unknown fig7 argument '--once'");
    // An extra target beside a traced verb is one more thing to run.
    assert_eq!(names("slo fig7"), ["slo", "fig7"]);
    assert_eq!(refused("").message, "no experiments given");
}

#[test]
fn contradictory_and_repeated_flags_are_refused() {
    let failure = refused("watch --once --batches 3");
    assert_eq!(failure.message, "--once and --batches contradict each other");
    assert!(failure.usage.starts_with("repro watch [--once|--batches N]"));
    assert_eq!(refused("chaos --sessions 4 --sessions 5").message, "--sessions given twice");
}

#[test]
fn a_bad_value_fails_before_anything_runs() {
    for (line, flag) in [
        ("fig7 scale --shards 3", "--shards"),
        ("chaos --sessions 0", "--sessions"),
        ("incidents --loss-scale -1", "--loss-scale"),
        ("incidents --loss-scale nan", "--loss-scale"),
        ("scale --tier 5k", "--tier"),
        ("scale --threads many", "--threads"),
        ("chaos --transports rtmp,quic", "--transports"),
        ("watch --batch-sessions x", "--batch-sessions"),
        ("watch --batches 0", "--batches"),
        ("watch --batch-sessions 0", "--batch-sessions"),
        ("fig7 --seed junk", "--seed"),
    ] {
        let message = refused(line).message;
        assert!(message.starts_with(&format!("bad {flag} value '")), "`repro {line}`: {message}");
    }
    // Where one verb takes a list and another a single value, each says so.
    assert!(refused("incidents --tier all").message.contains("--tier takes one"));
    assert!(refused("watch --transport rtmp,hls").message.contains("--transport takes one"));
    assert!(refused("--scale huge fig7").message.contains("unknown scale 'huge'"));
}

#[test]
fn operands_are_required_optional_or_refused() {
    assert_eq!(refused("bench-diff").message, "bench-diff needs <old>");
    assert_eq!(refused("bench-diff a.json").message, "bench-diff needs <new>");
    assert_eq!(refused("explain").message, "explain needs <unit>");
    assert_eq!(refused("explain").usage, "repro explain <unit>");
    let (_, args) = parsed("bench-diff BENCH_baseline.json BENCH_components.json");
    assert_eq!(args[0].operand(0), Some("BENCH_baseline.json"));
    assert_eq!(args[0].operand(1), Some("BENCH_components.json"));
    assert_eq!(parsed("explain session/3").1[0].operand(0), Some("session/3"));
    // A required operand takes the next word whatever it is ...
    assert_eq!(parsed("bench-diff list all").1.len(), 1);
    // ... an optional one only a word that names nothing else.
    assert_eq!(parsed("export").1[0].operand(0), None);
    assert_eq!(parsed("export csv_out").1[0].operand(0), Some("csv_out"));
    assert_eq!(names("fig5 export fig7"), ["fig5", "export", "fig7"]);
    assert!(refused("export a b").message.contains("unknown experiment 'b'"));
}

#[test]
fn every_verb_and_figure_id_has_a_happy_path() {
    for verb in VERBS {
        let operands = verb.synopsis.split(' ').filter(|w| w.starts_with('<')).count();
        let line = format!("{}{}", verb.name, " x".repeat(operands));
        let (_, args) = parsed(&line);
        assert!(std::ptr::eq(args[0].verb, verb), "`repro {line}` ran another row");
    }
    for exp in experiments::all() {
        assert_eq!(names(exp.id), [exp.id]);
    }
}

#[test]
fn flags_fill_the_configs_they_always_filled() {
    let scale = |line| ScaleArgs::from_cli(&parsed(line).1[0], 7).unwrap();
    let cfg = scale("scale --tier 10k,1m --shards 4 --sessions 8 --threads 2");
    let tiers: Vec<&str> = cfg.tiers.iter().map(|t| t.name).collect();
    assert_eq!(
        (tiers, cfg.shards, cfg.sessions, cfg.threads, cfg.seed),
        (vec!["10k", "1m"], 4, Some(8), 2, 7)
    );
    assert_eq!(scale("scale --tier all").tiers.len(), 3);
    let defaults = ScaleArgs::default();
    let cfg = scale("scale");
    assert_eq!(
        (cfg.tiers.len(), cfg.shards, cfg.sessions, cfg.threads),
        (3, defaults.shards, None, 0)
    );

    let watch = |line| WatchConfig::from_cli(&parsed(line).1[0]).unwrap();
    let cfg = watch("watch --once --fail-on-violation --transport srt");
    assert_eq!((cfg.batches, cfg.transport), (1, Some(Protocol::Srt)));
    let cfg = watch("watch --batches 3 --batch-sessions 7 --transport auto");
    assert_eq!((cfg.batches, cfg.batch_sessions, cfg.transport), (3, 7, None));
    assert_eq!(watch("watch").batches, WatchConfig::default().batches);

    // The two whose configs live in pscp-core are checked by their rows.
    parsed("chaos --sessions 16 --transports rtmp,srt");
    parsed("incidents --tier 10k --transports hls --shards 16 --sessions 120 --loss-scale 2 --threads 1");
}

#[test]
fn invocations_keep_the_order_given_and_share_the_globals() {
    assert_eq!(names("trace metrics slo"), ["trace", "metrics", "slo"]);
    assert_eq!(names("fig5 table-usage"), ["fig5", "table-usage"]);
    let (ctx, args) = parsed("--scale medium fig3a --seed 7 chaos --sessions 16 scale --tier 10k");
    let ran: Vec<&str> = args.iter().map(|a| a.name.as_str()).collect();
    assert_eq!(ran, ["fig3a", "chaos", "scale"]);
    assert_eq!((ctx.scale(), ctx.seed, ctx.config.seed), ("medium", 7, 7));
    assert_eq!(parsed("fig7").0.scale(), "small");
}

// ------------------------------------------------- (ii)–(iv) drift gates

fn repo_file(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The arguments of every `repro` command line in `text`: after `--bin
/// repro --` or `target/release/repro`, up to a comment, redirect, pipe or
/// closing backtick.
fn command_lines(text: &str) -> Vec<String> {
    let joined = text.replace("\\\n", " ");
    let mut out = Vec::new();
    for line in joined.lines() {
        for marker in ["--bin repro -- ", "target/release/repro "] {
            if let Some((_, rest)) = line.split_once(marker) {
                let ends = [" #", " > ", " | ", "`"].iter().filter_map(|s| rest.find(s));
                out.push(rest[..ends.min().unwrap_or(rest.len())].trim().to_string());
            }
        }
    }
    out
}

/// Every `` `repro …` `` span of the prose, whitespace collapsed.
fn prose_mentions(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, piece) in text.split('`').enumerate() {
        if i % 2 == 1 && piece.starts_with("repro ") {
            out.push(piece["repro ".len()..].split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }
    out
}

#[test]
fn every_documented_command_line_parses() {
    let mut checked = 0;
    for file in ["README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"] {
        let text = repo_file(file);
        for line in command_lines(&text) {
            parsed(&line);
            checked += 1;
        }
        for mention in prose_mentions(&text) {
            // A bare `repro <verb>` names a verb; anything longer is a command line.
            if mention.contains(' ') {
                parsed(&mention);
            } else {
                let known = VERBS.iter().any(|v| v.name == mention);
                assert!(
                    known || experiments::by_id(&mention).is_some(),
                    "{file}: `repro {mention}`"
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 60, "the gate found only {checked} command lines — did a format change?");
}

#[test]
fn list_has_one_row_per_experiment_and_per_verb() {
    let list = cli::list();
    let ids: Vec<&str> = list.lines().skip(2).filter_map(|l| l.split(' ').next()).collect();
    let mut expected: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
    expected.extend(VERBS.iter().map(|v| v.name));
    assert_eq!(ids, expected);
    for verb in VERBS {
        assert!(
            !verb.about.is_empty() && !verb.section.is_empty(),
            "{} is undocumented",
            verb.name
        );
        assert!(
            cli::usage().contains(&format!("  {}\n", verb.command())),
            "{} not in --help",
            verb.name
        );
    }
}

#[test]
fn experiments_md_artifact_sections_are_the_tables() {
    let record = repo_file("EXPERIMENTS.md");
    let sections = experiments_md::schema_sections();
    let first = sections.lines().nth(1).expect("a first section heading");
    assert_eq!(first, "## Chaos artifact — `CHAOS_sweep.json`");
    let tail = &record[record.find(first).expect("EXPERIMENTS.md has the chaos section") - 1..];
    assert_eq!(tail, sections, "regenerate the tail of EXPERIMENTS.md: `repro experiments-md`");
}

/// A figure's footer names the command that regenerates it and nothing a
/// regeneration changes: it is a function of scale, seed and id only, and
/// EXPERIMENTS.md carries exactly one per experiment.
#[test]
fn experiments_md_footers_are_the_commands_only() {
    assert_eq!(
        experiments_md::footer("paper", 2016, "fig1a"),
        "*Regenerated with `repro --scale paper --seed 2016 fig1a`.*"
    );
    let record = repo_file("EXPERIMENTS.md");
    let footers: Vec<&str> = record.lines().filter(|l| l.starts_with("*Regenerated")).collect();
    let expected: Vec<String> =
        experiments::all().iter().map(|e| experiments_md::footer("paper", 2016, e.id)).collect();
    assert_eq!(
        footers, expected,
        "regenerate EXPERIMENTS.md: `repro --scale paper --seed 2016 experiments-md`"
    );
}

// ------------------------------------------------------- (v) the process

/// Runs `repro <line>` in a fresh directory (kept for the caller to look at).
fn repro_in(dir: &Path, line: &str, env: &[(&str, &str)]) -> (i32, String, String) {
    std::fs::create_dir_all(dir).expect("create scratch dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(argv(line)).current_dir(dir).envs(env.iter().copied());
    let Output { status, stdout, stderr } = cmd.output().expect("run repro");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (status.code().expect("an exit code"), text(stdout), text(stderr))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pscp-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn errors_are_two_lines_on_stderr_and_exit_2() {
    let dir = scratch("errors");
    for (line, first) in [
        ("scale --tier", "error: --tier needs a value"),
        ("chaos --sessions", "error: --sessions needs a value"),
        ("trace nonsense", "error: unknown experiment 'nonsense' — try `repro list`"),
        ("fig7 nonsense", "error: unknown experiment 'nonsense' — try `repro list`"),
        ("--scale planet fig7", "error: unknown scale 'planet' (small|medium|paper)"),
        ("watch --once --batches 3", "error: --once and --batches contradict each other"),
        ("bench-diff missing.json also-missing.json", "error: read missing.json: "),
    ] {
        let (code, stdout, stderr) = repro_in(&dir, line, &[]);
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(code, 2, "`repro {line}`");
        assert_eq!(stdout, "", "`repro {line}` printed before failing");
        assert_eq!(lines.len(), 2, "`repro {line}`: {stderr}");
        assert!(lines[0].starts_with(first), "`repro {line}`: {stderr}");
        assert!(lines[1].starts_with("usage: repro "), "`repro {line}`: {stderr}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn help_and_list_go_to_stdout_and_a_figure_renders() {
    let dir = scratch("ok");
    let (code, stdout, stderr) = repro_in(&dir, "--help", &[]);
    assert_eq!((code, stdout.as_str(), stderr.as_str()), (0, cli::usage().as_str(), ""));
    let (code, stdout, _) = repro_in(&dir, "list", &[]);
    assert_eq!((code, stdout), (0, cli::list()));
    let (code, stdout, stderr) = repro_in(&dir, "fig7", &[]);
    assert_eq!((code, stderr.as_str()), (0, ""));
    assert!(stdout.contains("== fig7: ") && stdout.contains("reproduces: Figure 7"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_unwritable_artifact_is_one_error_line_not_a_backtrace() {
    let dir = scratch("unwritable");
    std::fs::create_dir_all(dir.join("SCALE_report.json")).expect("occupy the artifact's path");
    let (code, _, stderr) =
        repro_in(&dir, "scale --tier 10k --sessions 8", &[("RUST_BACKTRACE", "1")]);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(code, 2, "{stderr}");
    assert_eq!(lines.len(), 2, "{stderr}");
    assert!(lines[0].starts_with("error: write SCALE_report.json: "), "{stderr}");
    assert!(lines[1].starts_with("usage: repro scale "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bench_diff_exits_1_on_a_regression_unless_the_gate_only_warns() {
    let dir = scratch("gate");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let artifact =
        |secs: f64| format!("{{\"results\":[{{\"name\":\"x\",\"per_iter_secs\":{secs}}}]}}");
    std::fs::write(dir.join("old.json"), artifact(1.0)).expect("write old.json");
    std::fs::write(dir.join("new.json"), artifact(2.0)).expect("write new.json");
    std::fs::write(dir.join("text.json"), "not json").expect("write text.json");
    assert_eq!(repro_in(&dir, "bench-diff old.json old.json", &[]).0, 0);
    assert_eq!(repro_in(&dir, "bench-diff old.json new.json", &[]).0, 1);
    assert_eq!(repro_in(&dir, "bench-diff old.json new.json", &[("PSCP_BENCH_GATE", "warn")]).0, 0);
    assert_eq!(
        repro_in(&dir, "bench-diff old.json new.json", &[("PSCP_BENCH_THRESHOLD", "1.5")]).0,
        0
    );
    assert_eq!(repro_in(&dir, "bench-diff text.json old.json", &[]).0, 2);
    let _ = std::fs::remove_dir_all(dir);
}

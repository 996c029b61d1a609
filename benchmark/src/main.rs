//! The repo benchmark: viewer sessions/s per core across five workloads,
//! with an outside-in per-layer budget. See `README.md` beside this
//! package for the definitions; `metrics.rs` is the contract.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's call)
//! run.sh [--seed N] [--traced] [--save DIR]                 every workload, one child each
//! run.sh --aa N                                             A/A table over N seeds
//! run.sh --quick                                            smoke size, numbers not comparable
//! run.sh --describe                                         print BENCHMARK.json
//! ```

mod metrics;
mod plan;
mod replica;
mod run;
mod spans;
mod stats;

use metrics::{Better, MetricDef, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use plan::Sizes;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 2016;
/// Window of one `--quick` run, seconds.
const QUICK_SECONDS: f64 = 0.5;

#[derive(Debug, Clone)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
    describe: bool,
    out_dir: PathBuf,
    save_dir: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        aa: None,
        describe: false,
        out_dir: PathBuf::from("benchmark/out"),
        save_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => cli.trace = true,
            "--quick" => cli.quick = true,
            "--aa" => {
                let n: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 seeds for a spread".to_string());
                }
                cli.aa = Some(n);
            }
            "--describe" => cli.describe = true,
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--save" => cli.save_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

impl Cli {
    fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        }
    }

    fn window_seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick { QUICK_SECONDS } else { RUN_SECONDS as f64 })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.describe {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match (cli.workload, cli.aa) {
        (Some(w), _) => run_one(&cli, w),
        (None, Some(n)) => run_aa(&cli, n),
        (None, None) => run_all(&cli),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process. The last line of standard output is the
/// result object the driver reads.
fn run_one(cli: &Cli, w: Workload) -> Result<bool, String> {
    let args = run::RunArgs {
        workload: w,
        seed: cli.seed,
        seconds: cli.window_seconds(),
        trace: cli.trace,
        sizes: cli.sizes(),
        out_dir: cli.out_dir.clone(),
    };
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cli.quick { " QUICK (smoke size: these numbers are not comparable)" } else { "" }
    );
    println!("info sizes {:?}", args.sizes);
    let result = run::run_workload(&args);
    let defs: &[MetricDef] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    for (key, value) in &result.info {
        println!("info {key} {value}");
    }
    for d in defs {
        let v = result.values.get(d.name).copied().unwrap_or(0.0);
        println!("metric {:<44} {:>16.6} {}", d.name, v, d.unit);
    }
    for what in &result.failures {
        println!("FAILED {what}");
    }
    println!(
        "failed_share {} ({} failed of {} attempted)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    println!(
        "{}",
        metrics::result_line(defs, &result.values, result.correct, result.attempted, result.failed)
    );
    Ok(result.correct)
}

/// What the parent keeps of one child run.
struct Child {
    ok: bool,
    values: BTreeMap<String, f64>,
    info: BTreeMap<String, String>,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in a fresh child process of this binary, echoes its
/// output and parses its result line. The child is always waited for.
fn spawn(cli: &Cli, w: Workload, seed: u64, trace: bool, echo: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--workload").arg(w.name());
    cmd.arg("--seed").arg(seed.to_string());
    cmd.arg("--seconds").arg(cli.window_seconds().to_string());
    cmd.arg("--trace").arg(if trace { "1" } else { "0" });
    cmd.arg("--out").arg(&cli.out_dir);
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    let last = text.lines().last().ok_or_else(|| format!("{}: no output", w.name()))?;
    let json = pscp_proto::json::parse(last).map_err(|e| format!("{}: {e:?}", w.name()))?;
    let mut child = Child {
        ok: out.status.success() && json.get("correct").and_then(|c| c.as_bool()) == Some(true),
        values: BTreeMap::new(),
        info: BTreeMap::new(),
        attempted: json.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0),
        failed: json.get("failed").and_then(|v| v.as_u64()).unwrap_or(0),
    };
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    for d in defs {
        let v = json.get("metrics").and_then(|m| m.get(d.name)).and_then(|m| m.get("value"));
        let v = v.and_then(|v| v.as_f64()).ok_or_else(|| format!("{}: no {}", w.name(), d.name))?;
        child.values.insert(d.name.to_string(), v);
    }
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("info ") {
            if let Some((key, value)) = rest.split_once(' ') {
                child.info.insert(key.to_string(), value.to_string());
            }
        }
    }
    Ok(child)
}

/// Every workload, each in a fresh child process; with `--traced` a
/// second, traced pass. Prints every metric by name with its unit.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut all_ok = true;
    let mut summary = String::new();
    for w in Workload::ALL {
        let plain = spawn(cli, w, cli.seed, false, true)?;
        all_ok &= plain.ok;
        let traced = if cli.trace { Some(spawn(cli, w, cli.seed, true, true)?) } else { None };
        all_ok &= traced.as_ref().is_none_or(|t| t.ok);
        let _ = writeln!(
            summary,
            "{} (seed {}, failed_share {}, {} attempted)",
            w.name(),
            cli.seed,
            plain.failed as f64 / plain.attempted.max(1) as f64,
            plain.attempted
        );
        for d in END_TO_END {
            let _ = writeln!(summary, "  {:<44} {:>16.6} {}", d.name, plain.values[d.name], d.unit);
        }
        if let Some(t) = &traced {
            if t.info.get("sim.digest") != plain.info.get("sim.digest") {
                all_ok = false;
                let _ = writeln!(summary, "  FAILED traced and untraced sim.digest differ");
            }
            for d in PER_LAYER {
                let _ = writeln!(summary, "  {:<44} {:>16.6} {}", d.name, t.values[d.name], d.unit);
            }
            // The traced child reports its own loop rate as an info line.
            let traced_rate = t.info.get("sessions_per_s").and_then(|v| v.split(' ').next());
            if let Some(rate) = traced_rate.and_then(|v| v.parse::<f64>().ok()) {
                let _ = writeln!(
                    summary,
                    "  {:<44} {:>16.6} ratio (untraced / traced pass sessions_per_s)",
                    "pass-level trace overhead",
                    plain.values["sessions_per_s"] / rate
                );
            }
        }
        if let Some(dir) = &cli.save_dir {
            save_baseline(cli, dir, w, &plain, traced.as_ref())?;
        }
    }
    print!("\n=== summary ===\n{summary}");
    if cli.quick {
        println!("QUICK smoke size: these numbers are not comparable with any baseline");
    }
    println!("{}", if all_ok { "all checks passed" } else { "SOME CHECKS FAILED" });
    Ok(all_ok)
}

/// `baseline/<workload>.json` (`<workload>.seed<N>.json` off the default
/// seed): every metric with its unit, and the facts needed to repeat it.
fn save_baseline(
    cli: &Cli,
    dir: &std::path::Path,
    w: Workload,
    plain: &Child,
    traced: Option<&Child>,
) -> Result<(), String> {
    let mut s = String::new();
    let _ = writeln!(s, "{{\n  \"workload\": \"{}\",\n  \"seed\": {},", w.name(), cli.seed);
    let _ = writeln!(s, "  \"seconds\": {},\n  \"quick\": {},", cli.window_seconds(), cli.quick);
    let _ = writeln!(s, "  \"attempted\": {},\n  \"failed\": {},", plain.attempted, plain.failed);
    s.push_str("  \"info\": {\n");
    let info: Vec<String> =
        plain.info.iter().map(|(k, v)| format!("    \"{k}\": \"{v}\"")).collect();
    s.push_str(&info.join(",\n"));
    s.push_str("\n  },\n");
    let section = |defs: &[MetricDef], values: &BTreeMap<String, f64>| {
        let rows: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    metrics::json_number(values[d.name]),
                    d.unit
                )
            })
            .collect();
        rows.join(",\n")
    };
    let _ = write!(s, "  \"end_to_end\": {{\n{}\n  }}", section(&END_TO_END, &plain.values));
    if let Some(t) = traced {
        let _ = write!(s, ",\n  \"per_layer\": {{\n{}\n  }}", section(&PER_LAYER, &t.values));
    }
    s.push_str("\n}\n");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = if cli.seed == DEFAULT_SEED {
        format!("{}.json", w.name())
    } else {
        format!("{}.seed{}.json", w.name(), cli.seed)
    };
    let path = dir.join(file);
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("saved {}", path.display());
    Ok(())
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs().max(1e-12),
        Better::Higher => (a - b) / a.abs().max(1e-12),
    }
}

/// A/A: two sets (A and B) of `n` untraced runs per workload on seeds
/// `seed .. seed+n`, alternating which set goes first, as the driver does
/// it. Per metric × workload: median, quartiles and spread of each set
/// against the bound, and how much worse B's median is than A's.
fn run_aa(cli: &Cli, n: usize) -> Result<bool, String> {
    let mut all_ok = true;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "| workload | metric | unit | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse than A | verdict |\n|---|---|---|---|---|---|---|---|---|---|"
    );
    for w in Workload::ALL {
        // Per metric, the values of set A and of set B.
        let mut sets: BTreeMap<&str, [Vec<f64>; 2]> = BTreeMap::new();
        for i in 0..n {
            let seed = cli.seed + i as u64;
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut digests = [String::new(), String::new()];
            for side in order {
                let child = spawn(cli, w, seed, false, false)?;
                all_ok &= child.ok;
                println!(
                    "{} seed {seed} set {}: {}{}",
                    w.name(),
                    ["A", "B"][side],
                    END_TO_END
                        .iter()
                        .map(|d| format!("{} {:.4}", d.name, child.values[d.name]))
                        .collect::<Vec<_>>()
                        .join(", "),
                    if child.ok { "" } else { " FAILED" }
                );
                digests[side] = format!("{:?}", child.info.get("sim.digest"));
                for d in &END_TO_END {
                    sets.entry(d.name).or_default()[side].push(child.values[d.name]);
                }
            }
            if digests[0] != digests[1] {
                all_ok = false;
                println!("FAILED {} seed {seed}: sim.digest differs between A and B", w.name());
            }
        }
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let [a, b] = &sets[d.name];
            let qa = stats::quartiles(a).expect("n >= 2");
            let qb = stats::quartiles(b).expect("n >= 2");
            let (sa, sb) = (stats::spread(a).unwrap_or(0.0), stats::spread(b).unwrap_or(0.0));
            let drift = worse_by(d.better, qa[1], qb[1]);
            // `setup_s` is held to the median comparison only, as the
            // driver holds it.
            let spread_ok = d.name == "setup_s" || (sa <= bound && sb <= bound);
            let verdict = match (spread_ok && drift <= bound, sa.max(sb) <= bound / 3.0) {
                (false, _) => "OUTSIDE BOUND",
                (true, true) => "ok",
                (true, false) => "ok (spread above bound/3)",
            };
            all_ok &= spread_ok && drift <= bound;
            let _ = writeln!(
                table,
                "| {} | {} | {} | {:.2} | {:.4} [{:.4}, {:.4}] | {:.1} % | {:.4} [{:.4}, {:.4}] | {:.1} % | {:+.1} % | {} |",
                w.name(), d.name, d.unit, bound, qa[1], qa[0], qa[2], 100.0 * sa,
                qb[1], qb[0], qb[2], 100.0 * sb, 100.0 * drift, verdict
            );
        }
    }
    println!(
        "\nA/A over seeds {}..{} ({n} runs per set)\n\n{table}",
        cli.seed,
        cli.seed + n as u64
    );
    println!("{}", if all_ok { "A/A within bounds" } else { "A/A OUTSIDE BOUNDS OR FAILED" });
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_call() {
        let c =
            cli(&["--workload", "fanout_hot", "--seed", "7", "--seconds", "12", "--trace", "1"])
                .expect("the driver's arguments parse");
        assert_eq!(c.workload, Some(Workload::FanoutHot));
        assert_eq!((c.seed, c.seconds, c.trace), (7, Some(12.0), true));
        assert!(cli(&["--traced"]).expect("alias").trace);
        assert_eq!(cli(&[]).expect("defaults").seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--aa", "1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 11.0) < 0.0);
    }
}

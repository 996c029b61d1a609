//! `repro`'s front door (DESIGN.md §17): one table, one parser, one error
//! path.
//!
//! A command line is split into invocations — a token naming a row of
//! [`VERBS`] or a figure id starts one, the flags and operands after it
//! attach to it — and **every** invocation is checked against its row
//! before anything runs ([`parse`]): a verb's [`Verb::synopsis`] is both
//! the usage text and the spec its flags and operands are read from, so
//! the two cannot disagree. Then the invocations run in order over one
//! [`Ctx`]. Errors are `Err(String)` up to [`main`], which prints `error:
//! <message>` plus the offending verb's usage line and returns exit code
//! 2; a gate that says no (`bench-diff`, `watch --fail-on-violation`)
//! returns [`Exit::Failed`] → 1.

mod parse;

use pscp_core::{experiments, Lab, LabConfig};
use pscp_service::select::Protocol;

use crate::scale::{tiers_by_names, ScaleTier};
pub use crate::verbs::{FIGURE, VERBS};
pub use parse::parse;

/// One row of the verb table: everything `repro` knows about a verb.
pub struct Verb {
    /// The token that starts an invocation.
    pub name: &'static str,
    /// `repro list`'s middle column: the DESIGN.md section or the plane.
    pub section: &'static str,
    /// One line: what it does.
    pub about: &'static str,
    /// Flags and operands, as the usage line shows them **and** as the
    /// parser accepts them: `[--switch]`, `[--flag VALUE]`,
    /// `[--this|--that N]` (at most one of the two), `<required>`,
    /// `[optional]`.
    pub synopsis: &'static str,
    /// Files it writes into the working directory.
    pub artifacts: &'static [&'static str],
    /// Its artifact's section of EXPERIMENTS.md, if it has one.
    pub schema: Option<Schema>,
    /// Reads every flag value through its typed getter, so a bad value
    /// fails before anything runs.
    pub check: fn(&Args) -> Result<(), String>,
    /// Runs it.
    pub run: fn(&mut Ctx, &Args) -> Result<Exit, String>,
}

impl Verb {
    /// Takes nothing, writes nothing, does nothing: a row names what it adds.
    pub const PLAIN: Verb = Verb {
        name: "",
        section: "",
        about: "",
        synopsis: "",
        artifacts: &[],
        schema: None,
        check: |_| Ok(()),
        run: |_, _| Ok(Exit::Ok),
    };

    /// `repro <name> <synopsis>`: the command line a usage message shows.
    pub fn command(&self) -> String {
        format!("repro {} {}", self.name, self.synopsis).trim_end().to_string()
    }
}

/// An artifact's section of EXPERIMENTS.md: `## {title} — {artifact}`, the
/// verb's usage, then `body`.
pub struct Schema {
    /// Section title, e.g. `"Chaos artifact"`.
    pub title: &'static str,
    /// The text that follows the usage.
    pub body: &'static str,
}

/// How a verb that ran ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Done: exit code 0.
    Ok,
    /// It ran, and its gate said no: exit code 1.
    Failed,
}

/// An error and the usage line printed under it: exit code 2.
#[derive(Debug)]
pub struct Failure {
    /// What went wrong.
    pub message: String,
    /// The offending verb's usage, or the general one.
    pub usage: String,
}

const GENERAL_USAGE: &str = "repro [--scale small|medium|paper] [--seed N] \
     <verb or figure id> [its flags]... — `repro list` names them, `repro --help` shows every flag";

impl Failure {
    fn general(message: String) -> Failure {
        Failure { message, usage: GENERAL_USAGE.to_string() }
    }

    fn of(verb: &Verb, message: String) -> Failure {
        Failure { message, usage: verb.command() }
    }
}

/// One invocation: a verb (or figure id) with the flags and operands
/// given to it.
pub struct Args {
    /// The row it runs.
    pub verb: &'static Verb,
    /// The token that started it: the verb's name, or the figure id.
    pub name: String,
    flags: Vec<(&'static str, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// The `i`-th operand.
    pub fn operand(&self, i: usize) -> Option<&str> {
        self.operands.get(i).map(String::as_str)
    }

    /// `flag`'s value through `read`, if the flag was given.
    fn read<T>(
        &self,
        flag: &str,
        expected: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let given = self.flags.iter().find(|(name, _)| *name == flag);
        given
            .and_then(|(_, value)| value.as_deref())
            .map(|v| read(v).ok_or_else(|| format!("bad {flag} value '{v}' — {expected}")))
            .transpose()
    }

    /// A whole number (`--threads`: `0` = auto).
    pub fn usize(&self, flag: &str) -> Result<Option<usize>, String> {
        self.read(flag, "a whole number", |v| v.parse().ok())
    }

    /// A whole number ≥ 1.
    pub fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        self.read(flag, "a whole number ≥ 1", |v| v.parse().ok().filter(|&n| n > 0))
    }

    /// `--sessions`: the session budget of a chaos point, a scale tier or
    /// an incident arm.
    pub fn sessions(&self) -> Result<Option<usize>, String> {
        self.count("--sessions")
    }

    /// A shard count: one quadtree cell per shard.
    pub fn power_of_four(&self, flag: &str) -> Result<Option<usize>, String> {
        self.read(flag, "a power of four (1, 4, 16, ...)", |v| {
            v.parse().ok().filter(|&n| pscp_simnet::geo::quad_depth_for(n).is_some())
        })
    }

    /// A finite number ≥ 0.
    pub fn number(&self, flag: &str) -> Result<Option<f64>, String> {
        self.read(flag, "a number ≥ 0", |v| {
            v.parse().ok().filter(|x: &f64| x.is_finite() && *x >= 0.0)
        })
    }

    /// A comma-separated transport list (`None` = the paper's selection policy).
    pub fn transports(&self, flag: &str) -> Result<Option<Vec<Option<Protocol>>>, String> {
        self.read(flag, "from rtmp|hls|srt|auto", |v| pscp_core::chaos::parse_transports(v).ok())
    }

    /// A comma-separated scale-tier list; `all` is every tier.
    pub fn tiers(&self, flag: &str) -> Result<Option<Vec<&'static ScaleTier>>, String> {
        self.read(flag, "from 10k|100k|1m|all", tiers_by_names)
    }
}

/// The single value of a list-valued flag, for a verb that takes one.
pub fn one<T: Copy>(flag: &str, list: Option<Vec<T>>) -> Result<Option<T>, String> {
    match list.as_deref() {
        None => Ok(None),
        Some([one]) => Ok(Some(*one)),
        Some(_) => Err(format!("{flag} takes one value here, not a list")),
    }
}

/// What the invocations of one command line share.
pub struct Ctx {
    /// `--scale`, if given (`bench` defaults to `medium`, the rest to `small`).
    pub scale: Option<String>,
    /// `--seed` (default 2016).
    pub seed: u64,
    /// The lab configuration the two select.
    pub config: LabConfig,
    lab: Option<Lab>,
    traced: Option<Lab>,
}

impl Ctx {
    /// The scale's name, for labels.
    pub fn scale(&self) -> &str {
        self.scale.as_deref().unwrap_or("small")
    }

    /// The lab every figure id and ablation of this command line shares,
    /// built on first use.
    pub fn lab(&mut self) -> &mut Lab {
        self.lab.get_or_insert_with(|| Lab::new(self.config.clone()))
    }

    /// The trace-enabled lab behind `trace`, `metrics`, `slo` and
    /// `explain`, built — and its workload run: the QoE dataset, one deep
    /// crawl, the Fig 7 energy scenarios — on first use, so asking for
    /// several of them (`repro trace metrics slo`) simulates once.
    pub fn traced(&mut self) -> &mut Lab {
        self.traced.get_or_insert_with(|| {
            let mut lab = Lab::new(LabConfig { trace: true, ..self.config.clone() });
            lab.session_dataset();
            lab.deep_crawl_at(14.0);
            let model = pscp_energy::model::PowerModel::default();
            let mut trace = lab.observer().trace();
            pscp_energy::scenarios::figure7_traced(&model, &mut trace);
            lab.observer().absorb("energy", trace);
            lab
        })
    }
}

/// Writes one artifact.
pub fn write_artifact(path: &str, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {path}: {e}"))
}

/// The `--help` text: the general line, then one line per verb.
pub fn usage() -> String {
    let mut text = format!("usage: {GENERAL_USAGE}\n");
    for verb in VERBS {
        text.push_str(&format!("  {}\n", verb.command()));
    }
    text.push_str("trace/metrics/slo/explain share one traced run when requested together\n");
    text
}

/// `repro list`: one row per experiment, then one per verb.
pub fn list() -> String {
    let mut text = format!("{:<16} {:<18} title\n{}\n", "id", "paper artifact", "-".repeat(90));
    for exp in experiments::all() {
        text.push_str(&format!("{:<16} {:<18} {}\n", exp.id, exp.paper_ref, exp.title));
    }
    for verb in VERBS {
        text.push_str(&format!("{:<16} {:<18} {}", verb.name, verb.section, verb.about));
        if !verb.artifacts.is_empty() {
            text.push_str(&format!(" ({})", verb.artifacts.join(", ")));
        }
        text.push('\n');
    }
    text
}

/// Parses, validates and runs `argv`; returns the process's exit code.
pub fn main(argv: &[String]) -> i32 {
    if argv.iter().any(|t| t == "--help" || t == "-h") {
        print!("{}", usage());
        return 0;
    }
    let run = |(mut ctx, invocations): (Ctx, Vec<Args>)| {
        for args in &invocations {
            let exit = (args.verb.run)(&mut ctx, args).map_err(|m| Failure::of(args.verb, m))?;
            if exit == Exit::Failed {
                return Ok(exit);
            }
        }
        Ok(Exit::Ok)
    };
    match parse(argv).and_then(run) {
        Ok(Exit::Ok) => 0,
        Ok(Exit::Failed) => 1,
        Err(Failure { message, usage }) => {
            eprintln!("error: {message}\nusage: {usage}");
            2
        }
    }
}

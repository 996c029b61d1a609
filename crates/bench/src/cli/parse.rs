//! From `argv` to validated invocations: the one parser.

use std::iter::Peekable;

use pscp_core::experiments;

use super::{Args, Ctx, Failure, Verb, FIGURE, VERBS};

/// What a synopsis says a verb accepts.
struct Spec {
    /// `(name, whether a value follows it, the bracket it was written
    /// in)`: one bracket's flags exclude each other.
    flags: Vec<(&'static str, bool, usize)>,
    /// Placeholders of the required operands, e.g. `<old>`.
    required: Vec<&'static str>,
    /// How many optional operands may follow them.
    optional: usize,
}

impl Verb {
    fn spec(&self) -> Spec {
        let mut spec = Spec { flags: Vec::new(), required: Vec::new(), optional: 0 };
        let mut rest = self.synopsis;
        for group in 0.. {
            rest = rest.trim_start();
            if rest.is_empty() {
                break;
            }
            let close = if rest.starts_with('[') { ']' } else { '>' };
            let (part, tail) = rest.split_at(rest.find(close).map_or(rest.len(), |i| i + 1));
            rest = tail;
            match part.strip_prefix('[').map(|p| p.trim_end_matches(']')) {
                // `--tier 10k|100k|1m|all`: only a piece that starts with
                // `--` is another flag; the rest is the value's placeholder.
                Some(inner) if inner.starts_with("--") => {
                    for piece in inner.split('|').filter(|p| p.starts_with("--")) {
                        let name = piece.split(' ').next().unwrap_or(piece);
                        spec.flags.push((name, piece.contains(' '), group));
                    }
                }
                Some(_) => spec.optional += 1,
                None => spec.required.push(part),
            }
        }
        spec
    }
}

fn lookup(token: &str) -> Option<&'static Verb> {
    let figure = || experiments::by_id(token).map(|_| &FIGURE);
    VERBS.iter().find(|v| v.name == token).or_else(figure)
}

/// The value that must follow `flag`.
fn value_of<'a>(
    flag: &str,
    tokens: &mut Peekable<impl Iterator<Item = &'a str>>,
) -> Result<&'a str, String> {
    tokens.next_if(|v| !v.starts_with("--")).ok_or(format!("{flag} needs a value"))
}

impl Args {
    /// Attaches `--flag [value]` if the verb's synopsis has it.
    fn take_flag<'a>(
        &mut self,
        flag: &str,
        tokens: &mut Peekable<impl Iterator<Item = &'a str>>,
    ) -> Result<(), String> {
        let spec = self.verb.spec();
        let Some(&(name, valued, _)) = spec.flags.iter().find(|f| f.0 == flag) else {
            return Err(format!("unknown {} argument '{flag}'", self.name));
        };
        if self.has(name) {
            return Err(format!("{flag} given twice"));
        }
        let value = if valued { Some(value_of(flag, tokens)?.to_string()) } else { None };
        self.flags.push((name, value));
        Ok(())
    }

    /// Whether `word` is this invocation's next operand: a required one
    /// takes the next word whatever it is, an optional one (`export
    /// [dir]`) only a word that names no verb or figure.
    fn takes_operand(&self, word: &str) -> bool {
        let spec = self.verb.spec();
        let n = self.operands.len();
        n < spec.required.len()
            || (n < spec.required.len() + spec.optional && lookup(word).is_none())
    }

    /// What the flags and operands given, taken together, leave wrong.
    fn check(&self) -> Result<(), String> {
        let spec = self.verb.spec();
        if let Some(missing) = spec.required.get(self.operands.len()) {
            return Err(format!("{} needs {missing}", self.name));
        }
        let mut given = spec.flags.iter().filter(|f| self.has(f.0));
        while let Some(a) = given.next() {
            if let Some(b) = given.clone().find(|b| b.2 == a.2) {
                return Err(format!("{} and {} contradict each other", a.0, b.0));
            }
        }
        (self.verb.check)(self)
    }
}

/// Splits `argv` into invocations and validates all of them — unknown id
/// or flag, flag without its value, bad value, missing operand,
/// contradictory switches, unknown scale — without running anything.
/// (`--help` is [`super::main`]'s.)
pub fn parse(argv: &[String]) -> Result<(Ctx, Vec<Args>), Failure> {
    let mut scale = None;
    let mut seed = 2016u64;
    let mut invocations: Vec<Args> = Vec::new();
    let mut tokens = argv.iter().map(String::as_str).peekable();
    while let Some(token) = tokens.next() {
        match (token, invocations.last_mut()) {
            ("--scale", _) => {
                let v = value_of(token, &mut tokens).map_err(Failure::general)?;
                scale = Some(v.to_string());
            }
            ("--seed", _) => {
                let v = value_of(token, &mut tokens).map_err(Failure::general)?;
                seed =
                    v.parse().map_err(|_| Failure::general(format!("bad --seed value '{v}'")))?;
            }
            (flag, Some(args)) if flag.starts_with("--") => {
                args.take_flag(flag, &mut tokens).map_err(|m| Failure::of(args.verb, m))?
            }
            (word, Some(args)) if args.takes_operand(word) => args.operands.push(word.to_string()),
            (word, _) => {
                let Some(verb) = lookup(word) else {
                    let hint = "try `repro list`";
                    return Err(Failure::general(format!("unknown experiment '{word}' — {hint}")));
                };
                let name = word.to_string();
                invocations.push(Args { verb, name, flags: Vec::new(), operands: Vec::new() });
            }
        }
    }
    if invocations.is_empty() {
        return Err(Failure::general("no experiments given".to_string()));
    }
    for args in &invocations {
        args.check().map_err(|m| Failure::of(args.verb, m))?;
    }
    let config =
        crate::lab_config(scale.as_deref().unwrap_or("small"), seed).map_err(Failure::general)?;
    Ok((Ctx { scale, seed, config, lab: None, traced: None }, invocations))
}

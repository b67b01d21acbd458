//! `dexcli` — command-line front end for the dex engine.
//!
//! `dexcli help` lists every command with its flags and exit codes.
//! `chase`/`exchange` take `--store <dir>` to persist the run crash-
//! safely (WAL + snapshots; see DESIGN.md §9); `dexcli resume` then
//! continues from the last committed round after a crash or budget
//! trip.
//!
//! Instance JSON format — facts only, schema comes from the mapping:
//!
//! ```json
//! { "Emp": [["Alice"], ["Bob"]], "Dept": [["Alice", 1]] }
//! ```
//!
//! Labeled nulls appear in output as `{"null": n}`; Skolem terms as
//! `{"skolem": "f", "args": [...]}`.
//!
//! Every stdout byte goes through `emit`, so a closed or failing stdout
//! is exit 1, never a panic; every command parses its flags with
//! `take_flag`/`take_flag_value`/`take_flag_choice` and its positionals
//! with `positionals`.
#![deny(clippy::print_stdout)]

use dex::analyze::{
    analyze_with, cost::DEFAULT_CARD, deny_warnings, equivalent, explain_with, has_errors,
    parse_error_diagnostic, render_all, sort_diagnostics, verify_containment_witness,
    AnalyzeOptions, Code, ContainmentVerdict,
};
use dex::chase::{certain_answers, Budget, ChaseOutcome, ChaseStats, Governor};
use dex::core::{compile, Engine, EngineForward, ForwardStats};
use dex::evolution::render_mapping_dex;
use dex::logic::{parse_mapping, parse_mapping_with_spans, Mapping};
use dex::ops::{compose, maximum_recovery, verify_composition};
use dex::relational::budget_args::{parse_count, BudgetArgs};
use dex::relational::{ExhaustionReport, Instance, Schema, SourceStats};
use dex::rellens::Environment;
use dex::store::migrate::{self as store_migrate, MigrateStatus};
use dex::store::{fsck, ChaseState, MigrateRun, Migration, Store, StoreMode, StoreOptions};
use dexd::json::{instance_from_json, write_instance, write_rows, Style};
use dexd::pipeline::{self, MigrateRefusal, Policy, Refused};
use serde_json::{json, Value as Json};
use std::io::{self, BufWriter, StdoutLock, Write};
use std::ops::RangeInclusive;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Exit code when lint diagnostics deny the mapping: distinct from a
/// usage/IO error (1) so CI gates can tell "bad flags" from "bad
/// mapping".
const EXIT_LINT: u8 = 2;
/// Exit code when a budget trips: the run is neither a success nor an
/// error — the partial result on stdout is a valid chase prefix.
const EXIT_EXHAUSTED: u8 = 3;
/// Exit code when `dexcli eq` proves two mappings inequivalent: not an
/// error — stdout carries the machine-checkable counterexample witness.
const EXIT_DIFFER: u8 = 4;
/// Exit code for an internal panic caught at the process boundary
/// (BSD `EX_SOFTWARE`).
const EXIT_PANIC: u8 = 70;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A panic anywhere below is a bug, not a user error: suppress the
    // default hook's backtrace spew and convert the unwind into a
    // distinct exit code so scripts can tell "bad input" from "bug".
    std::panic::set_hook(Box::new(|_| {}));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&args))) {
        Ok(Ok(code)) => code,
        Ok(Err(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("dexcli: internal error (panic)");
            ExitCode::from(EXIT_PANIC)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let usage =
        "usage: dexcli <plan|check|lint|explain|optimize|eq|chase|exchange|backward|compose|recover|query|resume|fsck|migrate|serve> <args…>\n\
                 run `dexcli help` for details";
    // Deterministic hook for exercising the panic barrier end-to-end
    // (tests/robustness_cli.rs pins exit code 70 through it).
    if std::env::var_os("DEXCLI_TEST_PANIC").is_some() {
        panic!("DEXCLI_TEST_PANIC set");
    }
    let (cmd, rest) = args.split_first().ok_or(usage)?;
    let mut rest: Vec<&String> = rest.iter().collect();
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            positionals(&rest, 0..=0, usage)?;
            emit(|w| writeln!(w, "{HELP}"))?;
            Ok(ExitCode::SUCCESS)
        }
        "plan" => {
            let p = positionals(&rest, 1..=1, usage)?;
            let engine = build_engine(&load_mapping(p[0])?)?;
            emit(|w| writeln!(w, "{}", engine.show_plan()))?;
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let p = positionals(&rest, 1..=1, usage)?;
            let m = load_mapping(p[0])?;
            emit(|w| check(&m, w))?;
            Ok(ExitCode::SUCCESS)
        }
        "lint" => lint(rest),
        "explain" => explain_cmd(rest),
        "optimize" => optimize_cmd(rest),
        "eq" => eq_cmd(rest),
        "chase" => {
            let budget = extract_budget(&mut rest)?;
            let out = extract_output(&mut rest)?;
            let store_opts = extract_store(&mut rest)?;
            let policy = extract_policy(&mut rest)?;
            let p = positionals(&rest, 2..=2, usage)?;
            let (text, m) = load_mapping_text(p[0])?;
            let src = load_instance(p[1], m.source())?;
            let (budget, predicted) = match admitted_budget(&policy, &m, &src, budget) {
                Ok(adm) => adm,
                Err(code) => return Ok(code),
            };
            let gov = Governor::new(budget);
            let mut store = create_store(&store_opts, StoreMode::Chase, &text, &src)?;
            let outcome =
                pipeline::chase(&m, &src, &gov, store.as_mut()).map_err(|e| e.to_string())?;
            if let ChaseOutcome::Complete(res) = &outcome {
                // In `--format json` mode stderr carries exactly one
                // machine-readable object; keep the human line out.
                if !out.json {
                    eprintln!(
                        "chased {} source facts; {} nulls invented, {} rule firings",
                        src.fact_count(),
                        res.nulls_created,
                        res.firings
                    );
                }
            }
            finish_chase(
                outcome,
                &out,
                Some(&predicted),
                store_opts.as_ref().map(|(d, _)| d.as_path()),
            )
        }
        "exchange" => {
            let budget = extract_budget(&mut rest)?;
            let out = extract_output(&mut rest)?;
            let store_opts = extract_store(&mut rest)?;
            let policy = extract_policy(&mut rest)?;
            let p = positionals(&rest, 2..=3, usage)?;
            let (text, m) = load_mapping_text(p[0])?;
            let src = load_instance(p[1], m.source())?;
            let prev = match p.get(2) {
                Some(path) => Some(load_instance(path, m.target())?),
                None => None,
            };
            let (budget, predicted) = match admitted_budget(&policy, &m, &src, budget) {
                Ok(adm) => adm,
                Err(code) => return Ok(code),
            };
            let engine = build_engine(&m)?;
            let gov = Governor::new(budget);
            let mut store = create_store(&store_opts, StoreMode::Exchange, &text, &src)?;
            let forward = engine
                .forward_governed(&src, prev.as_ref(), &gov)
                .map_err(|e| e.to_string())?;
            finish_forward(forward, &out, Some(&predicted), store.as_mut())
        }
        "resume" => {
            let budget = extract_budget(&mut rest)?;
            let out = extract_output(&mut rest)?;
            let p = positionals(&rest, 1..=1, usage)?;
            resume(Path::new(p[0].as_str()), budget, &out)
        }
        "serve" => serve_cmd(rest),
        "migrate" => migrate_cmd(rest),
        "fsck" => {
            let repair = take_flag(&mut rest, "--repair");
            let p = positionals(&rest, 1..=1, usage)?;
            fsck_cmd(Path::new(p[0].as_str()), repair)
        }
        "backward" => {
            let p = positionals(&rest, 3..=3, usage)?;
            let m = load_mapping(p[0])?;
            let tgt = load_instance(p[1], m.target())?;
            let src = load_instance(p[2], m.source())?;
            let engine = build_engine(&m)?;
            let out = engine.backward(&tgt, &src).map_err(|e| e.to_string())?;
            emit(|w| write_instance(&out, w, Style::Pretty).and_then(|()| writeln!(w)))?;
            Ok(ExitCode::SUCCESS)
        }
        "compose" => {
            let check = take_flag(&mut rest, "--check");
            let p = positionals(&rest, 2..=2, usage)?;
            let m1 = load_mapping(p[0])?;
            let m2 = load_mapping(p[1])?;
            let comp = compose(&m1, &m2).map_err(|e| e.to_string())?;
            match &comp.st_tgds {
                Some(tgds) => {
                    eprintln!("composition is first-order ({} st-tgds):", tgds.len());
                    emit(|w| tgds.iter().try_for_each(|t| writeln!(w, "{t}")))?;
                }
                None => {
                    eprintln!("composition requires second-order quantification:");
                    emit(|w| writeln!(w, "{comp}"))?;
                }
            }
            if check {
                match verify_composition(&m1, &m2, &comp) {
                    Some(chk) if chk.agreed => eprintln!(
                        "self-check: composition agrees with the two-step chase \
                         on {} critical instance(s)",
                        chk.checked
                    ),
                    Some(chk) => {
                        eprintln!(
                            "error[{}]: composed mapping is not equivalent to the \
                             two-step chase (counterexample found after {} critical \
                             instance(s))",
                            Code::Dex604,
                            chk.checked
                        );
                        if let Some(cx) = chk.counterexample {
                            let mut text = Vec::new();
                            write_instance(&cx.source, &mut text, Style::Pretty)
                                .map_err(|e| e.to_string())?;
                            eprintln!(
                                "counterexample source instance:\n{}",
                                String::from_utf8_lossy(&text)
                            );
                        }
                        return Ok(ExitCode::from(EXIT_LINT));
                    }
                    None => eprintln!(
                        "self-check: outside the decidable fragment \
                         (second-order output); skipped"
                    ),
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "query" => {
            // dexcli query <mapping> <source.json> "q(x) :- Manager(x, m)"
            let budget = extract_budget(&mut rest)?;
            let p = positionals(&rest, 3..=3, usage)?;
            let m = load_mapping(p[0])?;
            let src = load_instance(p[1], m.source())?;
            let (head, body) = dex::logic::parse_query(p[2]).map_err(|e| e.to_string())?;
            let q =
                dex::chase::ConjunctiveQuery::new(head.iter().map(|n| n.as_str()).collect(), body)
                    .map_err(|e| e.to_string())?;
            q.validate(m.target()).map_err(|e| e.to_string())?;
            let gov = Governor::new(Policy::default().budget(budget));
            let outcome = pipeline::chase(&m, &src, &gov, None).map_err(|e| e.to_string())?;
            // Certain-answer evaluation is monotone, so answers computed
            // over a chase prefix are a sound subset of the certain
            // answers — report them, flag the truncation, exit 3.
            let (j, chase_report) = match outcome {
                ChaseOutcome::Complete(res) => (res.target, None),
                ChaseOutcome::Exhausted(ex) => (ex.partial, Some(ex.report)),
            };
            let (answers, eval_report) = certain_answers(&q, &j, &gov);
            let exhausted = chase_report.or(eval_report);
            match &exhausted {
                Some(report) => {
                    eprintln!("{report}");
                    eprintln!(
                        "{} certain answer(s) found before the budget tripped \
                         (a sound subset of the full answer set)",
                        answers.len()
                    );
                }
                None => eprintln!(
                    "{} certain answer(s) over the universal solution",
                    answers.len()
                ),
            }
            emit(|w| write_rows(&answers, w, Style::Pretty).and_then(|()| writeln!(w)))?;
            Ok(if exhausted.is_some() {
                ExitCode::from(EXIT_EXHAUSTED)
            } else {
                ExitCode::SUCCESS
            })
        }
        "recover" => {
            let p = positionals(&rest, 1..=1, usage)?;
            let rec = maximum_recovery(&load_mapping(p[0])?).map_err(|e| e.to_string())?;
            emit(|w| writeln!(w, "{rec}"))?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{usage}")),
    }
}

/// `dexcli lint <files…> [--format text|json] [--deny warnings] [--fix]`.
///
/// Exits [`EXIT_LINT`] (2) iff any file fails to parse or any
/// diagnostic is an error after `--deny warnings` promotion; bad
/// flags and unreadable files exit 1 like any other usage error.
///
/// `--fix` applies machine-applicable suggestions (DEX601/DEX602)
/// in place before linting. Each suggestion is an individually
/// verified equivalence-preserving rewrite, but two suggestions need
/// not compose — so fixes are applied one at a time, re-parsing and
/// re-linting after each, until a fixpoint.
fn lint(mut rest: Vec<&String>) -> Result<ExitCode, String> {
    let usage = "usage: dexcli lint <mapping.dex>… [--format text|json] [--deny warnings]\n\
                 \x20                               [--deny-cost <n>] [--cards <spec>] [--fix]\n\
                 \x20      dexcli lint --explain DEXnnn";
    let explain = take_flag_value(&mut rest, "--explain")?;
    let json = take_flag_choice(&mut rest, "--format", &["text", "json"])? == Some("json");
    let deny = take_flag_choice(&mut rest, "--deny", &["warnings"])?.is_some();
    let fix = take_flag(&mut rest, "--fix");
    let deny_cost = match take_flag_value(&mut rest, "--deny-cost")? {
        Some(v) => Some(parse_count(&v, "--deny-cost")?),
        None => None,
    };
    let stats = match take_flag_value(&mut rest, "--cards")? {
        Some(spec) => Some(parse_cards(&spec)?),
        None => None,
    };
    if let Some(code_str) = explain {
        positionals(&rest, 0..=0, usage)?;
        let code = Code::parse(&code_str)
            .ok_or_else(|| format!("unknown diagnostic code `{code_str}`"))?;
        emit(|w| writeln!(w, "{code}: {}", code.explanation()))?;
        return Ok(ExitCode::SUCCESS);
    }
    let files = positionals(&rest, 1..=usize::MAX, usage)?;
    let options = AnalyzeOptions {
        stats,
        deny_cost,
        ..Default::default()
    };

    let mut failed = false;
    let mut json_report: Vec<Json> = Vec::new();
    for &path in files {
        let mut text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if fix {
            let (fixed, applied) = apply_fixes(&text, &options);
            if applied > 0 {
                std::fs::write(path, &fixed).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("{path}: applied {applied} verified fix(es)");
                text = fixed;
            }
        }
        let mut diags = match parse_mapping_with_spans(&text) {
            Ok((m, spans)) => analyze_with(&m, Some(&spans), options.clone()),
            Err(e) => vec![parse_error_diagnostic(&e)],
        };
        if deny {
            deny_warnings(&mut diags);
        }
        // Deterministic report order regardless of pass order: by
        // source position, then code, then message.
        sort_diagnostics(&mut diags);
        failed |= has_errors(&diags);
        if json {
            json_report.push(json!({
                "file": path,
                "diagnostics": serde_json::to_value(&diags).map_err(|e| e.to_string())?,
            }));
        } else if !diags.is_empty() {
            emit(|w| write!(w, "{}", render_all(&diags, path, &text)))?;
        }
    }
    if json {
        let report =
            serde_json::to_string_pretty(&Json::Array(json_report)).map_err(|e| e.to_string())?;
        emit(|w| writeln!(w, "{report}"))?;
    }
    if failed {
        eprintln!("lint found errors");
        Ok(ExitCode::from(EXIT_LINT))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `dexcli explain <mapping.dex> [--format tree|json|dot]`.
///
/// Renders the compiled execution plan — premise-matching strategy,
/// matcher phase, null production, lens trees with update policies,
/// and position-level provenance. Unparsable mappings print their
/// `DEX000` diagnostic and exit [`EXIT_LINT`], mirroring `lint`.
fn explain_cmd(mut rest: Vec<&String>) -> Result<ExitCode, String> {
    let usage = "usage: dexcli explain <mapping.dex> [--format tree|json|dot] [--cards <spec>]";
    let format = take_flag_choice(&mut rest, "--format", &["tree", "json", "dot"])?;
    let stats = match take_flag_value(&mut rest, "--cards")? {
        Some(spec) => parse_cards(&spec)?,
        None => SourceStats::uniform(DEFAULT_CARD),
    };
    let path = positionals(&rest, 1..=1, usage)?[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (m, spans) = match parse_mapping_with_spans(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            let d = parse_error_diagnostic(&e);
            emit(|w| write!(w, "{}", render_all(&[d], path, &text)))?;
            return Ok(ExitCode::from(EXIT_LINT));
        }
    };
    let report = explain_with(&m, Some(&spans), &stats);
    match format {
        Some("json") => {
            let j = serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?;
            emit(|w| writeln!(w, "{j}"))?;
        }
        Some("dot") => emit(|w| write!(w, "{}", report.render_dot()))?,
        _ => emit(|w| write!(w, "{}", report.render_tree()))?,
    }
    Ok(ExitCode::SUCCESS)
}

/// Apply machine-applicable lint suggestions to `text`, one per
/// iteration, until no suggestion remains (or a safety cap trips).
///
/// Suggestions are verified individually but not jointly — two
/// dependencies can each be implied by the rest without being jointly
/// deletable — so after each splice the text is re-parsed and
/// re-linted from scratch. Returns the fixed text and the number of
/// suggestions applied.
fn apply_fixes(text: &str, options: &AnalyzeOptions) -> (String, usize) {
    let mut cur = text.to_string();
    let mut applied = 0usize;
    for _ in 0..256 {
        let Ok((m, spans)) = parse_mapping_with_spans(&cur) else {
            break;
        };
        let mut diags = analyze_with(&m, Some(&spans), options.clone());
        sort_diagnostics(&mut diags);
        let Some(s) = diags.iter().find_map(|d| d.suggestion.clone()) else {
            break;
        };
        let (Some(start), Some(end)) = (
            offset_of(&cur, s.span.line, s.span.col),
            offset_of(&cur, s.span.end_line, s.span.end_col),
        ) else {
            break;
        };
        if start > end || end > cur.len() {
            break;
        }
        let mut next = String::with_capacity(cur.len());
        next.push_str(&cur[..start]);
        next.push_str(&s.replacement);
        // A deletion leaves its line blank; absorb the dangling newline.
        let mut rest = &cur[end..];
        if s.replacement.is_empty()
            && (start == 0 || cur[..start].ends_with('\n'))
            && rest.starts_with('\n')
        {
            rest = &rest[1..];
        }
        next.push_str(rest);
        cur = next;
        applied += 1;
    }
    (cur, applied)
}

/// Byte offset of 1-based (line, col) in `text`; columns count chars.
///
/// The position one past the last character of the input is valid (an
/// exclusive span end may point there); anything further is `None`.
fn offset_of(text: &str, line: usize, col: usize) -> Option<usize> {
    let (mut l, mut c) = (1usize, 1usize);
    for (i, ch) in text.char_indices() {
        if l == line && c == col {
            return Some(i);
        }
        if ch == '\n' {
            l += 1;
            c = 1;
        } else {
            c += 1;
        }
    }
    (l == line && c == col).then_some(text.len())
}

/// `dexcli optimize <mapping.dex> [--emit <out.dex>] [--check]`.
///
/// Runs the provably-safe optimizer: conclusion splitting, implied
/// dependency deletion, and redundant-premise-atom pruning, each
/// rewrite individually re-verified by the containment checker. The
/// optimized mapping prints to stdout (or `--emit <file>`); `--check`
/// reports the verified rewrites without emitting. Non-terminating
/// mappings are refused with a typed reason and exit [`EXIT_LINT`] —
/// never silently "optimized" without proof.
fn optimize_cmd(mut rest: Vec<&String>) -> Result<ExitCode, String> {
    let usage = "usage: dexcli optimize <mapping.dex> [--emit <out.dex>] [--check]";
    let emit_to = take_flag_value(&mut rest, "--emit")?;
    let check = take_flag(&mut rest, "--check");
    let path = positionals(&rest, 1..=1, usage)?[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let m = match parse_mapping_with_spans(&text) {
        Ok((m, _)) => m,
        Err(e) => {
            let d = parse_error_diagnostic(&e);
            emit(|w| write!(w, "{}", render_all(&[d], path, &text)))?;
            return Ok(ExitCode::from(EXIT_LINT));
        }
    };
    let outcome = dex::analyze::optimize(&m);
    if let Some(reason) = &outcome.refused {
        eprintln!("optimize: refused: {reason}");
        return Ok(ExitCode::from(EXIT_LINT));
    }
    // Belt and braces: each rewrite was verified when it was applied,
    // but re-verify the end-to-end result before letting it replace
    // anything.
    if outcome.changed() && !equivalent(&m, &outcome.mapping).holds() {
        return Err(
            "internal error: optimizer output failed final equivalence re-verification".into(),
        );
    }
    let (a0, d0) = dex::analyze::semantic::mapping_size(&m);
    let (a1, d1) = dex::analyze::semantic::mapping_size(&outcome.mapping);
    for r in &outcome.rewrites {
        eprintln!("verified: {}", r.description);
    }
    if outcome.changed() {
        eprintln!(
            "optimized: {a0} atoms / {d0} deps  ->  {a1} atoms / {d1} deps \
             ({} verified rewrites)",
            outcome.rewrites.len()
        );
    } else {
        eprintln!("already minimal under the implemented rewrites");
    }
    if check {
        return Ok(ExitCode::SUCCESS);
    }
    let rendered = dex::analyze::render_mapping_dex(&outcome.mapping);
    // The rendered text must round-trip: re-parse it and check the
    // reparse is still equivalent to the optimized mapping, so --emit
    // can never write a file that means something else.
    match parse_mapping(&rendered) {
        Ok(back) if equivalent(&outcome.mapping, &back).holds() => {}
        Ok(_) => return Err("internal error: rendered mapping re-parses inequivalent".into()),
        Err(e) => {
            return Err(format!(
                "internal error: rendered mapping does not parse: {e}"
            ))
        }
    }
    match emit_to {
        Some(out) => {
            std::fs::write(&out, &rendered).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => emit(|w| write!(w, "{rendered}"))?,
    }
    Ok(ExitCode::SUCCESS)
}

/// `dexcli eq <a.dex> <b.dex> [--format text|json]`.
///
/// Decides logical equivalence of two terminating mappings over the
/// same schemas by chasing critical instances. Exit codes: 0 —
/// equivalent; [`EXIT_DIFFER`] (4) — provably inequivalent, with a
/// machine-checkable counterexample witness on stdout;
/// [`EXIT_LINT`] (2) — parse error or outside the decidable fragment.
fn eq_cmd(mut rest: Vec<&String>) -> Result<ExitCode, String> {
    let usage = "usage: dexcli eq <a.dex> <b.dex> [--format text|json]";
    let json = take_flag_choice(&mut rest, "--format", &["text", "json"])? == Some("json");
    let p = positionals(&rest, 2..=2, usage)?;
    let (path_a, path_b) = (p[0].as_str(), p[1].as_str());
    let ma = load_mapping(path_a)?;
    let mb = load_mapping(path_b)?;
    let verdict = equivalent(&ma, &mb);
    // A `Fails` witness names the mapping whose dependency is violated
    // (the right-hand side of the failing containment) and carries the
    // (source, target) pair that refutes it. Re-verify before showing
    // it: a witness the checker itself cannot confirm is a bug.
    let mut failures = Vec::new();
    for (dir, holder, m1, m2, other) in [
        ("forward", &verdict.forward, &ma, &mb, path_b),
        ("backward", &verdict.backward, &mb, &ma, path_a),
    ] {
        if let ContainmentVerdict::Fails(w) = holder {
            if !verify_containment_witness(m1, m2, w) {
                return Err(format!(
                    "internal error: {dir} containment witness failed re-verification"
                ));
            }
            failures.push((dir, other, w));
        }
    }
    if json {
        let obj = json!({
            "a": path_a,
            "b": path_b,
            "equivalent": verdict.holds(),
            "forward": containment_json(&verdict.forward)?,
            "backward": containment_json(&verdict.backward)?,
        });
        let obj = serde_json::to_string_pretty(&obj).map_err(|e| e.to_string())?;
        emit(|w| writeln!(w, "{obj}"))?;
    }
    if verdict.holds() {
        eprintln!("equivalent: {path_a} == {path_b}");
        return Ok(ExitCode::SUCCESS);
    }
    if verdict.refuted() {
        for (dir, other, w) in &failures {
            eprintln!(
                "{dir} containment fails: the witness below satisfies every \
                 dependency of one mapping but violates {:?} of {other} \
                 (witness re-verified)",
                w.dependency
            );
            if !json {
                let witness = serde_json::to_value(w.as_ref())
                    .and_then(|v| serde_json::to_string_pretty(&v))
                    .map_err(|e| e.to_string())?;
                emit(|w| writeln!(w, "{witness}"))?;
            }
        }
        eprintln!("mappings differ");
        return Ok(ExitCode::from(EXIT_DIFFER));
    }
    for (dir, v) in [
        ("forward", &verdict.forward),
        ("backward", &verdict.backward),
    ] {
        if let ContainmentVerdict::Undecided { reason } = v {
            eprintln!("{dir} containment undecided: {reason}");
        }
    }
    Ok(ExitCode::from(EXIT_LINT))
}

/// Serialize one direction of an equivalence verdict for `--format json`.
fn containment_json(v: &ContainmentVerdict) -> Result<Json, String> {
    Ok(match v {
        ContainmentVerdict::Holds => json!({"verdict": "holds"}),
        ContainmentVerdict::Fails(w) => json!({
            "verdict": "fails",
            "witness": serde_json::to_value(w.as_ref()).map_err(|e| e.to_string())?,
        }),
        ContainmentVerdict::Undecided { reason } => {
            json!({"verdict": "undecided", "reason": reason})
        }
    })
}

// ---------------------------------------------------------------------
// Store-backed runs: output plumbing, resume, fsck
// ---------------------------------------------------------------------

/// How `--stats`/`--format` shape the stderr side channel.
struct OutputOpts {
    stats: bool,
    json: bool,
}

/// Extract `--stats` and `--format text|json` from an argument list.
fn extract_output(rest: &mut Vec<&String>) -> Result<OutputOpts, String> {
    let stats = take_flag(rest, "--stats");
    let json = take_flag_choice(rest, "--format", &["text", "json"])? == Some("json");
    if json && !stats {
        return Err("--format json requires --stats".into());
    }
    Ok(OutputOpts { stats, json })
}

/// Extract `--store <dir>` plus the store options from an argument
/// list.
fn extract_store(
    rest: &mut Vec<&String>,
) -> Result<Option<(std::path::PathBuf, StoreOptions)>, String> {
    let dir = take_flag_value(rest, "--store")?;
    let (opts, given) = extract_store_options(rest)?;
    match dir {
        Some(d) => Ok(Some((std::path::PathBuf::from(d), opts))),
        None if given => Err("--snapshot-every and --no-sync require --store".into()),
        None => Ok(None),
    }
}

/// Extract `--snapshot-every <n>` and `--no-sync` into store options;
/// the flag is whether either was given.
fn extract_store_options(rest: &mut Vec<&String>) -> Result<(StoreOptions, bool), String> {
    let every = take_flag_value(rest, "--snapshot-every")?;
    let no_sync = take_flag(rest, "--no-sync");
    let mut opts = StoreOptions::default();
    if let Some(n) = &every {
        opts.snapshot_every = parse_count(n, "--snapshot-every")?.max(1);
    }
    opts.sync = !no_sync;
    Ok((opts, every.is_some() || no_sync))
}

/// Print a chase outcome: instance to stdout, stats/report to stderr
/// (one JSON object when `--stats --format json`), exit 0 or 3.
fn finish_chase(
    outcome: ChaseOutcome,
    out: &OutputOpts,
    predicted: Option<&Json>,
    store_dir: Option<&Path>,
) -> Result<ExitCode, String> {
    let (instance, code) = match outcome {
        ChaseOutcome::Complete(res) => {
            if out.json {
                eprintln!("{}", chase_stats_json(&res.stats, predicted, None));
            } else if out.stats {
                eprint!("{}", res.stats);
            }
            (res.target, ExitCode::SUCCESS)
        }
        ChaseOutcome::Exhausted(ex) => {
            if out.json {
                eprintln!(
                    "{}",
                    chase_stats_json(&ex.stats, predicted, Some(&ex.report))
                );
            } else {
                eprintln!("{}", ex.report);
                eprintln!("the instance below is a valid partial chase result");
                if out.stats {
                    eprint!("{}", ex.stats);
                }
                if let Some(dir) = store_dir {
                    eprintln!("resume with: dexcli resume {}", dir.display());
                }
            }
            (ex.partial, ExitCode::from(EXIT_EXHAUSTED))
        }
    };
    emit(|w| write_instance(&instance, w, Style::Pretty).and_then(|()| writeln!(w)))?;
    Ok(code)
}

/// Print a lens-engine forward outcome, persisting the result into the
/// store (snapshot-only — the pipeline is not round-resumable).
fn finish_forward(
    forward: EngineForward,
    out: &OutputOpts,
    predicted: Option<&Json>,
    store: Option<&mut Store>,
) -> Result<ExitCode, String> {
    let persist = |store: Option<&mut Store>, inst: &Instance, complete: bool| {
        if let Some(s) = store {
            s.prepare_resume(&ChaseState {
                instance: inst.clone(),
                round: 0,
                next_null: inst.null_gen().peek_next(),
                complete,
            })
            .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    };
    let (instance, code) = match forward {
        EngineForward::Complete { target, stats } => {
            persist(store, &target, true)?;
            if out.json {
                eprintln!("{}", forward_stats_json(&stats, predicted, None));
            } else if out.stats {
                eprint!("{stats}");
            }
            (target, ExitCode::SUCCESS)
        }
        EngineForward::Exhausted { partial, report } => {
            persist(store, &partial, false)?;
            if out.json {
                let stats = ForwardStats::default();
                eprintln!("{}", forward_stats_json(&stats, predicted, Some(&report)));
            } else {
                eprintln!("{report}");
                eprintln!("the instance below is a consistent partial forward result");
            }
            (partial, ExitCode::from(EXIT_EXHAUSTED))
        }
    };
    emit(|w| write_instance(&instance, w, Style::Pretty).and_then(|()| writeln!(w)))?;
    Ok(code)
}

fn chase_stats_json(
    stats: &ChaseStats,
    predicted: Option<&Json>,
    report: Option<&ExhaustionReport>,
) -> Json {
    // The versioned wire form pinned by crates/chase/tests/wire_format.rs
    // (`{"v": 1, …}`) — the same bytes `dexd` serves.
    json!({
        "stats": serde_json::to_value(stats).unwrap_or(Json::Null),
        "predicted": predicted.cloned().unwrap_or(Json::Null),
        "exhausted": report.map(report_json).unwrap_or(Json::Null),
    })
}

fn forward_stats_json(
    stats: &ForwardStats,
    predicted: Option<&Json>,
    report: Option<&ExhaustionReport>,
) -> Json {
    let per_relation: Vec<Json> = stats
        .per_relation
        .iter()
        .map(|r| {
            json!({
                "relation": r.relation.as_str(),
                "view_rows": r.view_rows,
                "get_ms": r.get_time.as_secs_f64() * 1e3,
                "put_ms": r.put_time.as_secs_f64() * 1e3,
            })
        })
        .collect();
    json!({
        "stats": json!({
            "per_relation": Json::Array(per_relation),
            "egd_rounds": stats.egd_rounds,
            "egd_merges": stats.egd_merges,
            "egd_ms": stats.egd_time.as_secs_f64() * 1e3,
            "index_builds": stats.index_builds,
            "index_probes": stats.index_probes,
        }),
        "predicted": predicted.cloned().unwrap_or(Json::Null),
        "exhausted": report.map(report_json).unwrap_or(Json::Null),
    })
}

/// Machine-readable exhaustion report in the versioned wire form
/// (`{"v": 1, "reason": …}`; reason tokens are `deadline`, `rounds`,
/// `tuples`, `nulls`, `memory`, `cancelled`) — byte-identical to what
/// `dexd` serves, pinned in `dex-relational`'s governor tests.
fn report_json(r: &ExhaustionReport) -> Json {
    serde_json::to_value(r).unwrap_or(Json::Null)
}

/// `dexcli resume <dir>`: continue a `--store` run from its last
/// committed round (chase mode) or re-run the pipeline (exchange
/// mode). Already-complete stores just print their result.
fn resume(dir: &Path, budget: Budget, out: &OutputOpts) -> Result<ExitCode, String> {
    let mut store = Store::open(dir, StoreOptions::default()).map_err(|e| e.to_string())?;
    let m = parse_mapping(store.mapping_text())
        .map_err(|e| format!("mapping stored in {}: {e}", dir.display()))?;
    let gov = Governor::new(Policy::default().budget(budget));
    match (store.mode(), store.recover().map_err(|e| e.to_string())?) {
        (mode, Some(r)) if r.state.complete => {
            match mode {
                StoreMode::Chase => eprintln!(
                    "store already holds a completed chase (round {})",
                    r.state.round
                ),
                StoreMode::Exchange => eprintln!("store already holds a completed exchange"),
            }
            let instance = &r.state.instance;
            emit(|w| write_instance(instance, w, Style::Pretty).and_then(|()| writeln!(w)))?;
            Ok(ExitCode::SUCCESS)
        }
        (StoreMode::Chase, Some(r)) => {
            eprintln!(
                "recovered round {} ({} WAL record(s) replayed{}); resuming",
                r.state.round,
                r.replayed_records,
                if r.wal_torn {
                    ", torn tail discarded"
                } else {
                    ""
                }
            );
            let outcome = pipeline::resume(&m, &mut store, r.state, &gov)?;
            finish_chase(outcome, out, None, Some(dir))
        }
        (StoreMode::Chase, None) => {
            eprintln!("no checkpoint on disk; starting the chase from the stored source");
            let src = store.source().map_err(|e| e.to_string())?;
            let outcome =
                pipeline::chase(&m, &src, &gov, Some(&mut store)).map_err(|e| e.to_string())?;
            finish_chase(outcome, out, None, Some(dir))
        }
        (StoreMode::Exchange, partial) => {
            // The pipeline is not round-resumable: free the partial
            // result before running it again.
            drop(partial);
            eprintln!("re-running the lens pipeline from the stored source");
            let src = store.source().map_err(|e| e.to_string())?;
            let engine = build_engine(&m)?;
            let forward = engine
                .forward_governed(&src, None, &gov)
                .map_err(|e| e.to_string())?;
            finish_forward(forward, out, None, Some(&mut store))
        }
    }
}

/// `dexcli fsck <dir> [--repair]`: verify every store file; with
/// `--repair`, truncate a torn WAL back to its valid prefix. Exit 0
/// iff the store is clean (after repair, when requested).
fn fsck_cmd(dir: &Path, repair: bool) -> Result<ExitCode, String> {
    let report = fsck::fsck(dir).map_err(|e| e.to_string())?;
    emit(|w| writeln!(w, "{report}"))?;
    if report.is_clean() {
        return Ok(ExitCode::SUCCESS);
    }
    if repair {
        for action in fsck::repair(dir).map_err(|e| e.to_string())? {
            eprintln!("repair: {action}");
        }
        let after = fsck::fsck(dir).map_err(|e| e.to_string())?;
        emit(|w| writeln!(w, "{after}"))?;
        return Ok(if after.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    Ok(ExitCode::FAILURE)
}

/// `dexcli migrate <store-dir> <new-schema.dex> [--dry-run] [--resume]`:
/// crash-safe live schema migration of a persisted store.
///
/// Diffs the store's materialized schema against the evolved one,
/// compiles the SMO sequence to one migration mapping (`dex-evolution`
/// composition + de-skolemization), admits it through the static cost
/// pass, then runs it as a governed, checkpointed chase into a staging
/// directory — the old store's bytes change only after a checksummed
/// commit marker is durable. Exit codes follow the house contract:
/// 0 committed, 1 usage/IO, 2 refused (ambiguous diff, non-FO
/// composition, DEX502 admission, unfinished store), 3 budget tripped
/// at a durable, resumable boundary, 70 internal panic.
fn migrate_cmd(mut rest: Vec<&String>) -> Result<ExitCode, String> {
    let usage = "usage: dexcli migrate <store-dir> <new-schema.dex> [--dry-run] [--resume]\n\
                 \x20      [--deny-cost <n>] [--auto-budget] [budget flags]\n\
                 \x20      [--snapshot-every <n>] [--no-sync]";
    let budget = extract_budget(&mut rest)?;
    let policy = extract_policy(&mut rest)?;
    let dry_run = take_flag(&mut rest, "--dry-run");
    let resume_flag = take_flag(&mut rest, "--resume");
    let (opts, _) = extract_store_options(&mut rest)?;
    // `--resume` continues a staged migration, whose schema is on disk.
    let arity = if resume_flag { 1..=1 } else { 2..=2 };
    let p = positionals(&rest, arity, usage)?;
    let dir = Path::new(p[0].as_str());

    if resume_flag {
        match store_migrate::status(dir).map_err(|e| e.to_string())? {
            MigrateStatus::Committed => {
                store_migrate::roll_forward(dir, opts.sync).map_err(|e| e.to_string())?;
                eprintln!("migration was already committed; completed the roll-forward");
                return Ok(ExitCode::SUCCESS);
            }
            MigrateStatus::None => {
                return Err(format!(
                    "no staged migration at {} (nothing to resume)",
                    dir.display()
                ))
            }
            MigrateStatus::InProgress { round, .. } => {
                eprintln!(
                    "resuming staged migration{}",
                    match round {
                        Some(r) => format!(" from round {r}"),
                        None => " (no round committed yet)".to_string(),
                    }
                );
            }
        }
        let mig = Migration::resume(dir, opts).map_err(|e| e.to_string())?;
        return run_migration(mig, dir, policy.budget(budget));
    }

    let schema_path = p[1];
    let schema_text = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    // --dry-run also turns on the chase-agreement self-check: every
    // pairwise composition in the fold is re-verified against the
    // two-step chase (DEX604 on disagreement) — verification belongs
    // in the rehearsal, not on the hot path of the real run.
    let plan = match pipeline::plan_migration(dir, opts, &schema_text, &policy, budget, dry_run) {
        Ok(plan) => plan,
        Err(refusal) => return migrate_refused(refusal, dir, schema_path),
    };
    let migration = &plan.migration;

    if dry_run {
        emit(|w| {
            writeln!(w, "schema diff ({} operation(s)):", migration.smos.len())?;
            for s in &migration.smos {
                writeln!(w, "  {s}")?;
            }
            writeln!(w, "\nmigration mapping:")?;
            write!(w, "{}", render_mapping_dex(&migration.mapping))?;
            writeln!(
                w,
                "\npredicted cost bounds at the stored instance: {}",
                bounds_json(&plan.admitted.bounds)
            )?;
            if let Some(back) = migration.backward() {
                writeln!(w, "\nbackward (maximum recovery):")?;
                writeln!(w, "{back}")?;
            }
            Ok(())
        })?;
        eprintln!("dry run: nothing written");
        return Ok(ExitCode::SUCCESS);
    }

    eprintln!(
        "migrating {} tuple(s) through {} schema operation(s)",
        plan.input.fact_count(),
        migration.smos.len()
    );
    let budget = plan.admitted.budget;
    let mig = plan.begin(dir, opts).map_err(|e| e.to_string())?;
    run_migration(mig, dir, budget)
}

/// Render a migration refusal: refused before any byte of the store
/// was touched (exit 2), or a usage/IO error (exit 1).
fn migrate_refused(
    refusal: MigrateRefusal,
    dir: &Path,
    schema_path: &str,
) -> Result<ExitCode, String> {
    let d = dir.display();
    match refusal {
        MigrateRefusal::Staged => eprintln!(
            "refusing to start: a migration is already staged at {d}/migrate — \
             continue it with `dexcli migrate {d} --resume`"
        ),
        MigrateRefusal::SchemaHasRules => eprintln!(
            "refusing to migrate: `{schema_path}` must hold only schema declarations \
             (source/target/key); it contains rules"
        ),
        MigrateRefusal::Unfinished { round: Some(round) } => eprintln!(
            "refusing to migrate: the store holds an unfinished run (round {round}); \
             finish it first with `dexcli resume {d}`"
        ),
        MigrateRefusal::Unfinished { round: None } => eprintln!(
            "refusing to migrate: the store has no materialized instance yet; \
             run it to completion first (`dexcli resume {d}`)"
        ),
        MigrateRefusal::CannotMigrate(e) => eprintln!("cannot migrate: {e}"),
        MigrateRefusal::Admission(r) => report_refusal(&r),
        MigrateRefusal::BadSchema(e) => return Err(format!("{schema_path}: {e}")),
        MigrateRefusal::Prefix(e) => return Err(e.to_string()),
        MigrateRefusal::NoStore(e) | MigrateRefusal::Store(e) => return Err(e.to_string()),
    }
    Ok(ExitCode::from(EXIT_LINT))
}

/// Run a staged migration to fixpoint (commit + roll-forward) or to a
/// durable budget boundary (exit 3, resumable).
fn run_migration(mut mig: Migration, dir: &Path, budget: Budget) -> Result<ExitCode, String> {
    let gov = Governor::new(budget);
    match pipeline::run_migration(&mut mig, &gov).map_err(|e| e.to_string())? {
        MigrateRun::Done(state) => {
            eprintln!(
                "migration committed: {} now serves {} tuple(s) under the new schema",
                dir.display(),
                state.instance.fact_count()
            );
            Ok(ExitCode::SUCCESS)
        }
        MigrateRun::Suspended(report) => {
            eprintln!("{report}");
            eprintln!(
                "the staged migration is durable and the old store is untouched; \
                 continue with: dexcli migrate {} --resume",
                dir.display()
            );
            Ok(ExitCode::from(EXIT_EXHAUSTED))
        }
    }
}

/// `dexcli serve --map name=mapping.dex … [flags]`: run the `dexd`
/// daemon in the foreground until SIGTERM/ctrl-c, then drain
/// gracefully (stop accepting, finish in-flight work under
/// `--drain-deadline`, cancel overruns into 206 partials).
fn serve_cmd(mut rest: Vec<&String>) -> Result<ExitCode, String> {
    // The shared budget flags become the *server default* budget every
    // request starts from; request overrides can only tighten it.
    let default_budget = extract_budget(&mut rest)?;
    let mut config = dexd::ServerConfig {
        default_budget,
        ..dexd::ServerConfig::default()
    };
    if let Some(v) = take_flag_value(&mut rest, "--addr")? {
        config.addr = v;
    }
    if let Some(v) = take_flag_value(&mut rest, "--workers")? {
        config.workers = parse_count(&v, "--workers")?.max(1) as usize;
    }
    if let Some(v) = take_flag_value(&mut rest, "--queue")? {
        config.queue_capacity = parse_count(&v, "--queue")?.max(1) as usize;
    }
    if let Some(v) = take_flag_value(&mut rest, "--max-inflight")? {
        config.max_inflight_per_mapping = parse_count(&v, "--max-inflight")?;
    }
    if let Some(v) = take_flag_value(&mut rest, "--deny-cost")? {
        config.deny_cost = Some(parse_count(&v, "--deny-cost")?);
    }
    config.auto_budget = !take_flag(&mut rest, "--no-auto-budget");
    if let Some(v) = take_flag_value(&mut rest, "--drain-deadline")? {
        config.drain_deadline =
            dex::relational::budget_args::parse_duration(&v, "--drain-deadline")?;
    }
    if let Some(v) = take_flag_value(&mut rest, "--store-root")? {
        config.store_root = Some(std::path::PathBuf::from(v));
    }
    let mut specs: Vec<(String, std::path::PathBuf)> = Vec::new();
    while let Some(v) = take_flag_value(&mut rest, "--map")? {
        let (name, path) = v
            .split_once('=')
            .ok_or_else(|| format!("--map takes name=mapping.dex, got `{v}`"))?;
        specs.push((name.to_string(), std::path::PathBuf::from(path)));
    }
    reject_unknown_flags(&rest)?;
    // Bare mapping paths serve under their file stem.
    for path in rest {
        let p = std::path::PathBuf::from(path.as_str());
        let name = p
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a mapping name from `{path}`"))?
            .to_string();
        specs.push((name, p));
    }
    if specs.is_empty() {
        return Err("serve needs at least one --map name=mapping.dex".to_string());
    }
    let catalog = dexd::Catalog::load(&specs)?;
    let n = catalog.len();
    let handle = dexd::ServerHandle::spawn(config, catalog).map_err(|e| e.to_string())?;
    eprintln!(
        "dexd: serving {n} mapping(s) on http://{} (ctrl-c to drain)",
        handle.addr()
    );
    shutdown_signal::install();
    while !shutdown_signal::received() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("dexd: shutdown requested; draining");
    handle.shutdown();
    eprintln!("dexd: drained");
    Ok(ExitCode::SUCCESS)
}

/// SIGTERM/SIGINT notification without a signal-handling dependency:
/// a raw `signal(2)` registration flipping one atomic flag — the only
/// async-signal-safe thing a handler may do here anyway.
#[cfg(unix)]
mod shutdown_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    pub fn received() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

/// On non-unix targets `serve` runs until killed externally.
#[cfg(not(unix))]
mod shutdown_signal {
    pub fn install() {}
    pub fn received() -> bool {
        false
    }
}

const HELP: &str = r#"dexcli — bidirectional data exchange from the command line

commands:
  plan     <mapping.dex>                         compile and show the lens plan
  check    <mapping.dex>                         fidelity + termination report
  lint     <mapping.dex>… [--format text|json] [--deny warnings]
                          [--deny-cost <n>] [--cards <spec>] [--fix]
                                                 static analysis (DEX diagnostic codes);
                                                 --fix applies verified machine-applicable
                                                 suggestions in place, one at a time
  lint     --explain DEXnnn                      long-form explanation of one code
  explain  <mapping.dex> [--format tree|json|dot] [--cards <spec>]
                                                 annotated execution plan: premise order,
                                                 index probes, null production, static cost
                                                 bounds, verified rewrites, lens update
                                                 policies, provenance
  optimize <mapping.dex> [--emit out.dex] [--check]
                                                 provably-safe optimizer: every rewrite
                                                 (split / delete / prune) is re-verified by
                                                 the containment checker before it applies;
                                                 non-terminating mappings are refused (exit 2)
  eq       <a.dex> <b.dex> [--format text|json]  decide logical equivalence by chasing
                                                 critical instances; inequivalence prints a
                                                 machine-checkable witness and exits 4
  chase    <mapping.dex> <source.json> [--stats] materialize the universal solution
  exchange <mapping.dex> <source.json> [prev.json] [--stats]  lens-engine forward exchange
  backward <mapping.dex> <target.json> <source.json>  propagate target edits back
  compose  <m1.dex> <m2.dex> [--check]           compose two mappings; --check chases the
                                                 critical instances through both routes and
                                                 raises DEX604 on disagreement
  recover  <mapping.dex>                         print the maximum recovery
  query    <mapping.dex> <source.json> "q(x) :- R(x, y)"
                                                 certain answers over the exchange
  resume   <store-dir>                           continue a crashed/exhausted --store run
  migrate  <store-dir> <new-schema.dex> [--dry-run] [--resume]
                                                 crash-safe live schema migration
  fsck     <store-dir> [--repair]                verify a store; --repair truncates a torn WAL
  serve    --map name=mapping.dex …              multi-tenant HTTP daemon (dexd)

resource budgets (chase, exchange, query, resume; with no cap at all,
rounds stop at 10000):
  --timeout <dur>      wall-clock deadline: 500ms, 2s, 1m (bare number = ms)
  --max-rounds <n>     cap on committed chase rounds
  --max-tuples <n>     cap on derived target tuples
  --max-nulls <n>      cap on invented labeled nulls
  --max-memory <size>  approximate target-size cap: 64k, 10m, 1g (bare = bytes)

cost-based admission control (lint, explain, chase, exchange):
  --cards <spec>       assumed per-relation cardinalities for the static
                       cost bounds: Emp=5000,Dept=20,default=100
                       (lint/explain only; chase/exchange measure the
                       real source instance instead)
  --deny-cost <n>      refuse mappings whose predicted headline bound
                       (max of rounds/firings/tuples/nulls) exceeds n:
                       lint raises DEX502; chase/exchange exit 2 without
                       running — non-terminating mappings (DEX501) are
                       refused at every threshold
  --auto-budget        chase/exchange: synthesize --max-rounds/-tuples/
                       -nulls/-memory caps from the predicted bounds
                       (2x safety headroom); on each axis the tighter of
                       an explicit --max-* flag and the synthesized cap
                       wins; unbounded predictions set no caps

crash-safe persistence (chase, exchange):
  --store <dir>          WAL + snapshot every committed round into <dir>
  --snapshot-every <n>   snapshot cadence in rounds (default 64)
  --no-sync              skip fsync (testing only — crashes can lose rounds)

statistics (chase, exchange, resume):
  --stats                counters to stderr after the run
  --format text|json     with --stats: human text (default) or one JSON
                         object ({"stats": …, "exhausted": …|null})

when a budget trips, the partial result (a valid chase prefix) is
printed to stdout, a report goes to stderr, and the exit code is 3;
with --store the partial is durable and `dexcli resume <dir>` continues
it with identical results to an uninterrupted run.

schema migration (migrate):
  dexcli migrate <store-dir> <new-schema.dex> [flags]
    The schema file holds declarations only (target/key lines, no
    rules). The store's current schema is diffed against it; the
    resulting schema-modification operators compile to one migration
    mapping, which runs as a governed, checkpointed chase into
    <store-dir>/migrate/. The live store's bytes change only after a
    checksummed commit marker is durable, so a crash at any instant
    leaves either the old store intact (plus resumable staging) or a
    committed migration that rolls forward idempotently.
    --dry-run            print the diff, compiled mapping, predicted
                         cost bounds, and backward recovery — write nothing
    --resume             continue (or roll forward) a staged migration
    budget / --deny-cost / --auto-budget / --snapshot-every / --no-sync
                         behave exactly as for chase/exchange
    ambiguous diffs, non-first-order compositions, and DEX502 admission
    failures exit 2 before any byte of the store is touched; a budget
    trip exits 3 at a durable boundary (`--resume` continues it).

serving (dexd):
  dexcli serve --map emp=employees.dex [--map …] [mapping.dex …]
    --addr <host:port>       bind address (default 127.0.0.1:0; port printed)
    --workers <n>            worker threads (default 4)
    --queue <n>              accepted-connection queue; full = 429 (default 64)
    --max-inflight <n>       per-mapping in-flight cap; 0 = off (default 8)
    --deny-cost <n>          DEX502 admission ceiling → 422 before chasing
    --no-auto-budget         disable budget synthesis from static bounds
    --drain-deadline <dur>   shutdown drain window (default 5s)
    --store-root <dir>       where {"persist": true} requests write stores
    budget flags (--timeout, --max-*) set the per-request default budget;
    request bodies may tighten it via {"budget": {"timeout": "2s", …}}
  status codes mirror exit codes: 200↔0, 206↔3 (partial + report),
  422↔2 (lint/admission), 429 shed, 500↔70 (panic; mapping quarantined),
  503 draining/quarantined

exit codes:
  0   success
  1   usage, input or output error (e.g. stdout closed early)
  2   lint found errors (after --deny promotion)
  3   budget exhausted — stdout holds a valid partial result
  4   mappings differ (dexcli eq) — stdout holds the counterexample witness
  70  internal panic caught at the process boundary

mapping files use the dex mapping language:
  source Emp(name);
  target Manager(emp, mgr);
  key Manager(emp);
  Emp(x) -> Manager(x, y);

instance JSON: {"Emp": [["Alice"], ["Bob"]]}"#;

/// Remove `--flag value` from `rest` if present; error if the value is
/// missing.
fn take_flag_value(rest: &mut Vec<&String>, flag: &str) -> Result<Option<String>, String> {
    match rest.iter().position(|a| a.as_str() == flag) {
        Some(i) => {
            if i + 1 >= rest.len() {
                return Err(format!("{flag} requires a value"));
            }
            let v = rest.remove(i + 1).clone();
            rest.remove(i);
            Ok(Some(v))
        }
        None => Ok(None),
    }
}

/// Remove a bare boolean `--flag` from `rest`, reporting presence.
fn take_flag(rest: &mut Vec<&String>, flag: &str) -> bool {
    match rest.iter().position(|a| a.as_str() == flag) {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    }
}

/// Remove `--flag value` from `rest` if present, where the value must
/// be one of `allowed`.
fn take_flag_choice(
    rest: &mut Vec<&String>,
    flag: &str,
    allowed: &[&'static str],
) -> Result<Option<&'static str>, String> {
    let Some(v) = take_flag_value(rest, flag)? else {
        return Ok(None);
    };
    if let Some(a) = allowed.iter().find(|a| **a == v) {
        return Ok(Some(a));
    }
    let quoted: Vec<String> = allowed.iter().map(|a| format!("`{a}`")).collect();
    let choices = match quoted.split_last() {
        Some((last, init)) if !init.is_empty() => format!("{} or {last}", init.join(", ")),
        _ => quoted.concat(),
    };
    Err(format!("{flag} takes {choices}, got `{v}`"))
}

/// After flag extraction, anything left that still looks like a flag
/// is unknown — reject it rather than silently treating it as a
/// positional argument.
fn reject_unknown_flags(rest: &[&String]) -> Result<(), String> {
    match rest.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(format!("unknown flag `{flag}`")),
        None => Ok(()),
    }
}

/// What is left of a command's arguments once its flags are taken: the
/// positionals, whose count must lie in `arity`. A leftover flag, too
/// few positionals or a surplus one is a usage error.
fn positionals<'r, 'a>(
    rest: &'r [&'a String],
    arity: RangeInclusive<usize>,
    usage: &str,
) -> Result<&'r [&'a String], String> {
    reject_unknown_flags(rest)?;
    if rest.len() < *arity.start() {
        return Err(usage.into());
    }
    match rest.get(*arity.end()) {
        Some(extra) => Err(format!("unexpected argument `{extra}`\n{usage}")),
        None => Ok(rest),
    }
}

/// Extract the shared budget flags (`--timeout`, `--max-rounds`,
/// `--max-tuples`, `--max-nulls`, `--max-memory`) from an argument
/// list, leaving the positional arguments behind. The flag set and the
/// value grammar come from [`BudgetArgs`] — the same parser `dexd`
/// applies to request-body budget overrides, so the two surfaces
/// cannot drift.
fn extract_budget(rest: &mut Vec<&String>) -> Result<Budget, String> {
    let mut args = BudgetArgs::new();
    for key in BudgetArgs::KEYS {
        if let Some(v) = take_flag_value(rest, &format!("--{key}"))? {
            // BudgetArgs errors start with the bare key name; prefix
            // the CLI's flag syntax back on.
            args.set(key, &v).map_err(|e| format!("--{e}"))?;
        }
    }
    Ok(args.budget())
}

/// Extract the cost-based admission flags shared by `chase`,
/// `exchange` and `migrate` (`--auto-budget`, `--deny-cost <n>`) into
/// the request pipeline's policy. The CLI's default budget is
/// unlimited: only the flags cap a run.
fn extract_policy(rest: &mut Vec<&String>) -> Result<Policy, String> {
    let auto_budget = take_flag(rest, "--auto-budget");
    let deny_cost = match take_flag_value(rest, "--deny-cost")? {
        Some(v) => Some(parse_count(&v, "--deny-cost")?),
        None => None,
    };
    Ok(Policy {
        default_budget: Budget::unlimited(),
        deny_cost,
        auto_budget,
    })
}

/// Admit a run through the shared request pipeline. A DEX502 refusal
/// is reported on stderr and becomes exit 2, like lint. Returns the
/// budget to run with plus the predicted bounds as JSON for `--stats`.
fn admitted_budget(
    policy: &Policy,
    m: &Mapping,
    src: &Instance,
    requested: Budget,
) -> Result<(Budget, Json), ExitCode> {
    match policy.admit(m, src, requested) {
        Ok(admitted) => Ok((admitted.budget, bounds_json(&admitted.bounds))),
        Err(refused) => {
            report_refusal(&refused);
            Err(ExitCode::from(EXIT_LINT))
        }
    }
}

fn report_refusal(r: &Refused) {
    eprintln!(
        "DEX502: predicted chase cost {} exceeds --deny-cost {}; refusing to run",
        r.headline, r.threshold
    );
    let b = &r.bounds;
    eprintln!(
        "  bounds at the measured source: rounds <= {}, firings <= {}, \
         tuples <= {}, nulls <= {}, bytes <= {}",
        b.rounds, b.firings, b.tuples, b.nulls, b.bytes
    );
}

fn bounds_json(bounds: &dex::relational::cost::ChaseBounds) -> Json {
    serde_json::to_value(bounds).unwrap_or(Json::Null)
}

/// `Emp=5000,Dept=20,default=100`: per-relation cardinalities for the
/// static cost bounds, with `default` setting the fallback for
/// unlisted relations.
fn parse_cards(spec: &str) -> Result<SourceStats, String> {
    let bad = |part: &str| {
        format!("--cards takes `Rel=count,…` (optionally `default=count`), got `{part}`")
    };
    let mut stats = SourceStats::uniform(DEFAULT_CARD);
    for part in spec.split(',') {
        let (name, count) = part.split_once('=').ok_or_else(|| bad(part))?;
        let n = count.trim().parse::<u64>().map_err(|_| bad(part))?;
        match name.trim() {
            "default" => stats.default_card = n,
            "" => return Err(bad(part)),
            rel => stats = stats.with_card(rel, n),
        }
    }
    Ok(stats)
}

fn load_mapping(path: &str) -> Result<Mapping, String> {
    load_mapping_text(path).map(|(_, m)| m)
}

/// Like [`load_mapping`] but keeps the source text (persisted verbatim
/// into `--store` directories so `dexcli resume` needs no file paths).
fn load_mapping_text(path: &str) -> Result<(String, Mapping), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let m = parse_mapping(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((text, m))
}

fn build_engine(m: &Mapping) -> Result<Engine, String> {
    let template = compile(m).map_err(|e| e.to_string())?;
    Engine::new(template, Environment::new()).map_err(|e| e.to_string())
}

fn check(m: &Mapping, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "source schema:\n{}", m.source())?;
    writeln!(w, "target schema:\n{}", m.target())?;
    writeln!(w, "st-tgds: {}", m.st_tgds().len())?;
    for t in m.st_tgds() {
        writeln!(w, "  {t}")?;
    }
    if !m.target_egds().is_empty() {
        writeln!(w, "target egds: {}", m.target_egds().len())?;
        for e in m.target_egds() {
            writeln!(w, "  {e}")?;
        }
    }
    if !m.target_tgds().is_empty() {
        let wa = dex::chase::is_weakly_acyclic(m.target_tgds());
        writeln!(
            w,
            "target tgds: {} (weakly acyclic: {})",
            m.target_tgds().len(),
            if wa {
                "yes — chase terminates"
            } else {
                "NO — chase may diverge"
            }
        )?;
    }
    match compile(m) {
        Ok(t) => {
            writeln!(w, "lens compilation: ok ({} holes)", t.holes.len())?;
            write!(w, "{}", t.report)?;
            for h in &t.holes {
                writeln!(w, "  {h}")?;
            }
            Ok(())
        }
        Err(e) => writeln!(w, "lens compilation: UNSUPPORTED\n{e}"),
    }
}

fn load_instance(path: &str, schema: &Schema) -> Result<Instance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json: Json = serde_json::from_str(&text).map_err(|e| format!("{path}: bad JSON: {e}"))?;
    instance_from_json(&json, schema).map_err(|e| format!("{path}: {e}"))
}

/// Open a fresh `--store` directory for a `chase`/`exchange` run.
fn create_store(
    store_opts: &Option<(std::path::PathBuf, StoreOptions)>,
    mode: StoreMode,
    mapping_text: &str,
    src: &Instance,
) -> Result<Option<Store>, String> {
    store_opts
        .as_ref()
        .map(|(dir, opts)| Store::create(dir, mode, mapping_text, src, *opts))
        .transpose()
        .map_err(|e| e.to_string())
}

/// The one way out to stdout: `body` writes one block through a buffer,
/// flushed before `emit` returns so that stderr lines written after it
/// keep their order under `2>&1`. A closed or failing stdout is an
/// error (exit 1), never a panic.
fn emit(
    body: impl FnOnce(&mut BufWriter<StdoutLock<'static>>) -> io::Result<()>,
) -> Result<(), String> {
    let mut w = BufWriter::new(io::stdout().lock());
    body(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("writing stdout: {e}"))
}

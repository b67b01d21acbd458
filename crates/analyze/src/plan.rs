//! `dexcli explain` — render a mapping's execution plan.
//!
//! [`explain`] bundles the structural plan IR from [`dex_core::plan()`]
//! (premise-matching strategy, matcher phase, lens trees, holes) with
//! the position-level [`FlowGraph`] and its provenance closure from
//! [`crate::dataflow`], then renders the result three ways:
//!
//! * [`ExplainReport::render_tree`] — the human-facing annotated tree
//!   (the paper's “show plan capability similar to that used in
//!   relational database engines”),
//! * [`ExplainReport::to_json`] — a stable machine-readable form,
//!   pinned by golden-file tests,
//! * [`ExplainReport::render_dot`] — the flow graph as Graphviz DOT.
//!
//! All three are deterministic: the underlying IR is built from
//! ordered containers and the renderers iterate them in order.

use crate::dataflow::{pos_label, DepRef, FlowClosure, FlowGraph, PosRef};
use dex_chase::TerminationClass;
use dex_core::{CostSection, LensSection, MappingPlan, OptimizedSection, TgdPlan};
use dex_logic::{Mapping, PremisePlan, SourceMap, Span};
use dex_relational::SourceStats;
use dex_rellens::NodeSummary;
use serde_json::{json, Value as Json};
use std::fmt::Write as _;

/// Everything `dexcli explain` knows about one mapping.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The analyzed mapping.
    pub mapping: Mapping,
    /// Source spans, when the mapping came from text.
    pub spans: Option<SourceMap>,
    /// The structural execution plan ([`dex_core::plan()`]).
    pub plan: MappingPlan,
    /// The position-level flow graph.
    pub flow: FlowGraph,
    /// The transitive provenance closure of `flow`.
    pub closure: FlowClosure,
}

/// Build the explain report for `mapping`, with cost bounds evaluated
/// at a uniform cardinality of [`crate::cost::DEFAULT_CARD`].
pub fn explain(mapping: &Mapping, spans: Option<&SourceMap>) -> ExplainReport {
    explain_with(
        mapping,
        spans,
        &SourceStats::uniform(crate::cost::DEFAULT_CARD),
    )
}

/// Build the explain report with cost bounds evaluated at `stats`
/// (`dexcli explain --cards`).
pub fn explain_with(
    mapping: &Mapping,
    spans: Option<&SourceMap>,
    stats: &SourceStats,
) -> ExplainReport {
    let flow = FlowGraph::build(mapping);
    let closure = flow.closure();
    let mut plan = dex_core::plan(mapping);
    plan.cost = Some(crate::cost::cost_section(mapping, stats));
    plan.optimized = Some(optimized_section(mapping));
    ExplainReport {
        mapping: mapping.clone(),
        spans: spans.cloned(),
        plan,
        flow,
        closure,
    }
}

/// Run the verified optimizer and summarize what it would do, for the
/// plan IR's `optimized` section.
pub fn optimized_section(mapping: &Mapping) -> OptimizedSection {
    let outcome = crate::semantic::optimize(mapping);
    OptimizedSection {
        rewrites: outcome
            .rewrites
            .iter()
            .map(|r| r.description.clone())
            .collect(),
        original_size: crate::semantic::mapping_size(mapping),
        optimized_size: crate::semantic::mapping_size(&outcome.mapping),
        refused: outcome.refused,
    }
}

/// Human label for a termination class in the cost section.
fn class_str(c: TerminationClass) -> &'static str {
    match c {
        TerminationClass::WeaklyAcyclic => "weakly acyclic",
        TerminationClass::JointlyAcyclic => "jointly acyclic",
        TerminationClass::Unknown => "unknown (chase may diverge)",
    }
}

/// `1:4` or the empty string.
fn span_suffix(span: Option<Span>) -> String {
    match span {
        Some(s) => format!("  [{s}]"),
        None => String::new(),
    }
}

fn comma<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

impl ExplainReport {
    /// Every target-schema position, in schema order.
    fn target_positions(&self) -> Vec<PosRef> {
        let mut out = Vec::new();
        for rel in self.mapping.target().relations() {
            for pos in 0..rel.arity() {
                out.push(PosRef::new(rel.name().clone(), pos));
            }
        }
        out
    }

    fn label(&self, p: &PosRef) -> String {
        pos_label(&self.mapping, p)
    }

    /// One-line provenance summary for a target position.
    fn provenance_line(&self, p: &PosRef) -> String {
        let mut parts: Vec<String> = self
            .closure
            .sources_of(p)
            .iter()
            .map(|s| self.label(s))
            .collect();
        parts.extend(
            self.closure
                .constants_of(p)
                .iter()
                .map(|c| format!("const '{c}'")),
        );
        if self.closure.invented.contains(p) {
            parts.push("invented null".to_string());
        }
        if parts.is_empty() {
            "(never produced)".to_string()
        } else {
            parts.join(", ")
        }
    }

    fn premise_tree(
        &self,
        out: &mut String,
        indent: &str,
        premise: &PremisePlan,
        atoms: &[String],
    ) {
        for (i, step) in premise.steps.iter().enumerate() {
            let atom = atoms.get(step.atom).map(String::as_str).unwrap_or("<atom>");
            let how = if step.is_scan() {
                format!("scan  {atom}")
            } else {
                format!("probe {atom} on col {}", comma(step.probe_positions.iter()))
            };
            let binds = if step.binds.is_empty() {
                String::new()
            } else {
                format!("   binds {}", comma(step.binds.iter()))
            };
            let _ = writeln!(out, "{indent}step {}: {how}{binds}", i + 1);
        }
    }

    fn flow_tree(&self, out: &mut String, indent: &str, dep: DepRef) {
        let mut any = false;
        for e in self.flow.edges.iter().filter(|e| e.dep == dep) {
            any = true;
            let via = match &e.var {
                Some(v) => format!("  via {v}"),
                None => "  (equality)".to_string(),
            };
            let _ = writeln!(
                out,
                "{indent}{} -> {}{via}",
                self.label(&e.from),
                self.label(&e.to)
            );
        }
        for np in self.flow.null_producers.iter().filter(|n| n.dep == dep) {
            any = true;
            let _ = writeln!(
                out,
                "{indent}invents null at {}  (exists {})",
                self.label(&np.at),
                np.var
            );
        }
        for cs in self.flow.const_sinks.iter().filter(|c| c.dep == dep) {
            any = true;
            let _ = writeln!(
                out,
                "{indent}writes const '{}' at {}",
                cs.value,
                self.label(&cs.at)
            );
        }
        if !any {
            let _ = writeln!(out, "{indent}(none)");
        }
    }

    fn tgd_tree(&self, out: &mut String, t: &TgdPlan, dep: DepRef, span: Option<Span>) {
        let _ = writeln!(out, "{dep}: {}{}", t.display, span_suffix(span));
        let _ = writeln!(out, "  matcher: {}", self.matcher_str(t));
        let _ = writeln!(out, "  premise:");
        self.premise_tree(out, "    ", &t.premise, &t.premise_atoms);
        if t.nulls_per_firing == 0 {
            let _ = writeln!(out, "  invents: nothing");
        } else {
            let _ = writeln!(
                out,
                "  invents: {} null(s) per firing  (exists {})",
                t.nulls_per_firing,
                comma(t.existentials.iter())
            );
        }
        let _ = writeln!(out, "  flow:");
        self.flow_tree(out, "    ", dep);
        if let Some(f) = &t.fidelity {
            let _ = writeln!(out, "  lens fidelity: {f}");
        }
    }

    fn matcher_str(&self, t: &TgdPlan) -> &'static str {
        t.matcher.as_str()
    }

    fn lens_node_tree(&self, out: &mut String, base_indent: &str, nodes: &[NodeSummary]) {
        for n in nodes {
            let depth = if n.path.is_empty() {
                0
            } else {
                n.path.matches('.').count() + 1
            };
            let indent = "  ".repeat(depth);
            let mut line = format!("{base_indent}{indent}{} {}", n.kind, n.detail);
            if let Some(p) = &n.policy {
                let _ = write!(line, "  [{p}]");
            }
            if !n.policies.is_empty() {
                let _ = write!(
                    line,
                    "  [{}]",
                    n.policies
                        .iter()
                        .map(|(a, p)| format!("{a}: {p}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            let _ = writeln!(out, "{line}");
        }
    }

    /// The static cost bounds, as a tree section.
    fn cost_tree(&self, out: &mut String, c: &CostSection) {
        let _ = writeln!(
            out,
            "cost (assumed cardinality {} per relation unless listed):",
            c.default_card
        );
        if !c.assumed_cards.is_empty() {
            let cards = c
                .assumed_cards
                .iter()
                .map(|(n, k)| format!("{n}={k}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "  cards: {cards}");
        }
        let _ = writeln!(out, "  termination: {}", class_str(c.class));
        let _ = writeln!(
            out,
            "  null strata <= {}   value universe <= {}",
            c.strata, c.value_universe
        );
        for (i, b) in c.st_tgd_firings.iter().enumerate() {
            let _ = writeln!(out, "  st-tgd #{i} firings <= {b}");
        }
        for (i, b) in c.target_tgd_firings.iter().enumerate() {
            let _ = writeln!(out, "  target tgd #{i} firings <= {b}");
        }
        for (pos, b) in &c.nulls_per_position {
            let _ = writeln!(out, "  nulls at {pos} <= {b}");
        }
        for (rel, b) in &c.tuples_per_relation {
            let _ = writeln!(out, "  tuples in {rel} <= {b}");
        }
        let _ = writeln!(
            out,
            "  totals: rounds <= {}, firings <= {}, tuples <= {}, nulls <= {}, bytes <= {}",
            c.bounds.rounds, c.bounds.firings, c.bounds.tuples, c.bounds.nulls, c.bounds.bytes
        );
    }

    /// The human-facing annotated plan tree.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let p = &self.plan;
        let _ = writeln!(
            out,
            "mapping plan: {} st-tgd(s), {} target tgd(s), {} target egd(s)",
            p.st_tgds.len(),
            p.target_tgds.len(),
            p.target_egds.len()
        );
        let _ = writeln!(out);
        for t in &p.st_tgds {
            let span = self
                .spans
                .as_ref()
                .and_then(|sm| sm.st_tgds.get(t.index))
                .copied();
            self.tgd_tree(&mut out, t, DepRef::St(t.index), span);
        }
        for t in &p.target_tgds {
            let span = self
                .spans
                .as_ref()
                .and_then(|sm| sm.target_tgds.get(t.index))
                .copied();
            self.tgd_tree(&mut out, t, DepRef::Target(t.index), span);
        }
        for e in &p.target_egds {
            let span = self
                .spans
                .as_ref()
                .and_then(|sm| sm.target_egds.get(e.index))
                .copied();
            let _ = writeln!(out, "egd #{}: {}{}", e.index, e.display, span_suffix(span));
            let _ = writeln!(out, "  matcher: indexed, delta-driven (semi-naive)");
            let _ = writeln!(out, "  premise:");
            let atoms: Vec<String> = self
                .mapping
                .target_egds()
                .get(e.index)
                .map(|egd| egd.lhs.iter().map(|a| a.to_string()).collect())
                .unwrap_or_default();
            self.premise_tree(&mut out, "    ", &e.premise, &atoms);
            let _ = writeln!(out, "  flow:");
            self.flow_tree(&mut out, "    ", DepRef::Egd(e.index));
        }
        let _ = writeln!(out, "lens template:");
        match &p.lens {
            LensSection::Available { relations, holes } => {
                for r in relations {
                    let _ = writeln!(out, "  {}  view({})", r.target_rel, comma(r.view.iter()));
                    let _ = writeln!(out, "    source lens:");
                    self.lens_node_tree(&mut out, "      ", &r.source_nodes);
                    let _ = writeln!(out, "    target lens:");
                    self.lens_node_tree(&mut out, "      ", &r.target_nodes);
                }
                if holes.is_empty() {
                    let _ = writeln!(out, "  holes: none");
                } else {
                    let _ = writeln!(out, "  holes:");
                    for h in holes {
                        let _ = writeln!(
                            out,
                            "    #{} [{}] {}  (current: {})",
                            h.id, h.target_rel, h.question, h.current
                        );
                    }
                }
            }
            LensSection::Unavailable { reasons } => {
                let _ = writeln!(out, "  unavailable (outside the compilable fragment):");
                for r in reasons {
                    let _ = writeln!(out, "    - {r}");
                }
            }
        }
        if let Some(c) = &p.cost {
            let _ = writeln!(out);
            self.cost_tree(&mut out, c);
        }
        if let Some(o) = &p.optimized {
            let _ = writeln!(out);
            let _ = writeln!(out, "optimized (verified rewrites):");
            match &o.refused {
                Some(reason) => {
                    let _ = writeln!(out, "  refused: {reason}");
                }
                None if o.rewrites.is_empty() => {
                    let _ = writeln!(out, "  already minimal under the implemented rewrites");
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {} atoms / {} deps  ->  {} atoms / {} deps",
                        o.original_size.0,
                        o.original_size.1,
                        o.optimized_size.0,
                        o.optimized_size.1
                    );
                    for r in &o.rewrites {
                        let _ = writeln!(out, "  - {r}");
                    }
                }
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "provenance (per target position):");
        for p in self.target_positions() {
            let _ = writeln!(out, "  {} <= {}", self.label(&p), self.provenance_line(&p));
        }
        out
    }

    /// The stable machine-readable form (pinned by golden tests).
    pub fn to_json(&self) -> Json {
        let edges: Vec<Json> = self
            .flow
            .edges
            .iter()
            .map(|e| {
                json!({
                    "from": e.from.to_string(),
                    "from_label": self.label(&e.from),
                    "to": e.to.to_string(),
                    "to_label": self.label(&e.to),
                    "var": e.var.as_ref().map_or(Json::Null, |v| Json::String(v.to_string())),
                    "dep": e.dep.to_string(),
                })
            })
            .collect();
        let null_producers: Vec<Json> = self
            .flow
            .null_producers
            .iter()
            .map(|n| {
                json!({
                    "at": n.at.to_string(),
                    "label": self.label(&n.at),
                    "var": n.var.to_string(),
                    "dep": n.dep.to_string(),
                })
            })
            .collect();
        let const_sinks: Vec<Json> = self
            .flow
            .const_sinks
            .iter()
            .map(|c| {
                json!({
                    "at": c.at.to_string(),
                    "label": self.label(&c.at),
                    "value": c.value.to_string(),
                    "dep": c.dep.to_string(),
                })
            })
            .collect();
        let provenance: Vec<Json> = self
            .target_positions()
            .iter()
            .map(|p| {
                json!({
                    "position": p.to_string(),
                    "label": self.label(p),
                    "sources": self
                        .closure
                        .sources_of(p)
                        .iter()
                        .map(|s| self.label(s))
                        .collect::<Vec<_>>(),
                    "constants": self
                        .closure
                        .constants_of(p)
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>(),
                    "invented": self.closure.invented.contains(p),
                })
            })
            .collect();
        let plan = serde_json::to_value(&self.plan).unwrap_or(Json::Null);
        let flow = json!({
            "edges": edges,
            "null_producers": null_producers,
            "const_sinks": const_sinks,
        });
        json!({
            "plan": plan,
            "flow": flow,
            "provenance": provenance,
        })
    }

    /// The flow graph as Graphviz DOT.
    pub fn render_dot(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        let _ = writeln!(out, "digraph dex_flow {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [fontname=\"monospace\"];");
        // Position nodes: every schema position mentioned by the graph,
        // plus every target position (so never-produced columns show).
        let mut positions: Vec<PosRef> = self.target_positions();
        for e in &self.flow.edges {
            positions.push(e.from.clone());
            positions.push(e.to.clone());
        }
        for n in &self.flow.null_producers {
            positions.push(n.at.clone());
        }
        for c in &self.flow.const_sinks {
            positions.push(c.at.clone());
        }
        positions.sort();
        positions.dedup();
        for p in &positions {
            let shape = if self.flow.is_source(p) {
                "box"
            } else {
                "ellipse"
            };
            let _ = writeln!(
                out,
                "  \"{}\" [shape={shape}, label=\"{}\"];",
                esc(&p.to_string()),
                esc(&self.label(p))
            );
        }
        for e in &self.flow.edges {
            let label = match &e.var {
                Some(v) => format!("{v} ({})", e.dep),
                None => format!("({})", e.dep),
            };
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\"];",
                esc(&e.from.to_string()),
                esc(&e.to.to_string()),
                esc(&label)
            );
        }
        for (i, n) in self.flow.null_producers.iter().enumerate() {
            let id = format!("null_{i}");
            let _ = writeln!(
                out,
                "  \"{id}\" [shape=diamond, style=dashed, label=\"exists {}\"];",
                esc(n.var.as_str())
            );
            let _ = writeln!(
                out,
                "  \"{id}\" -> \"{}\" [style=dashed, label=\"({})\"];",
                esc(&n.at.to_string()),
                esc(&n.dep.to_string())
            );
        }
        for (i, c) in self.flow.const_sinks.iter().enumerate() {
            let id = format!("const_{i}");
            let _ = writeln!(
                out,
                "  \"{id}\" [shape=note, label=\"'{}'\"];",
                esc(&c.value.to_string())
            );
            let _ = writeln!(
                out,
                "  \"{id}\" -> \"{}\" [label=\"({})\"];",
                esc(&c.at.to_string()),
                esc(&c.dep.to_string())
            );
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::parse_mapping_with_spans;

    fn report(src: &str) -> ExplainReport {
        let (m, sm) = parse_mapping_with_spans(src).unwrap();
        explain(&m, Some(&sm))
    }

    #[test]
    fn tree_covers_plan_flow_lens_and_provenance() {
        let r = report(
            "source Emp(name, dept);\nsource Dept(dept, mgr);\n\
             target Worker(name, dept, mgr);\n\
             Emp(n, d) & Dept(d, m) -> Worker(n, d, m);",
        );
        let t = r.render_tree();
        assert!(t.contains("st-tgd #0:"), "{t}");
        assert!(t.contains("indexed full pass"), "{t}");
        assert!(t.contains("probe Dept(d, m) on col 0"), "{t}");
        assert!(t.contains("Emp.name -> Worker.name  via n"), "{t}");
        assert!(t.contains("lens fidelity: exact"), "{t}");
        assert!(t.contains("Worker.mgr <= Dept.mgr"), "{t}");
    }

    #[test]
    fn tree_reports_nulls_and_spans() {
        let r = report("source R(a);\ntarget T(a, b);\nR(x) -> T(x, y);");
        let t = r.render_tree();
        assert!(
            t.contains("invents: 1 null(s) per firing  (exists y)"),
            "{t}"
        );
        assert!(t.contains("[3:1]"), "{t}");
        assert!(t.contains("T.b <= invented null"), "{t}");
    }

    #[test]
    fn tree_survives_uncompilable_mappings() {
        let r = report("source S(a, b);\ntarget T(a, c);\nS(x, y) & S(y, z) -> T(x, z);");
        let t = r.render_tree();
        assert!(
            t.contains("unavailable (outside the compilable fragment)"),
            "{t}"
        );
        assert!(t.contains("self-join"), "{t}");
    }

    #[test]
    fn tree_covers_target_dependencies_and_egds() {
        let r = report(
            "source R(a);\ntarget S(a);\ntarget T(a, b);\nkey T(a);\n\
             R(x) -> S(x);\nS(x) -> T(x, y);",
        );
        let t = r.render_tree();
        assert!(t.contains("target tgd #0:"), "{t}");
        assert!(t.contains("indexed, delta-driven (semi-naive)"), "{t}");
        assert!(t.contains("egd #0:"), "{t}");
    }

    #[test]
    fn tree_renders_cost_section() {
        let r = report("source R(a);\ntarget T(a, b);\nR(x) -> T(x, y);");
        let t = r.render_tree();
        assert!(
            t.contains("cost (assumed cardinality 1000 per relation unless listed):"),
            "{t}"
        );
        assert!(t.contains("termination: weakly acyclic"), "{t}");
        assert!(t.contains("st-tgd #0 firings <= 1000"), "{t}");
        assert!(t.contains("nulls at T.1 <= 1000"), "{t}");
        assert!(t.contains("totals: rounds <="), "{t}");
    }

    #[test]
    fn cost_section_respects_supplied_stats() {
        let (m, sm) =
            parse_mapping_with_spans("source R(a);\ntarget T(a, b);\nR(x) -> T(x, y);").unwrap();
        let stats = dex_relational::SourceStats::uniform(7).with_card("R", 3);
        let r = explain_with(&m, Some(&sm), &stats);
        let t = r.render_tree();
        assert!(
            t.contains("cost (assumed cardinality 7 per relation unless listed):"),
            "{t}"
        );
        assert!(t.contains("cards: R=3"), "{t}");
        assert!(t.contains("st-tgd #0 firings <= 3"), "{t}");
    }

    #[test]
    fn unknown_termination_renders_unbounded_cost() {
        let r = report("source R(a);\ntarget S(a, b);\nR(x) -> S(x, x);\nS(x, y) -> S(y, z);");
        let t = r.render_tree();
        assert!(
            t.contains("termination: unknown (chase may diverge)"),
            "{t}"
        );
        assert!(t.contains("value universe <= unbounded"), "{t}");
        assert!(t.contains("totals: rounds <= unbounded"), "{t}");
    }

    #[test]
    fn json_shape_is_stable() {
        let r = report("source R(a);\ntarget T(a, b);\nR(x) -> T(x, y);");
        let j = r.to_json();
        assert!(j["plan"]["st_tgds"][0]["premise"]["steps"]
            .as_array()
            .is_some());
        assert_eq!(j["flow"]["edges"][0]["from_label"].as_str(), Some("R.a"));
        assert_eq!(j["flow"]["null_producers"][0]["var"].as_str(), Some("y"));
        assert_eq!(j["provenance"][1]["invented"].as_bool(), Some(true));
        assert_eq!(j["provenance"][0]["sources"][0].as_str(), Some("R.a"));
        assert_eq!(j["plan"]["cost"]["default_card"].as_u64(), Some(1000));
        assert!(j["plan"]["cost"]["bounds"]["nulls"].as_u64().is_some());
    }

    #[test]
    fn dot_is_valid_ish_and_deterministic() {
        let r = report("source R(a);\ntarget T(a, b);\nR(x) -> T(x, 'v\"q');");
        let d = r.render_dot();
        assert!(d.starts_with("digraph dex_flow {"), "{d}");
        assert!(d.contains("shape=box"), "{d}");
        assert!(d.contains("\\\"q"), "escapes quotes: {d}");
        assert_eq!(d, r.render_dot());
    }

    #[test]
    fn renders_for_empty_mapping() {
        let r = report("source R(a);\ntarget T(a);\n");
        let t = r.render_tree();
        assert!(t.contains("0 st-tgd(s)"), "{t}");
        assert!(t.contains("T.a <= (never produced)"), "{t}");
    }
}

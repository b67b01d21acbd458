//! The `.dex` printer — the inverse of [`crate::parse_mapping`].
//!
//! Mapping text printed here is persisted verbatim into stores and
//! re-parsed on resume, and `dexcli optimize --emit` writes it, so it
//! must round-trip: `parse_mapping(&render_mapping_dex(m)) == m`.
//! The `key R(a);` shorthand is a functional dependency on the schema
//! plus the egds it expands to; [`keys`] and [`key_egds`] are the one
//! definition of both halves, shared with the parser.

use crate::mapping::Mapping;
use crate::tgd::{Egd, StTgd};
use crate::Atom;
use dex_relational::{Fd, Name, RelSchema, Schema};
use std::collections::BTreeSet;

/// The keys of `rel`: its FDs whose two sides together cover every
/// attribute — what a `key` declaration adds.
pub fn keys(rel: &RelSchema) -> impl Iterator<Item = &Fd> {
    let all: BTreeSet<Name> = rel.attr_names().cloned().collect();
    rel.fds().iter().filter(move |fd| fd.attributes() == all)
}

/// The egds a key on the attributes `key` of `rel` expands to: one per
/// non-key position.
pub fn key_egds(rel: &RelSchema, key: &[Name]) -> Vec<Egd> {
    let positions: Vec<usize> = key
        .iter()
        .filter_map(|a| rel.position(a.as_str()))
        .collect();
    Egd::key(rel.name().as_str(), rel.arity(), &positions)
}

/// The egds every key of `schema` expands to, relation by relation.
pub fn schema_key_egds(schema: &Schema) -> Vec<Egd> {
    schema
        .relations()
        .flat_map(|rel| keys(rel).flat_map(move |fd| key_egds(rel, fd.lhs())))
        .collect()
}

fn side_dex(atoms: &[Atom]) -> String {
    atoms
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(" & ")
}

/// Render a tgd as one parseable `.dex` rule line (no trailing
/// newline), including the terminating `;` — the form rule spans
/// cover, so `--fix` replacements slot in exactly.
pub fn tgd_dex(tgd: &StTgd) -> String {
    format!("{} -> {};", side_dex(&tgd.lhs), side_dex(&tgd.rhs))
}

/// Render an egd as one parseable `.dex` rule line (see [`tgd_dex`]).
pub fn egd_dex(egd: &Egd) -> String {
    let eqs = egd
        .equalities
        .iter()
        .map(|(a, b)| format!("{a} = {b}"))
        .collect::<Vec<_>>()
        .join(" & ");
    format!("{} -> {};", side_dex(&egd.lhs), eqs)
}

fn decl_line(out: &mut String, kw: &str, rel: &RelSchema) {
    let attrs = rel
        .attr_names()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!("{kw} {}({});\n", rel.name(), attrs));
}

/// Render a schema as target declarations plus their `key` lines: the
/// meta text a migrated store carries, parseable back into a rule-less
/// mapping whose target is the schema.
pub fn render_schema_dex(schema: &Schema) -> String {
    let mut out = String::new();
    for rel in schema.relations() {
        decl_line(&mut out, "target", rel);
        for fd in keys(rel) {
            let key = fd
                .lhs()
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("key {}({});\n", rel.name(), key));
        }
    }
    out
}

/// Render a whole mapping as parseable `.dex` text: declarations, key
/// shorthands for FD-backed egds, rules, and explicit egd rules for
/// everything the `key` lines do not regenerate.
pub fn render_mapping_dex(m: &Mapping) -> String {
    let mut out = String::new();
    for rel in m.source().relations() {
        decl_line(&mut out, "source", rel);
    }
    out.push_str(&render_schema_dex(m.target()));
    for t in m.st_tgds().iter().chain(m.target_tgds()) {
        out.push_str(&tgd_dex(t));
        out.push('\n');
    }
    let from_keys = schema_key_egds(m.target());
    for e in m.target_egds() {
        if !from_keys.contains(e) {
            out.push_str(&egd_dex(e));
            out.push('\n');
        }
    }
    out
}

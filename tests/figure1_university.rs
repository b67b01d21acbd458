//! E2 — paper §2 Figure 1: the visual correspondence diagram over the
//! university schemas, compiled to the two st-tgds printed in the
//! paper, then executed.

use dex::chase::{certain_answers, exchange, ConjunctiveQuery, Governor};
use dex::logic::{Atom, CorrespondenceGroup, CorrespondenceSet, Mapping};
use dex::relational::{tuple, Instance, RelSchema, Schema};

fn schemas() -> (Schema, Schema) {
    let source = Schema::with_relations(vec![
        RelSchema::untyped("Takes", vec!["name", "course"]).unwrap(),
        RelSchema::untyped("SrcStudent", vec!["id", "name"]).unwrap(),
        RelSchema::untyped("SrcAssgn", vec!["name", "course"]).unwrap(),
    ])
    .unwrap();
    let target = Schema::with_relations(vec![
        RelSchema::untyped("Student", vec!["id", "name"]).unwrap(),
        RelSchema::untyped("Assgn", vec!["name", "course"]).unwrap(),
        RelSchema::untyped("Enrollment", vec!["id", "course"]).unwrap(),
    ])
    .unwrap();
    (source, target)
}

fn figure1() -> CorrespondenceSet {
    CorrespondenceSet::new(vec![
        // Upper part: Takes → Student ∧ Assgn.
        CorrespondenceGroup::new(vec!["Takes"], vec!["Student", "Assgn"])
            .arrow(("Takes", "name"), ("Student", "name"))
            .arrow(("Takes", "name"), ("Assgn", "name"))
            .arrow(("Takes", "course"), ("Assgn", "course")),
        // Lower part: Student ⋈ Assgn → Enrollment.
        CorrespondenceGroup::new(vec!["SrcStudent", "SrcAssgn"], vec!["Enrollment"])
            .join_source(("SrcStudent", "name"), ("SrcAssgn", "name"))
            .arrow(("SrcStudent", "id"), ("Enrollment", "id"))
            .arrow(("SrcAssgn", "course"), ("Enrollment", "course")),
    ])
}

#[test]
fn diagram_compiles_to_paper_tgds() {
    let (source, target) = schemas();
    let tgds = figure1().compile(&source, &target).unwrap();
    assert_eq!(tgds.len(), 2);
    assert_eq!(
        tgds[0].to_string(),
        "∀x,y (Takes(x, y) → ∃z Student(z, x) ∧ Assgn(x, y))"
    );
    assert_eq!(
        tgds[1].to_string(),
        "∀x,y,w (SrcStudent(x, y) ∧ SrcAssgn(y, w) → Enrollment(x, w))"
    );
}

#[test]
fn exchange_through_figure1() {
    let (source, target) = schemas();
    let tgds = figure1().compile(&source, &target).unwrap();
    let mapping = Mapping::new(source, target, tgds).unwrap();
    let src = Instance::with_facts(
        mapping.source().clone(),
        vec![
            ("Takes", vec![tuple!["Alice", "DB"], tuple!["Bob", "PL"]]),
            (
                "SrcStudent",
                vec![tuple![7i64, "Carol"], tuple![8i64, "Dan"]],
            ),
            (
                "SrcAssgn",
                vec![tuple!["Carol", "Math"], tuple!["Dan", "Art"]],
            ),
        ],
    )
    .unwrap();
    let res = exchange(&mapping, &src).unwrap();
    let j = &res.target;
    assert!(mapping.is_solution(&src, j));

    // Upper tgd: Assgn facts ground, Student ids are nulls.
    assert!(j.contains("Assgn", &tuple!["Alice", "DB"]));
    assert!(j.contains("Assgn", &tuple!["Bob", "PL"]));
    assert_eq!(j.relation("Student").unwrap().len(), 2);
    for t in j.relation("Student").unwrap().iter() {
        assert!(t[0].is_null(), "student ids are invented");
        assert!(t[1].is_const());
    }

    // Lower tgd: Enrollment is fully determined by the join.
    assert!(j.contains("Enrollment", &tuple![7i64, "Math"]));
    assert!(j.contains("Enrollment", &tuple![8i64, "Art"]));
    assert_eq!(j.relation("Enrollment").unwrap().len(), 2);
}

#[test]
fn certain_answers_over_figure1() {
    let (source, target) = schemas();
    let tgds = figure1().compile(&source, &target).unwrap();
    let mapping = Mapping::new(source, target, tgds).unwrap();
    let src = Instance::with_facts(
        mapping.source().clone(),
        vec![("Takes", vec![tuple!["Alice", "DB"]])],
    )
    .unwrap();
    let j = exchange(&mapping, &src).unwrap().target;

    // “Which students exist?” has no certain answers by id (all ids
    // are nulls), but by name it does.
    let by_id = ConjunctiveQuery::new(vec!["i"], vec![Atom::vars("Student", &["i", "n"])]).unwrap();
    let gov = Governor::unlimited();
    assert!(certain_answers(&by_id, &j, &gov).0.is_empty());
    let by_name =
        ConjunctiveQuery::new(vec!["n"], vec![Atom::vars("Student", &["i", "n"])]).unwrap();
    let ans = certain_answers(&by_name, &j, &gov).0;
    assert_eq!(ans.len(), 1);
    assert!(ans.contains(&tuple!["Alice"]));
}

#[test]
fn join_lines_change_the_compiled_join() {
    // Without the join line the lower diagram would produce a cartesian
    // product — the tgds genuinely differ.
    let (source, target) = schemas();
    let no_join = CorrespondenceGroup::new(vec!["SrcStudent", "SrcAssgn"], vec!["Enrollment"])
        .arrow(("SrcStudent", "id"), ("Enrollment", "id"))
        .arrow(("SrcAssgn", "course"), ("Enrollment", "course"))
        .compile(&source, &target)
        .unwrap();
    let with_join = figure1().groups[1].compile(&source, &target).unwrap();
    assert_ne!(no_join, with_join);
    // The unjoined variant has 4 distinct variables on the left.
    assert_eq!(no_join.lhs_vars().len(), 4);
    assert_eq!(with_join.lhs_vars().len(), 3);
}

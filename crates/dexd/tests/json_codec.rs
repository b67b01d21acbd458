//! The streaming instance writer against its oracle: `write_instance`
//! must give exactly the bytes of rendering `instance_to_json`'s tree,
//! pretty (dexcli) and compact (dexd), and `splice_instance` exactly
//! the bytes of the envelope object with that tree inserted. The five
//! instance-bearing dexd responses are then driven through a live
//! daemon.

mod common;

use common::{request, TempDir, COPY, EMPLOYEES};
use dex_relational::{Instance, Name, RelSchema, Schema, Tuple, Value};
use dexd::json::{
    instance_to_json, splice_instance, value_to_json, write_instance, write_rows, Style,
};
use dexd::{Catalog, ServerConfig, ServerHandle};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use serde_json::{json, Map, Value as Json};

/// Characters that stress the escaper: every control character the
/// writer spells as `\u00xx`, the five short escapes' characters,
/// DEL (not escaped), and non-ASCII text of two and four UTF-8 bytes.
static CHARS: [char; 41] = [
    '\u{1}', '\u{2}', '\u{3}', '\u{4}', '\u{5}', '\u{6}', '\u{7}', '\u{8}', '\t', '\n', '\u{b}',
    '\u{c}', '\r', '\u{e}', '\u{f}', '\u{10}', '\u{11}', '\u{12}', '\u{13}', '\u{14}', '\u{15}',
    '\u{16}', '\u{17}', '\u{18}', '\u{19}', '\u{1a}', '\u{1b}', '\u{1c}', '\u{1d}', '\u{1e}',
    '\u{1f}', '"', '\\', '/', ' ', 'a', 'Z', '0', '\u{7f}', 'é', '😀',
];

/// Relation names, some of which need escaping as object keys.
static RELATIONS: [&str; 8] = [
    "A",
    "B",
    "Ré",
    "Z😀",
    "back\\slash",
    "ctl\u{1}\t",
    "q\"uote",
    "émoji😀",
];

static FUNCTIONS: [&str; 3] = ["f", "g\"", "ƒ"];

fn text() -> impl Strategy<Value = String> {
    vec(select(&CHARS), 0..6).prop_map(|cs| cs.into_iter().collect())
}

fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::int),
        any::<bool>().prop_map(Value::bool),
        text().prop_map(Value::str),
        text().prop_map(Value::str),
        (0u64..40).prop_map(Value::null),
        any::<u64>().prop_map(Value::null),
    ]
}

fn skolem<S: Strategy<Value = Value> + 'static>(args: S) -> impl Strategy<Value = Value> {
    (select(&FUNCTIONS), vec(args, 0..3)).prop_map(|(f, args)| Value::Skolem(Name::new(f), args))
}

/// A cell: mostly constants and nulls, with Skolem terms nested up to
/// two deep.
fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        leaf(),
        leaf(),
        leaf(),
        skolem(leaf()),
        skolem(prop_oneof![leaf(), skolem(leaf())]),
    ]
}

/// Up to four relations of arity 0–3 with up to four rows each, so
/// empty relations, zero-arity rows and the empty instance all occur.
fn instance() -> impl Strategy<Value = Instance> {
    vec(
        (select(&RELATIONS), 0usize..4, vec(vec(cell(), 3..4), 0..5)),
        0..5,
    )
    .prop_map(|rels| {
        let mut schema = Schema::new();
        let mut facts = Vec::new();
        for (name, arity, rows) in rels {
            if schema.relation(name).is_some() {
                continue;
            }
            let attrs: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
            schema
                .add_relation(RelSchema::untyped(name, attrs).unwrap())
                .unwrap();
            for mut row in rows {
                row.truncate(arity);
                facts.push((name, Tuple::from(row)));
            }
        }
        let mut inst = Instance::empty(schema);
        for (name, t) in facts {
            inst.insert(name, t).unwrap();
        }
        inst
    })
}

fn written(inst: &Instance, style: Style) -> String {
    let mut out = Vec::new();
    write_instance(inst, &mut out, style).unwrap();
    String::from_utf8(out).unwrap()
}

/// The envelope keys of each instance-bearing response besides `v`,
/// `mapping` and `op`, and the key the instance goes under.
fn shapes() -> Vec<(&'static str, Map<String, Json>)> {
    let stats = json!({"v": 1, "rounds": 2, "firings": 3});
    let report = json!({"v": 1, "reason": "tuples", "limit": 1});
    let base = |op: &str| {
        let mut m = Map::new();
        m.insert("v".into(), json!(1));
        m.insert("mapping".into(), json!("m\"é"));
        m.insert("op".into(), json!(op));
        m
    };
    let mut chase_200 = base("chase");
    chase_200.insert("store".into(), json!("/runs/m/run-0"));
    chase_200.insert("stats".into(), stats.clone());
    let mut chase_206 = base("chase");
    chase_206.insert("exhausted".into(), report.clone());
    chase_206.insert("stats".into(), stats);
    let exchange_200 = base("exchange");
    let mut exchange_206 = base("exchange");
    exchange_206.insert("exhausted".into(), report);
    let put_200 = base("put");
    vec![
        ("target", chase_200),
        ("partial", chase_206),
        ("target", exchange_200),
        ("partial", exchange_206),
        ("source", put_200),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_the_rendered_tree(inst in instance()) {
        let tree = instance_to_json(&inst);
        prop_assert_eq!(
            written(&inst, Style::Pretty),
            serde_json::to_string_pretty(&tree).unwrap()
        );
        prop_assert_eq!(written(&inst, Style::Compact), tree.to_string());
    }

    /// `dexcli query`'s answers: every row of every relation, in
    /// order, as one array of rows.
    #[test]
    fn row_writer_matches_the_rendered_array(inst in instance()) {
        let rows: Vec<Tuple> = inst.relations().flat_map(|r| r.iter()).collect();
        let tree = Json::Array(
            rows.iter()
                .map(|t| Json::Array(t.iter().map(value_to_json).collect()))
                .collect(),
        );
        for (style, want) in [
            (Style::Pretty, serde_json::to_string_pretty(&tree).unwrap()),
            (Style::Compact, tree.to_string()),
        ] {
            let mut out = Vec::new();
            write_rows(&rows, &mut out, style).unwrap();
            prop_assert_eq!(String::from_utf8(out).unwrap(), want);
        }
    }

    #[test]
    fn splice_matches_the_rendered_envelope(inst in instance()) {
        for (key, envelope) in shapes() {
            let mut whole = envelope.clone();
            whole.insert(key.into(), instance_to_json(&inst));
            prop_assert_eq!(
                String::from_utf8(splice_instance(&envelope, key, &inst)).unwrap(),
                Json::Object(whole).to_string()
            );
        }
    }
}

#[test]
fn empty_instances_and_zero_arity_rows() {
    let mut schema = Schema::new();
    schema
        .add_relation(RelSchema::untyped("Unit", Vec::<&str>::new()).unwrap())
        .unwrap();
    schema
        .add_relation(RelSchema::untyped("Empty", vec!["a"]).unwrap())
        .unwrap();
    let mut inst = Instance::empty(schema);
    assert_eq!(written(&inst, Style::Pretty), "{}");
    assert_eq!(written(&inst, Style::Compact), "{}");
    inst.insert("Unit", Tuple::from(Vec::new())).unwrap();
    assert_eq!(
        written(&inst, Style::Pretty),
        "{\n  \"Unit\": [\n    []\n  ]\n}"
    );
    assert_eq!(written(&inst, Style::Compact), r#"{"Unit":[[]]}"#);
}

#[test]
fn nulls_and_skolem_terms_keep_their_key_order() {
    let mut schema = Schema::new();
    schema
        .add_relation(RelSchema::untyped("R", vec!["a", "b"]).unwrap())
        .unwrap();
    let mut inst = Instance::empty(schema);
    let term = Value::Skolem(Name::new("f"), vec![Value::null(7), Value::int(-3)]);
    inst.insert("R", Tuple::from(vec![term, Value::null(0)]))
        .unwrap();
    assert_eq!(
        written(&inst, Style::Compact),
        r#"{"R":[[{"args":[{"null":7},-3],"skolem":"f"},{"null":0}]]}"#
    );
}

fn spawn(specs: &[(&str, &str)], tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::default();
    tweak(&mut config);
    ServerHandle::spawn(config, Catalog::from_texts(specs).unwrap()).unwrap()
}

/// Two lens passes: a one-tuple budget trips between them, so exchange
/// answers 206 with the first relation only.
const TWO_PASSES: &str = "source A(x);\nsource C(x);\ntarget B(x);\ntarget D(x);\n\
                          A(v) -> B(v);\nC(v) -> D(v);";

/// Each instance-bearing response over a live daemon: the body is the
/// compact rendering of its own parse (keys sorted, the instance at
/// its key's place, no whitespace), and the instance is the expected
/// one.
#[test]
fn instance_bearing_responses_render_like_their_tree() {
    let root = TempDir::new("json-codec-store");
    let srv = spawn(
        &[("emp", EMPLOYEES), ("copy", COPY), ("two", TWO_PASSES)],
        |c| c.store_root = Some(root.to_path_buf()),
    );
    let addr = srv.addr();
    let emp_source =
        r#"{"Emp":[["ann","eng"],["bö\"b","ops"]],"Dept":[["eng","dana"],["ops","e\u0001"]]}"#;
    let put_body = r#"{"target":{"Worker":[["ann","eng","carol"]]},
                       "source":{"Emp":[["ann","eng"]],"Dept":[["eng","bob"]]}}"#;
    let cases = [
        (
            "copy/chase",
            r#"{"source":{"A":[["p"],["q"]]},"persist":true}"#.to_string(),
            200,
            "target",
            r#"{"B": [["p"], ["q"]]}"#,
        ),
        (
            "copy/chase",
            r#"{"source":{"A":[["p"],["q"],["r"]]},"budget":{"max-tuples":1}}"#.to_string(),
            206,
            "partial",
            r#"{"B": [["p"], ["q"]]}"#,
        ),
        (
            "emp/exchange",
            format!(r#"{{"source":{emp_source}}}"#),
            200,
            "target",
            r#"{"Worker": [["ann", "eng", "dana"], ["bö\"b", "ops", "e\u0001"]]}"#,
        ),
        (
            "two/exchange",
            r#"{"source":{"A":[["p"],["q"]],"C":[["r"]]},"budget":{"max-tuples":1}}"#.to_string(),
            206,
            "partial",
            r#"{"B": [["p"], ["q"]]}"#,
        ),
        (
            "emp/put",
            put_body.to_string(),
            200,
            "source",
            r#"{"Emp": [["ann", "eng"]], "Dept": [["eng", "carol"]]}"#,
        ),
    ];
    for (path, body, status, key, want) in cases {
        let resp = request(addr, "POST", &format!("/v1/mappings/{path}"), &body);
        assert_eq!(resp.status, status, "{path}: {}", resp.raw_body);
        assert_eq!(resp.body.to_string(), resp.raw_body, "{path}");
        let want: Json = serde_json::from_str(want).unwrap();
        assert_eq!(resp.body.get(key), Some(&want), "{path}: {}", resp.raw_body);
        let persisted = body.contains("persist");
        assert_eq!(resp.body.get("store").is_some(), persisted, "{path}");
    }
    srv.shutdown();
}

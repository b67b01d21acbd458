//! Regenerates `examples/store_fixtures/torn_migrate/`: a store whose
//! migration crashed **after** the checksummed `COMMIT` marker became
//! durable but **before** the staged files were renamed into place —
//! the "torn" window where the live files may mix old and new and only
//! the idempotent roll-forward can finish the job.
//!
//! ```sh
//! cargo run -p dex-store --example gen_torn_migrate -- \
//!     examples/store_fixtures/torn_migrate
//! ```
//!
//! Expected behaviour (pinned by CI's fsck smoke job):
//! `dexcli fsck` exits 1 naming the committed migration; either
//! `dexcli fsck --repair` or `dexcli migrate --resume` rolls it
//! forward; afterwards the store is clean and serves the new schema.

use dex_chase::{chase, ChaseOptions, RunContext, Start};
use dex_logic::parse_mapping;
use dex_relational::{tuple, Governor, Instance, RelSchema, Schema};
use dex_store::{MigratePlan, MigrateRun, Migration, Store, StoreMode, StoreOptions, StoreSink};
use std::path::PathBuf;

const OLD_MAPPING: &str =
    "source Emp(id, name);\ntarget Staff(id, name);\nEmp(i, n) -> Staff(i, n);\n";
const NEW_SCHEMA: &str = "target Staff(id, name, grade);\n";
/// What `dexcli migrate` compiles for `ADD COLUMN Staff.grade`: the
/// stored instance, renamed into the `v0__` source vocabulary, chased
/// onto the new schema with a constant default.
const MIG_MAPPING: &str = "source v0__Staff(id, name);\ntarget Staff(id, name, grade);\nv0__Staff(i, n) -> Staff(i, n, \"none\");\n";

fn main() {
    let dir = PathBuf::from(
        std::env::args()
            .nth(1)
            .expect("usage: gen_torn_migrate <dir>"),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        snapshot_every: u64::MAX,
        sync: false,
    };

    // The live store: two employees exchanged onto Staff(id, name).
    let m = parse_mapping(OLD_MAPPING).unwrap();
    let src = Instance::with_facts(
        m.source().clone(),
        vec![("Emp", vec![tuple!["1", "ada"], tuple!["2", "bob"]])],
    )
    .unwrap();
    let mut store = Store::create(&dir, StoreMode::Chase, OLD_MAPPING, &src, opts).unwrap();
    let mut sink = StoreSink::new(&mut store);
    chase(
        &m,
        Start::Fresh(&src),
        RunContext {
            sink: Some(&mut sink),
            ..RunContext::new(&Governor::unlimited())
        },
    )
    .unwrap();
    let state = store.recover().unwrap().unwrap().state;
    drop(store);

    // The stored instance in the v0__ source vocabulary.
    let v0 = Schema::with_relations(vec![
        RelSchema::untyped("v0__Staff", vec!["id", "name"]).unwrap()
    ])
    .unwrap();
    let mut prefixed = Instance::empty(v0);
    for (rel, t) in state.instance.facts() {
        prefixed.insert(&format!("v0__{rel}"), t).unwrap();
    }

    // Stage the migration, chase it to completion, write the COMMIT
    // marker — and "crash" before the roll-forward renames.
    let plan = MigratePlan {
        schema_text: NEW_SCHEMA.to_string(),
        mapping_text: MIG_MAPPING.to_string(),
    };
    let mut mig = Migration::begin(&dir, &plan, &prefixed, opts).unwrap();
    match mig
        .run(ChaseOptions::default(), &Governor::unlimited())
        .unwrap()
    {
        MigrateRun::Done(_) => {}
        MigrateRun::Suspended(r) => panic!("unbudgeted migration suspended: {r:?}"),
    }
    mig.commit().unwrap();
    println!(
        "torn (committed, not rolled forward) migration fixture at {}",
        dir.display()
    );
}

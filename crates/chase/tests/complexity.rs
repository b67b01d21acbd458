//! Counter-based complexity guards: a workload shape chased at sizes
//! n, 2n and 4n must do a constant amount of matcher work per unit of
//! output. Wall times cannot gate a shared machine; the work counters
//! of `ChaseStats` are deterministic, so they can.

use dex_chase::{exchange, ChaseStats};
use dex_logic::parse_mapping;
use dex_relational::{Instance, Tuple, Value};

/// Reachability over a chain: one target round per path length, and
/// every conclusion `Path(x, z)` fully bound when it is re-checked.
const REACH: &str = "
    source Edge(x, y);
    target E(x, y);
    target Path(x, y);
    target Hop(x, w);
    Edge(x, y) -> E(x, y);
    Edge(x, y) -> Path(x, y);
    Path(x, y) & E(y, z) -> Path(x, z);
    Path(x, y) -> Hop(x, w);
";

/// Chase the reach mapping on a chain of `len` edges.
fn chase_chain(len: usize) -> (ChaseStats, usize) {
    let m = parse_mapping(REACH).expect("reach mapping parses");
    let mut src = Instance::empty(m.source().clone());
    for i in 0..len {
        let edge = Tuple::new(vec![
            Value::str(format!("n{i}")),
            Value::str(format!("n{}", i + 1)),
        ]);
        src.insert("Edge", edge).expect("edge inserts");
    }
    let res = exchange(&m, &src).expect("reach chase completes");
    let paths = res.target.relation("Path").map_or(0, |r| r.len());
    assert_eq!(paths, len * (len + 1) / 2, "Path is the transitive closure");
    (res.stats, res.firings)
}

/// Rows offered to unification per firing stay flat as the chain
/// grows: a re-checked conclusion costs one membership check, not a
/// posting list as long as the chain.
#[test]
fn reach_chain_candidates_per_firing_stay_constant() {
    const FACTOR: f64 = 1.25;
    let per_firing: Vec<(usize, f64)> = [16, 32, 64]
        .into_iter()
        .map(|len| {
            let (stats, firings) = chase_chain(len);
            assert!(stats.candidates > 0, "the matcher counts its candidates");
            assert!(
                stats.membership_checks > 0,
                "conclusions are checked by membership"
            );
            (len, stats.candidates as f64 / firings as f64)
        })
        .collect();
    let least = per_firing
        .iter()
        .map(|&(_, c)| c)
        .fold(f64::INFINITY, f64::min);
    for &(len, c) in &per_firing {
        assert!(
            c <= FACTOR * least,
            "chain of {len} edges: {c:.2} candidates per firing, more than \
             {FACTOR}× the least ({least:.2}); all sizes: {per_firing:?}"
        );
    }
}

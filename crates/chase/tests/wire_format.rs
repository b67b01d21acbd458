//! Golden pin for the versioned [`ChaseStats`] JSON wire format.
//!
//! The stats object is consumed by `dexcli --stats --format json`
//! tooling and `dexd` HTTP clients, so its byte-level shape is an API:
//! any drift must show up as a deliberate diff here, together with a
//! bump of [`dex_chase::CHASE_STATS_WIRE_V`].

use dex_chase::ChaseStats;

#[test]
fn chase_stats_wire_format_is_pinned() {
    let stats = ChaseStats {
        st_firings: 4,
        rounds: 2,
        firings_per_round: vec![3, 1, 0],
        delta_sizes: vec![4, 3, 1],
        index_builds: 5,
        index_probes: 17,
        membership_checks: 9,
        candidates: 23,
    };
    let got = serde_json::to_string(&stats).expect("stats serialize");
    assert_eq!(
        got,
        "{\"v\":1,\"st_firings\":4,\"rounds\":2,\
         \"firings_per_round\":[3,1,0],\"delta_sizes\":[4,3,1],\
         \"index_builds\":5,\"index_probes\":17,\
         \"membership_checks\":9,\"candidates\":23}"
    );
}

#[test]
fn default_stats_still_carry_the_version_tag() {
    let j: serde_json::Value =
        serde_json::to_value(&ChaseStats::default()).expect("default stats serialize");
    assert_eq!(j["v"].as_u64(), Some(1));
    assert_eq!(j["rounds"].as_u64(), Some(0));
}

//! Property tests for the link-plan grammar: `Display` → `FromStr`
//! round-trips for [`EdgeSpec`], [`PartitionWindow`], and whole
//! [`LinkPlan`]s (including fuzzer-sampled ones), plus hostile-input parse
//! tests pinning the typed [`PlanParseError`]s.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrabft_sim::{EdgeSpec, LinkPlan, PartitionWindow, PlanParseError};
use tetrabft_types::NodeId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every canonical `EdgeSpec` rendering parses back to the same spec,
    /// including the empty (IDEAL) rendering and exact drop ppm values.
    #[test]
    fn edge_spec_display_round_trips(
        delay in 0u64..=10_000,
        jitter in 0u64..=1_000,
        drop_ppm in 0u32..=1_000_000,
    ) {
        let mut spec = EdgeSpec::delay(delay).with_jitter(jitter);
        spec.drop_ppm = drop_ppm;
        let rendered = spec.to_string();
        let reparsed: EdgeSpec = rendered.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, spec, "rendering was `{}`", rendered);
    }

    /// Windows round-trip — every edge selector, every effect — with the
    /// group canonicalized (sorted, deduplicated) on both sides.
    #[test]
    fn partition_window_display_round_trips(
        start in 0u64..=100_000,
        len in 1u64..=50_000,
        group in proptest::collection::vec(0u16..16, 1..=6),
        selector in 0u8..3,
        effect in 0u8..3,
        lose_ppm in 0u32..=1_000_000,
    ) {
        let ids: Vec<NodeId> = group.into_iter().map(NodeId).collect();
        let window = window(selector, effect, lose_ppm, start, start + len, ids);
        let rendered = window.to_string();
        let reparsed: PartitionWindow = rendered.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, window, "rendering was `{}`", rendered);
    }

    /// Whole plans — exactly as the fuzzer samples them, partitions and
    /// per-edge overrides included — survive a Display/FromStr round-trip.
    /// This is what makes `Scenario::to_rust_source` replays faithful.
    #[test]
    fn sampled_link_plans_round_trip(seed in any::<u64>(), n in 2usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = LinkPlan::sample(&mut rng, n, 2_000, 3);
        let rendered = plan.to_string();
        let reparsed: LinkPlan = rendered.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, plan, "rendering was `{}`", rendered);
    }

    /// Hand-assembled plans round-trip too (sampling never emits the
    /// IDEAL-override or drop-fraction corners, nor hold or lose windows,
    /// so cover them here).
    #[test]
    fn assembled_link_plans_round_trip(
        base_delay in 1u64..=200,
        (from, to) in (0u16..6, 0u16..6),
        part_start in 0u64..=500,
        part_len in 1u64..=500,
        isolate in 0u16..6,
        (selector, lose_ppm) in (0u8..3, 0u32..=1_000_000),
    ) {
        let (start, end) = (part_start, part_start + part_len);
        let plan = LinkPlan::uniform(EdgeSpec::delay(base_delay))
            .link(NodeId(from), NodeId(to), EdgeSpec::IDEAL)
            .partition(PartitionWindow::isolate(start, end, [NodeId(isolate)]))
            .partition(window(selector, 1, lose_ppm, start, end, [NodeId(from)]))
            .partition(window(selector, 2, lose_ppm, start, end, [NodeId(to), NodeId(isolate)]));
        let rendered = plan.to_string();
        let reparsed: LinkPlan = rendered.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, plan, "rendering was `{}`", rendered);
    }
}

/// A window over `group` selected by `selector` (across, from, to) with
/// `effect` (buffer, hold, lose `lose_ppm` parts per million).
fn window(
    selector: u8,
    effect: u8,
    lose_ppm: u32,
    start: u64,
    end: u64,
    group: impl IntoIterator<Item = NodeId>,
) -> PartitionWindow {
    let window = match selector {
        0 => PartitionWindow::isolate(start, end, group),
        1 => PartitionWindow::from_group(start, end, group),
        _ => PartitionWindow::to_group(start, end, group),
    };
    match effect {
        0 => window,
        1 => window.hold(),
        _ => window.lose(f64::from(lose_ppm) / 1e6),
    }
}

fn assert_parse_error<T>(result: Result<T, PlanParseError>, needle: &str) {
    let err = match result {
        Ok(_) => panic!("hostile input must not parse"),
        Err(err) => err,
    };
    let rendered = err.to_string();
    assert!(
        rendered.starts_with("invalid link-plan fragment:"),
        "typed error renders with its prefix: {rendered}"
    );
    assert!(rendered.contains(needle), "expected `{needle}` in: {rendered}");
}

#[test]
fn hostile_edge_specs_yield_typed_errors() {
    assert_parse_error("delay".parse::<EdgeSpec>(), "expected key=value");
    assert_parse_error("delay=fast".parse::<EdgeSpec>(), "bad delay");
    assert_parse_error("delay=99999999999999999999999".parse::<EdgeSpec>(), "bad delay");
    assert_parse_error("jitter=-4".parse::<EdgeSpec>(), "bad jitter");
    assert_parse_error("drop=1.5".parse::<EdgeSpec>(), "outside 0..=1");
    assert_parse_error("drop_ppm=1000001".parse::<EdgeSpec>(), "above 1000000");
    assert_parse_error("drop_ppm=-1".parse::<EdgeSpec>(), "bad drop_ppm");
    assert_parse_error("latency=30".parse::<EdgeSpec>(), "unknown key");
    // Milliseconds stop at a ceiling of 10^12, so no sum of them overflows.
    assert!("delay=1000000000000,jitter=1000000000000".parse::<EdgeSpec>().is_ok());
    assert_parse_error(
        "delay=1000000000001".parse::<EdgeSpec>(),
        "above the 1000000000000 ms ceiling",
    );
    assert_parse_error("jitter=1000000000001".parse::<EdgeSpec>(), "jitter `1000000000001` above");
    // And the degenerate-but-valid corner: the empty spec is IDEAL.
    assert_eq!("".parse::<EdgeSpec>().unwrap(), EdgeSpec::IDEAL);
}

#[test]
fn hostile_partition_windows_yield_typed_errors() {
    assert_parse_error("10..20".parse::<PartitionWindow>(), "expected range:group");
    assert_parse_error("10:0".parse::<PartitionWindow>(), "expected start..end");
    assert_parse_error("ten..20:0".parse::<PartitionWindow>(), "bad start");
    assert_parse_error("10..twenty:0".parse::<PartitionWindow>(), "bad end");
    assert_parse_error("99999999999999999999999..7:0".parse::<PartitionWindow>(), "bad start");
    // Reversed and empty windows are rejected, not silently normalized.
    assert_parse_error("500..100:1".parse::<PartitionWindow>(), "empty window");
    assert_parse_error("5..5:0".parse::<PartitionWindow>(), "empty window");
    // Empty groups would partition nobody.
    assert_parse_error("10..20:".parse::<PartitionWindow>(), "group is empty");
    assert_parse_error("10..20: , ,".parse::<PartitionWindow>(), "group is empty");
    assert_parse_error("10..20:0,node3".parse::<PartitionWindow>(), "bad node id");
    assert_parse_error("10..20:70000".parse::<PartitionWindow>(), "bad node id");
    // Edge selectors need a group too.
    assert_parse_error("10..20:from".parse::<PartitionWindow>(), "group is empty");
    assert_parse_error("10..20:to ,".parse::<PartitionWindow>(), "group is empty");
    assert_parse_error("10..20:to x".parse::<PartitionWindow>(), "bad node id");
    assert_parse_error("10..20:into 3".parse::<PartitionWindow>(), "bad node id");
    // Effects are `hold` or `lose_ppm=<n>`; buffering is the default.
    assert_parse_error("10..20:0:buffer".parse::<PartitionWindow>(), "unknown window effect");
    assert_parse_error("10..20:0:lose=0.5".parse::<PartitionWindow>(), "unknown window effect");
    assert_parse_error("10..20:0:hold:hold".parse::<PartitionWindow>(), "unknown window effect");
    assert_parse_error("10..20:0:lose_ppm=half".parse::<PartitionWindow>(), "bad lose_ppm");
    assert_parse_error("10..20:0:lose_ppm=1000001".parse::<PartitionWindow>(), "above 1000000");
    // Window bounds stop at the same ceiling as delays.
    assert!("0..1000000000000:0".parse::<PartitionWindow>().is_ok());
    assert_parse_error(
        "0..1000000000001:0".parse::<PartitionWindow>(),
        "end `1000000000001` above",
    );
}

#[test]
fn hostile_link_plans_yield_typed_errors() {
    assert_parse_error("bogus(delay=1)".parse::<LinkPlan>(), "bogus");
    assert_parse_error("default(delay=1); edge(0-3)".parse::<LinkPlan>(), "");
    assert_parse_error("default(delay=1".parse::<LinkPlan>(), "");
    assert_parse_error("part(20..10:0)".parse::<LinkPlan>(), "empty window");
    assert_parse_error("edge(0->x,delay=5)".parse::<LinkPlan>(), "");
    // A delay whose sum with its jitter would wrap a u64.
    assert_parse_error(
        "default(delay=18446744073709551615,jitter=1)".parse::<LinkPlan>(),
        "ms ceiling",
    );
    assert_parse_error("part(0..9:from 1:hold:x)".parse::<LinkPlan>(), "unknown window effect");
    // The empty plan parses as the default (ideal links, no partitions).
    assert_eq!("".parse::<LinkPlan>().unwrap(), LinkPlan::default());
}

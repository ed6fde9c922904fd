//! Declarative link conditioning shared by the simulator and the TCP
//! runtime.
//!
//! A [`LinkPlan`] describes a network scenario — per-edge one-way delay,
//! jitter, drop probability, and scripted partition windows — without
//! reference to any runtime. The simulator routes each message through
//! [`LinkPlan::route_at`] (`SimBuilder::plan`; virtual-time ticks are
//! milliseconds), the TCP layer (`tetrabft-net`) applies the very same plan
//! in its send path with wall-clock milliseconds, so one scenario drives
//! both runtimes and their results can be compared directly. One
//! difference stays: a TCP link is a FIFO byte stream, so its jitter never
//! reorders two frames of one edge, while the simulator's may.
//!
//! Partition semantics match what a supervised TCP link does: frames sent
//! while an edge is severed are *buffered* and released when the window
//! ends (the link reconnects and flushes), not silently lost. Loss is
//! modeled separately by the per-edge drop probability.

use std::collections::HashMap;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::Rng;

use tetrabft_types::NodeId;

/// Conditioning applied to one directed edge: a base one-way delay, a
/// uniform jitter on top, and an independent drop probability per message.
///
/// Times are milliseconds — the unit both the simulator (one tick = 1 ms)
/// and the TCP runtime (wall clock) use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Base one-way delay in milliseconds.
    pub delay_ms: u64,
    /// Uniform extra delay in `0..=jitter_ms` milliseconds, sampled per
    /// message.
    pub jitter_ms: u64,
    /// Drop probability in parts per million (`1_000_000` = always drop).
    pub drop_ppm: u32,
}

impl EdgeSpec {
    /// A perfect link: zero delay, no jitter, no loss.
    pub const IDEAL: EdgeSpec = EdgeSpec { delay_ms: 0, jitter_ms: 0, drop_ppm: 0 };

    /// A fixed one-way delay with no jitter or loss.
    pub fn delay(delay_ms: u64) -> Self {
        EdgeSpec { delay_ms, jitter_ms: 0, drop_ppm: 0 }
    }

    /// Adds uniform jitter of up to `jitter_ms` milliseconds per message.
    pub fn with_jitter(mut self, jitter_ms: u64) -> Self {
        self.jitter_ms = jitter_ms;
        self
    }

    /// Sets the drop probability as a fraction in `0.0..=1.0`.
    pub fn with_drop(mut self, fraction: f64) -> Self {
        self.drop_ppm = (fraction.clamp(0.0, 1.0) * 1_000_000.0) as u32;
        self
    }

    /// Samples one message: `None` if dropped, otherwise the total one-way
    /// delay (base + jitter) in milliseconds.
    pub fn sample(&self, rng: &mut StdRng) -> Option<u64> {
        if self.drop_ppm > 0 && rng.random_range(0..1_000_000u64) < u64::from(self.drop_ppm) {
            return None;
        }
        let jitter = if self.jitter_ms > 0 { rng.random_range(0..=self.jitter_ms) } else { 0 };
        Some(self.delay_ms + jitter)
    }

    /// Worst-case one-way delay (base + full jitter).
    pub fn max_delay_ms(&self) -> u64 {
        self.delay_ms + self.jitter_ms
    }
}

/// Parse error for [`EdgeSpec`], [`PartitionWindow`], and topology-style
/// plan fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    what: String,
}

impl PlanParseError {
    fn new(what: impl Into<String>) -> Self {
        PlanParseError { what: what.into() }
    }
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid link-plan fragment: {}", self.what)
    }
}

impl std::error::Error for PlanParseError {}

impl std::fmt::Display for EdgeSpec {
    /// Canonical form, re-parsable by [`EdgeSpec::from_str`]: zero fields
    /// are omitted, loss is printed as exact `drop_ppm` (the fractional
    /// `drop` key would lose precision), and [`EdgeSpec::IDEAL`] is the
    /// empty string.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        if self.delay_ms > 0 {
            write!(f, "delay={}", self.delay_ms)?;
            sep = ",";
        }
        if self.jitter_ms > 0 {
            write!(f, "{sep}jitter={}", self.jitter_ms)?;
            sep = ",";
        }
        if self.drop_ppm > 0 {
            write!(f, "{sep}drop_ppm={}", self.drop_ppm)?;
        }
        Ok(())
    }
}

impl FromStr for EdgeSpec {
    type Err = PlanParseError;

    /// Parses `"delay=30,jitter=5,drop=0.01"` (any subset of keys; `drop`
    /// is a fraction in `0..=1`, `drop_ppm` an exact parts-per-million
    /// integer).
    fn from_str(s: &str) -> Result<Self, PlanParseError> {
        let mut spec = EdgeSpec::IDEAL;
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| PlanParseError::new(format!("expected key=value, got `{part}`")))?;
            match key.trim() {
                "delay" => {
                    spec.delay_ms = value
                        .trim()
                        .parse()
                        .map_err(|_| PlanParseError::new(format!("bad delay `{value}`")))?;
                }
                "jitter" => {
                    spec.jitter_ms = value
                        .trim()
                        .parse()
                        .map_err(|_| PlanParseError::new(format!("bad jitter `{value}`")))?;
                }
                "drop" => {
                    let frac: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| PlanParseError::new(format!("bad drop `{value}`")))?;
                    if !(0.0..=1.0).contains(&frac) {
                        return Err(PlanParseError::new(format!(
                            "drop fraction `{value}` outside 0..=1"
                        )));
                    }
                    spec = spec.with_drop(frac);
                }
                "drop_ppm" => {
                    let ppm: u32 = value
                        .trim()
                        .parse()
                        .map_err(|_| PlanParseError::new(format!("bad drop_ppm `{value}`")))?;
                    if ppm > 1_000_000 {
                        return Err(PlanParseError::new(format!(
                            "drop_ppm `{value}` above 1000000"
                        )));
                    }
                    spec.drop_ppm = ppm;
                }
                other => {
                    return Err(PlanParseError::new(format!("unknown key `{other}`")));
                }
            }
        }
        Ok(spec)
    }
}

/// A scripted partition: during `start_ms..end_ms` every edge crossing the
/// boundary between `group` and the rest of the cluster is severed.
///
/// Severed traffic is buffered and released at the end of the window (the
/// TCP link closes, reconnects after heal, and flushes its buffer; the
/// simulator delivers at the heal time plus the edge delay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start, inclusive, in milliseconds since the run began.
    pub start_ms: u64,
    /// Window end, exclusive, in milliseconds since the run began.
    pub end_ms: u64,
    group: Vec<u16>,
}

impl PartitionWindow {
    /// Severs `group` from the rest of the cluster during
    /// `start_ms..end_ms`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`start_ms >= end_ms`).
    pub fn isolate(start_ms: u64, end_ms: u64, group: impl IntoIterator<Item = NodeId>) -> Self {
        assert!(start_ms < end_ms, "partition window must be non-empty");
        let mut group: Vec<u16> = group.into_iter().map(|id| id.0).collect();
        group.sort_unstable();
        group.dedup();
        PartitionWindow { start_ms, end_ms, group }
    }

    /// Whether the edge `a`–`b` crosses this partition's boundary.
    pub fn severs(&self, a: NodeId, b: NodeId) -> bool {
        self.group.binary_search(&a.0).is_ok() != self.group.binary_search(&b.0).is_ok()
    }

    /// Whether `at_ms` falls inside the window.
    pub fn contains(&self, at_ms: u64) -> bool {
        (self.start_ms..self.end_ms).contains(&at_ms)
    }
}

impl std::fmt::Display for PartitionWindow {
    /// Canonical `start..end:ids` form, re-parsable by
    /// [`PartitionWindow::from_str`] (the group is kept sorted, so the
    /// rendering is unique).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}:", self.start_ms, self.end_ms)?;
        let mut sep = "";
        for id in &self.group {
            write!(f, "{sep}{id}")?;
            sep = ",";
        }
        Ok(())
    }
}

impl FromStr for PartitionWindow {
    type Err = PlanParseError;

    /// Parses `"500..1500:0,3"` — isolate nodes 0 and 3 during
    /// milliseconds 500..1500.
    fn from_str(s: &str) -> Result<Self, PlanParseError> {
        let (range, group) = s
            .split_once(':')
            .ok_or_else(|| PlanParseError::new(format!("expected range:group, got `{s}`")))?;
        let (start, end) = range
            .split_once("..")
            .ok_or_else(|| PlanParseError::new(format!("expected start..end, got `{range}`")))?;
        let start: u64 = start
            .trim()
            .parse()
            .map_err(|_| PlanParseError::new(format!("bad start `{start}`")))?;
        let end: u64 =
            end.trim().parse().map_err(|_| PlanParseError::new(format!("bad end `{end}`")))?;
        if start >= end {
            return Err(PlanParseError::new(format!("empty window `{range}`")));
        }
        let mut ids = Vec::new();
        for id in group.split(',').map(str::trim).filter(|g| !g.is_empty()) {
            let id: u16 =
                id.parse().map_err(|_| PlanParseError::new(format!("bad node id `{id}`")))?;
            ids.push(NodeId(id));
        }
        if ids.is_empty() {
            return Err(PlanParseError::new("partition group is empty"));
        }
        Ok(PartitionWindow::isolate(start, end, ids))
    }
}

/// A whole-network conditioning scenario: a default [`EdgeSpec`], directed
/// per-edge overrides, and scripted [`PartitionWindow`]s.
///
/// # Examples
///
/// ```
/// use tetrabft_engine::{EdgeSpec, LinkPlan, PartitionWindow};
/// use tetrabft_types::NodeId;
///
/// // A 30 ms WAN with 3 ms jitter, one slow transatlantic edge, and a
/// // partition isolating node 0 for the first half second.
/// let plan = LinkPlan::uniform(EdgeSpec::delay(30).with_jitter(3))
///     .link(NodeId(0), NodeId(3), EdgeSpec::delay(80))
///     .partition(PartitionWindow::isolate(0, 500, [NodeId(0)]));
/// assert_eq!(plan.edge_spec(NodeId(0), NodeId(3)).delay_ms, 80);
/// assert_eq!(plan.edge_spec(NodeId(1), NodeId(2)).delay_ms, 30);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    default: EdgeSpec,
    edges: HashMap<(u16, u16), EdgeSpec>,
    partitions: Vec<PartitionWindow>,
}

impl Default for LinkPlan {
    fn default() -> Self {
        LinkPlan::ideal()
    }
}

impl LinkPlan {
    /// Perfect links everywhere, no partitions.
    pub fn ideal() -> Self {
        LinkPlan::uniform(EdgeSpec::IDEAL)
    }

    /// The same spec on every edge.
    pub fn uniform(spec: EdgeSpec) -> Self {
        LinkPlan { default: spec, edges: HashMap::new(), partitions: Vec::new() }
    }

    /// A WAN preset: `one_way_ms` delay with 10% jitter.
    pub fn wan(one_way_ms: u64) -> Self {
        LinkPlan::uniform(EdgeSpec::delay(one_way_ms).with_jitter(one_way_ms / 10))
    }

    /// Per-edge delays from a square matrix: `delays[i][j]` is the one-way
    /// delay of edge `i → j` in milliseconds (the diagonal is ignored —
    /// loopback never touches the network).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn from_matrix(delays: &[Vec<u64>]) -> Self {
        let n = delays.len();
        let mut plan = LinkPlan::ideal();
        for (i, row) in delays.iter().enumerate() {
            assert_eq!(row.len(), n, "delay matrix must be square");
            for (j, &d) in row.iter().enumerate() {
                if i != j {
                    plan.edges.insert((i as u16, j as u16), EdgeSpec::delay(d));
                }
            }
        }
        plan
    }

    /// Overrides one directed edge.
    pub fn edge(mut self, from: NodeId, to: NodeId, spec: EdgeSpec) -> Self {
        self.edges.insert((from.0, to.0), spec);
        self
    }

    /// Overrides both directions between `a` and `b`.
    pub fn link(self, a: NodeId, b: NodeId, spec: EdgeSpec) -> Self {
        self.edge(a, b, spec).edge(b, a, spec)
    }

    /// Adds a scripted partition window.
    pub fn partition(mut self, window: PartitionWindow) -> Self {
        self.partitions.push(window);
        self
    }

    /// The spec governing `from → to` (the directed override if present,
    /// else the default).
    pub fn edge_spec(&self, from: NodeId, to: NodeId) -> EdgeSpec {
        self.edges.get(&(from.0, to.0)).copied().unwrap_or(self.default)
    }

    /// The scripted partition windows.
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.partitions
    }

    /// The same plan with partition window `idx` removed (unchanged when
    /// out of range) — the fuzzer's shrinker peels windows off one by one.
    pub fn without_partition(&self, idx: usize) -> LinkPlan {
        let mut plan = self.clone();
        if idx < plan.partitions.len() {
            plan.partitions.remove(idx);
        }
        plan
    }

    /// Worst-case one-way delay over all edges of an `n`-node cluster.
    pub fn max_delay_ms(&self, n: usize) -> u64 {
        let mut max = self.default.max_delay_ms();
        for ((from, to), spec) in &self.edges {
            if usize::from(*from) < n && usize::from(*to) < n {
                max = max.max(spec.max_delay_ms());
            }
        }
        max
    }

    /// Whether no edge of the plan ever drops a message. Liveness oracles
    /// are only armed on lossless plans: with loss the partial-synchrony
    /// model gives no delivery bound to hold the protocol to.
    pub fn is_lossless(&self) -> bool {
        self.default.drop_ppm == 0 && self.edges.values().all(|e| e.drop_ppm == 0)
    }

    /// Samples a random plan for an `n`-node cluster — the adversary
    /// fuzzer's network dimension. A pure function of the `rng` stream:
    ///
    /// * a base edge spec with 1–30 ms delay, up to 10 ms jitter, and (25%
    ///   of the time) up to 5% loss — delays are always ≥ 1 ms so virtual
    ///   time advances between distinct nodes even under message storms;
    /// * sparse directed overrides (≈15% of edges) with heavier delays;
    /// * up to `max_partitions` random [`PartitionWindow`]s, each fully
    ///   inside `horizon_ms` and isolating a random proper subset.
    pub fn sample(rng: &mut StdRng, n: usize, horizon_ms: u64, max_partitions: usize) -> LinkPlan {
        let mut base =
            EdgeSpec::delay(rng.random_range(1..=30)).with_jitter(rng.random_range(0..=10));
        if rng.random_range(0..100u32) < 25 {
            base.drop_ppm = rng.random_range(0..=50_000);
        }
        let mut plan = LinkPlan::uniform(base);
        for from in 0..n as u16 {
            for to in 0..n as u16 {
                if from != to && rng.random_range(0..100u32) < 15 {
                    let mut spec = EdgeSpec::delay(rng.random_range(1..=80))
                        .with_jitter(rng.random_range(0..=20));
                    if base.drop_ppm > 0 && rng.random_range(0..100u32) < 50 {
                        spec.drop_ppm = rng.random_range(0..=100_000);
                    }
                    plan = plan.edge(NodeId(from), NodeId(to), spec);
                }
            }
        }
        if n >= 2 && horizon_ms >= 8 {
            for _ in 0..max_partitions {
                if rng.random_range(0..100u32) < 40 {
                    continue;
                }
                let start = rng.random_range(0..horizon_ms / 2);
                let len = rng.random_range(1..=(horizon_ms / 4).max(1));
                // A random proper subset, drawn without replacement.
                let mut ids: Vec<u16> = (0..n as u16).collect();
                let group_size = rng.random_range(1..n);
                for i in 0..group_size {
                    let j = rng.random_range(i..ids.len());
                    ids.swap(i, j);
                }
                ids.truncate(group_size);
                plan = plan.partition(PartitionWindow::isolate(
                    start,
                    start + len,
                    ids.into_iter().map(NodeId),
                ));
            }
        }
        plan
    }

    /// When a message sent on `from → to` at `at_ms` is released from any
    /// severing partition windows (equal to `at_ms` when unsevered).
    /// Chained or overlapping windows are walked through to the final heal.
    pub fn release_time(&self, from: NodeId, to: NodeId, at_ms: u64) -> u64 {
        let mut at = at_ms;
        loop {
            let Some(end) = self
                .partitions
                .iter()
                .filter(|w| w.severs(from, to) && w.contains(at))
                .map(|w| w.end_ms)
                .max()
            else {
                return at;
            };
            at = end;
        }
    }

    /// Routes one message: `None` if dropped by the edge's loss rate,
    /// otherwise its absolute delivery time in milliseconds — partition
    /// release first (buffered links flush at heal), then the sampled
    /// one-way delay.
    pub fn route_at(&self, from: NodeId, to: NodeId, at_ms: u64, rng: &mut StdRng) -> Option<u64> {
        let delay = self.edge_spec(from, to).sample(rng)?;
        Some(self.release_time(from, to, at_ms) + delay)
    }
}

impl std::fmt::Display for LinkPlan {
    /// Canonical scenario grammar, re-parsable by [`LinkPlan::from_str`]:
    /// `default(<spec>); edge(<from>-><to>,<spec>); part(<window>)` —
    /// edges sorted by `(from, to)` so the rendering is unique, ideal edge
    /// overrides printed without the spec.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "default({})", self.default)?;
        let mut edges: Vec<(&(u16, u16), &EdgeSpec)> = self.edges.iter().collect();
        edges.sort_by_key(|(key, _)| **key);
        for ((from, to), spec) in edges {
            if *spec == EdgeSpec::IDEAL {
                write!(f, "; edge({from}->{to})")?;
            } else {
                write!(f, "; edge({from}->{to},{spec})")?;
            }
        }
        for w in &self.partitions {
            write!(f, "; part({w})")?;
        }
        Ok(())
    }
}

impl FromStr for LinkPlan {
    type Err = PlanParseError;

    /// Parses the grammar printed by [`LinkPlan`]'s `Display`:
    /// `;`-separated `default(<spec>)`, `edge(<from>-><to>[,<spec>])`, and
    /// `part(<start>..<end>:<ids>)` segments, in any order.
    fn from_str(s: &str) -> Result<Self, PlanParseError> {
        let mut plan = LinkPlan::ideal();
        for seg in s.split(';').map(str::trim).filter(|t| !t.is_empty()) {
            let (name, rest) = seg
                .split_once('(')
                .ok_or_else(|| PlanParseError::new(format!("expected name(...), got `{seg}`")))?;
            let body = rest
                .strip_suffix(')')
                .ok_or_else(|| PlanParseError::new(format!("missing `)` in `{seg}`")))?;
            match name.trim() {
                "default" => plan.default = body.parse()?,
                "edge" => {
                    let (edge, spec) = match body.split_once(',') {
                        Some((edge, spec)) => (edge, spec),
                        None => (body, ""),
                    };
                    let (from, to) = edge.split_once("->").ok_or_else(|| {
                        PlanParseError::new(format!("expected from->to, got `{edge}`"))
                    })?;
                    let from: u16 = from
                        .trim()
                        .parse()
                        .map_err(|_| PlanParseError::new(format!("bad node id `{from}`")))?;
                    let to: u16 = to
                        .trim()
                        .parse()
                        .map_err(|_| PlanParseError::new(format!("bad node id `{to}`")))?;
                    plan.edges.insert((from, to), spec.parse()?);
                }
                "part" => plan.partitions.push(body.parse()?),
                other => {
                    return Err(PlanParseError::new(format!("unknown plan segment `{other}`")));
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn edge_overrides_beat_the_default() {
        let plan =
            LinkPlan::uniform(EdgeSpec::delay(10)).link(NodeId(0), NodeId(1), EdgeSpec::delay(50));
        assert_eq!(plan.edge_spec(NodeId(0), NodeId(1)).delay_ms, 50);
        assert_eq!(plan.edge_spec(NodeId(1), NodeId(0)).delay_ms, 50);
        assert_eq!(plan.edge_spec(NodeId(0), NodeId(2)).delay_ms, 10);
        assert_eq!(plan.max_delay_ms(4), 50);
        assert_eq!(plan.max_delay_ms(1), 10, "override edges outside n are ignored");
    }

    #[test]
    fn matrix_plan_is_directed() {
        let plan = LinkPlan::from_matrix(&[vec![0, 5], vec![9, 0]]);
        assert_eq!(plan.edge_spec(NodeId(0), NodeId(1)).delay_ms, 5);
        assert_eq!(plan.edge_spec(NodeId(1), NodeId(0)).delay_ms, 9);
    }

    #[test]
    fn partitions_buffer_and_release() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(3)).partition(PartitionWindow::isolate(
            100,
            200,
            [NodeId(0)],
        ));
        let mut r = rng();
        // Severed edge: released at heal + delay.
        assert_eq!(plan.route_at(NodeId(0), NodeId(1), 150, &mut r), Some(203));
        // Edge inside the majority side is untouched.
        assert_eq!(plan.route_at(NodeId(1), NodeId(2), 150, &mut r), Some(153));
        // Outside the window nothing is severed.
        assert_eq!(plan.route_at(NodeId(0), NodeId(1), 300, &mut r), Some(303));
    }

    #[test]
    fn chained_partitions_release_at_the_final_heal() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(1))
            .partition(PartitionWindow::isolate(0, 100, [NodeId(0)]))
            .partition(PartitionWindow::isolate(100, 250, [NodeId(0)]));
        assert_eq!(plan.release_time(NodeId(0), NodeId(1), 10), 250);
        assert_eq!(plan.route_at(NodeId(0), NodeId(1), 10, &mut rng()), Some(251));
    }

    #[test]
    fn drop_rate_is_roughly_honored_and_deterministic() {
        let spec = EdgeSpec::delay(1).with_drop(0.5);
        let sample = |seed| {
            let mut r = StdRng::seed_from_u64(seed);
            (0..1000).filter(|_| spec.sample(&mut r).is_none()).count()
        };
        let dropped = sample(3);
        assert!((350..650).contains(&dropped), "≈half dropped, got {dropped}");
        assert_eq!(dropped, sample(3), "sampling is a pure function of the seed");
    }

    #[test]
    fn edge_spec_parses() {
        let spec: EdgeSpec = "delay=30, jitter=5, drop=0.25".parse().unwrap();
        assert_eq!(spec.delay_ms, 30);
        assert_eq!(spec.jitter_ms, 5);
        assert_eq!(spec.drop_ppm, 250_000);
        assert_eq!("".parse::<EdgeSpec>().unwrap(), EdgeSpec::IDEAL);
        assert!("delay=x".parse::<EdgeSpec>().is_err());
        assert!("speed=1".parse::<EdgeSpec>().is_err());
        assert!("drop=1.5".parse::<EdgeSpec>().is_err());
    }

    #[test]
    fn partition_window_parses() {
        let w: PartitionWindow = "500..1500:0,3".parse().unwrap();
        assert_eq!(w.start_ms, 500);
        assert_eq!(w.end_ms, 1500);
        assert!(w.severs(NodeId(0), NodeId(1)));
        assert!(w.severs(NodeId(3), NodeId(2)));
        assert!(!w.severs(NodeId(0), NodeId(3)), "both isolated: same side");
        assert!(!w.severs(NodeId(1), NodeId(2)));
        assert!("500..400:0".parse::<PartitionWindow>().is_err());
        assert!("0..9:".parse::<PartitionWindow>().is_err());
        assert!("0..9".parse::<PartitionWindow>().is_err());
    }

    #[test]
    fn plan_display_round_trips() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(30).with_jitter(3))
            .edge(NodeId(2), NodeId(1), EdgeSpec::delay(80))
            .edge(NodeId(0), NodeId(3), EdgeSpec::IDEAL)
            .partition(PartitionWindow::isolate(100, 500, [NodeId(0), NodeId(3)]))
            .partition(PartitionWindow::isolate(700, 900, [NodeId(1)]));
        let text = plan.to_string();
        assert_eq!(
            text,
            "default(delay=30,jitter=3); edge(0->3); edge(2->1,delay=80); \
             part(100..500:0,3); part(700..900:1)"
        );
        let parsed: LinkPlan = text.parse().unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.to_string(), text, "canonical form is a fixpoint");
        // drop_ppm survives exactly (the fractional `drop` key would not).
        let lossy = LinkPlan::uniform(EdgeSpec { delay_ms: 2, jitter_ms: 0, drop_ppm: 123_457 });
        assert_eq!(lossy.to_string().parse::<LinkPlan>().unwrap(), lossy);
        assert!(!lossy.is_lossless());
        assert!(plan.is_lossless());
    }

    #[test]
    fn plan_parse_rejects_malformed_segments() {
        assert!("bogus(1)".parse::<LinkPlan>().is_err());
        assert!("default(delay=3".parse::<LinkPlan>().is_err(), "missing paren");
        assert!("edge(0-1,delay=3)".parse::<LinkPlan>().is_err(), "bad arrow");
        assert!("edge(0->x)".parse::<LinkPlan>().is_err(), "bad id");
        assert!("part(9..5:0)".parse::<LinkPlan>().is_err(), "reversed window");
        assert!("default(drop_ppm=2000000)".parse::<LinkPlan>().is_err(), "ppm above 1e6");
        assert_eq!("".parse::<LinkPlan>().unwrap(), LinkPlan::ideal());
    }

    #[test]
    fn sampled_plans_are_deterministic_and_bounded() {
        let sample = |seed| LinkPlan::sample(&mut StdRng::seed_from_u64(seed), 5, 2_000, 3);
        let a = sample(42);
        assert_eq!(a, sample(42), "pure function of the seed");
        assert_ne!(a.to_string(), sample(43).to_string(), "different seeds differ");
        for seed in 0..50 {
            let plan = sample(seed);
            assert!(plan.to_string().parse::<LinkPlan>().unwrap() == plan, "round trips");
            for w in plan.partitions() {
                assert!(w.start_ms < w.end_ms && w.end_ms <= 2_000, "window inside horizon");
            }
            for from in 0..5u16 {
                for to in 0..5u16 {
                    if from != to {
                        assert!(plan.edge_spec(NodeId(from), NodeId(to)).delay_ms >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn jitter_bounds_the_sampled_delay() {
        let spec = EdgeSpec::delay(10).with_jitter(4);
        let mut r = rng();
        for _ in 0..200 {
            let d = spec.sample(&mut r).unwrap();
            assert!((10..=14).contains(&d));
        }
        assert_eq!(spec.max_delay_ms(), 14);
    }
}

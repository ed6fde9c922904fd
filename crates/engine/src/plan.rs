//! Declarative link conditioning shared by the simulator and the TCP
//! runtime.
//!
//! A [`LinkPlan`] describes a network scenario — per-edge one-way delay,
//! jitter, drop probability, and scripted windows — without reference to
//! any runtime. The simulator routes each message through
//! [`LinkPlan::route_at`] (virtual-time ticks are milliseconds), the TCP
//! layer (`tetrabft-net`) prices each frame with the very same call in
//! wall-clock milliseconds, so one scenario drives both runtimes and their
//! results can be compared directly. One difference stays: a TCP link is a
//! FIFO byte stream, so its jitter never reorders two frames of one edge,
//! while the simulator's may.
//!
//! A [`PartitionWindow`] selects the edges crossing a group's boundary,
//! leaving it or entering it, and buffers, holds or loses every frame sent
//! on them while it is open (DESIGN.md §10).

use std::collections::HashMap;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::Rng;

use tetrabft_types::NodeId;

/// The largest millisecond value the plan grammar accepts for a delay, a
/// jitter or a window bound (about 31 years), so no sum a plan forms — a
/// release time plus a delay plus a jitter — can overflow a `u64`.
const MAX_MS: u64 = 1_000_000_000_000;

/// A probability in parts per million (`1_000_000` = always).
fn ppm(fraction: f64) -> u32 {
    (fraction.clamp(0.0, 1.0) * 1_000_000.0) as u32
}

/// Whether a message is lost at `ppm` parts per million; a certain or an
/// impossible loss draws nothing.
fn lost(ppm: u32, rng: &mut StdRng) -> bool {
    ppm >= 1_000_000 || (ppm > 0 && rng.random_range(0..1_000_000u64) < u64::from(ppm))
}

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
        self.drop_ppm = ppm(fraction);
        self
    }

    /// Samples one message: `None` if dropped, otherwise the total one-way
    /// delay (base + jitter) in milliseconds.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> Option<u64> {
        if lost(self.drop_ppm, rng) {
            return None;
        }
        let jitter = if self.jitter_ms > 0 { rng.random_range(0..=self.jitter_ms) } else { 0 };
        Some(self.delay_ms + jitter)
    }

    /// Worst-case one-way delay (base + full jitter).
    pub(crate) fn max_delay_ms(&self) -> u64 {
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

/// Parses a millisecond `value` no larger than [`MAX_MS`].
fn parse_ms(what: &str, value: &str) -> Result<u64, PlanParseError> {
    let ms: u64 =
        value.trim().parse().map_err(|_| PlanParseError::new(format!("bad {what} `{value}`")))?;
    if ms > MAX_MS {
        return Err(PlanParseError::new(format!("{what} `{value}` above the {MAX_MS} ms ceiling")));
    }
    Ok(ms)
}

/// Parses a node id.
fn parse_id(id: &str) -> Result<u16, PlanParseError> {
    id.trim().parse().map_err(|_| PlanParseError::new(format!("bad node id `{}`", id.trim())))
}

/// Parses a probability in parts per million.
fn parse_ppm(what: &str, value: &str) -> Result<u32, PlanParseError> {
    let ppm: u32 =
        value.trim().parse().map_err(|_| PlanParseError::new(format!("bad {what} `{value}`")))?;
    if ppm > 1_000_000 {
        return Err(PlanParseError::new(format!("{what} `{value}` above 1000000")));
    }
    Ok(ppm)
}

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
                "delay" => spec.delay_ms = parse_ms("delay", value)?,
                "jitter" => spec.jitter_ms = parse_ms("jitter", value)?,
                "drop" => match value.trim().parse::<f64>() {
                    Ok(frac) if (0.0..=1.0).contains(&frac) => spec = spec.with_drop(frac),
                    Ok(_) => {
                        return Err(PlanParseError::new(format!("drop `{value}` outside 0..=1")))
                    }
                    Err(_) => return Err(PlanParseError::new(format!("bad drop `{value}`"))),
                },
                "drop_ppm" => spec.drop_ppm = parse_ppm("drop_ppm", value)?,
                other => {
                    return Err(PlanParseError::new(format!("unknown key `{other}`")));
                }
            }
        }
        Ok(spec)
    }
}

/// Which directed edges a [`PartitionWindow`] acts on: those crossing its
/// group's boundary, leaving the group, or entering it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edges {
    Across,
    From,
    To,
}

/// What a [`PartitionWindow`] does to a frame sent on one of its edges; a
/// lost frame's probability is in parts per million.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    Buffer,
    Hold,
    Lose(u32),
}

/// A scripted window: during `start_ms..end_ms` it acts on every frame
/// sent on the edges it selects. By default it buffers them until the
/// window ends (the TCP link closes, reconnects after heal, and flushes its
/// buffer; the simulator delivers at the heal time plus the edge delay);
/// [`PartitionWindow::hold`] and [`PartitionWindow::lose`] choose the other
/// effects. Every constructor panics if the window is empty
/// (`start_ms >= end_ms`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start, inclusive, in milliseconds since the run began.
    pub start_ms: u64,
    /// Window end, exclusive, in milliseconds since the run began.
    pub end_ms: u64,
    edges: Edges,
    group: Vec<u16>,
    effect: Effect,
}

impl PartitionWindow {
    /// Severs `group` from the rest of the cluster during
    /// `start_ms..end_ms`.
    pub fn isolate(start_ms: u64, end_ms: u64, group: impl IntoIterator<Item = NodeId>) -> Self {
        assert!(start_ms < end_ms, "partition window must be non-empty");
        let mut group: Vec<u16> = group.into_iter().map(|id| id.0).collect();
        group.sort_unstable();
        group.dedup();
        PartitionWindow { start_ms, end_ms, edges: Edges::Across, group, effect: Effect::Buffer }
    }

    /// Acts on every edge leaving a member of `group` during
    /// `start_ms..end_ms` (on every edge, if the group is the whole cluster).
    pub fn from_group(start_ms: u64, end_ms: u64, group: impl IntoIterator<Item = NodeId>) -> Self {
        PartitionWindow { edges: Edges::From, ..PartitionWindow::isolate(start_ms, end_ms, group) }
    }

    /// Acts on every edge entering a member of `group` during
    /// `start_ms..end_ms`.
    pub fn to_group(start_ms: u64, end_ms: u64, group: impl IntoIterator<Item = NodeId>) -> Self {
        PartitionWindow { edges: Edges::To, ..PartitionWindow::isolate(start_ms, end_ms, group) }
    }

    /// The same window, holding its frames: each arrives at the window's
    /// end, whatever its sampled delay.
    pub fn hold(self) -> Self {
        PartitionWindow { effect: Effect::Hold, ..self }
    }

    /// The same window, losing each of its frames with probability
    /// `fraction` (clamped to `0.0..=1.0`).
    pub fn lose(self, fraction: f64) -> Self {
        PartitionWindow { effect: Effect::Lose(ppm(fraction)), ..self }
    }

    /// Whether this window acts on the directed edge `from → to`.
    fn severs(&self, from: NodeId, to: NodeId) -> bool {
        let member = |id: NodeId| self.group.binary_search(&id.0).is_ok();
        match self.edges {
            Edges::Across => member(from) != member(to),
            Edges::From => member(from),
            Edges::To => member(to),
        }
    }
}

impl std::fmt::Display for PartitionWindow {
    /// Canonical `start..end:[from |to ]ids[:hold|:lose_ppm=N]` form,
    /// re-parsable by [`PartitionWindow::from_str`] (the group is kept
    /// sorted, so the rendering is unique; a buffer prints no effect).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let edges = match self.edges {
            Edges::Across => "",
            Edges::From => "from ",
            Edges::To => "to ",
        };
        write!(f, "{}..{}:{edges}", self.start_ms, self.end_ms)?;
        let mut sep = "";
        for id in &self.group {
            write!(f, "{sep}{id}")?;
            sep = ",";
        }
        match self.effect {
            Effect::Buffer => Ok(()),
            Effect::Hold => f.write_str(":hold"),
            Effect::Lose(ppm) => write!(f, ":lose_ppm={ppm}"),
        }
    }
}

impl FromStr for PartitionWindow {
    type Err = PlanParseError;

    /// Parses `"500..1500:0,3"` — isolate nodes 0 and 3 during
    /// milliseconds 500..1500 — and its variants: `from 0` or `to 0` in
    /// place of the group select the edges leaving or entering it, and a
    /// trailing `:hold` or `:lose_ppm=<n>` picks the effect.
    fn from_str(s: &str) -> Result<Self, PlanParseError> {
        let (range, rest) = s
            .split_once(':')
            .ok_or_else(|| PlanParseError::new(format!("expected range:group, got `{s}`")))?;
        let (group, effect) = rest.split_once(':').unwrap_or((rest, ""));
        let (start, end) = range
            .split_once("..")
            .ok_or_else(|| PlanParseError::new(format!("expected start..end, got `{range}`")))?;
        let (start, end) = (parse_ms("start", start)?, parse_ms("end", end)?);
        if start >= end {
            return Err(PlanParseError::new(format!("empty window `{range}`")));
        }
        let group = group.trim();
        let (edges, group) = match (group.strip_prefix("from"), group.strip_prefix("to")) {
            (Some(ids), _) => (Edges::From, ids),
            (_, Some(ids)) => (Edges::To, ids),
            _ => (Edges::Across, group),
        };
        let ids = group.split(',').filter(|id| !id.trim().is_empty());
        let ids = ids.map(|id| parse_id(id).map(NodeId)).collect::<Result<Vec<_>, _>>()?;
        if ids.is_empty() {
            return Err(PlanParseError::new("partition group is empty"));
        }
        let effect = match (effect.trim(), effect.trim().strip_prefix("lose_ppm=")) {
            ("", _) => Effect::Buffer,
            ("hold", _) => Effect::Hold,
            (_, Some(ppm)) => Effect::Lose(parse_ppm("lose_ppm", ppm)?),
            (other, None) => {
                return Err(PlanParseError::new(format!("unknown window effect `{other}`")))
            }
        };
        Ok(PartitionWindow { edges, effect, ..PartitionWindow::isolate(start, end, ids) })
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
    pub(crate) fn edge(mut self, from: NodeId, to: NodeId, spec: EdgeSpec) -> Self {
        self.edges.insert((from.0, to.0), spec);
        self
    }

    /// Overrides both directions between `a` and `b`.
    pub fn link(self, a: NodeId, b: NodeId, spec: EdgeSpec) -> Self {
        self.edge(a, b, spec).edge(b, a, spec)
    }

    /// Adds a scripted window; windows act in the order they are added.
    pub fn partition(mut self, window: PartitionWindow) -> Self {
        self.partitions.push(window);
        self
    }

    /// The spec governing `from → to` (the directed override if present,
    /// else the default).
    pub fn edge_spec(&self, from: NodeId, to: NodeId) -> EdgeSpec {
        self.edges.get(&(from.0, to.0)).copied().unwrap_or(self.default)
    }

    /// The scripted windows.
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

    /// Whether the plan never drops a message: no edge has a loss rate and
    /// no window loses frames. Liveness oracles are only armed on lossless
    /// plans: with loss the partial-synchrony model gives no delivery bound
    /// to hold the protocol to.
    pub fn is_lossless(&self) -> bool {
        self.default.drop_ppm == 0
            && self.edges.values().all(|e| e.drop_ppm == 0)
            && self.partitions.iter().all(|w| !matches!(w.effect, Effect::Lose(ppm) if ppm > 0))
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

    /// The windows acting on a frame sent on `from → to` at `at_ms`, in
    /// plan order.
    fn open(&self, from: NodeId, to: NodeId, at_ms: u64) -> impl Iterator<Item = &PartitionWindow> {
        let open = move |w: &&PartitionWindow| (w.start_ms..w.end_ms).contains(&at_ms);
        self.partitions.iter().filter(move |w| w.severs(from, to)).filter(open)
    }

    /// When a frame sent on `from → to` at `at_ms` leaves the buffer
    /// windows whose selector passes `keep` (`at_ms` when none holds it),
    /// walking chained or overlapping windows through to the final heal.
    fn heal(&self, from: NodeId, to: NodeId, at_ms: u64, keep: impl Fn(Edges) -> bool) -> u64 {
        let next = |&at: &u64| {
            let buffers = self.open(from, to, at).filter(|w| w.effect == Effect::Buffer);
            buffers.filter(|w| keep(w.edges)).map(|w| w.end_ms).max()
        };
        std::iter::successors(Some(at_ms), next).last().unwrap_or(at_ms)
    }

    /// When the link carrying `from → to`, severed at `at_ms`, comes back
    /// (`at_ms` when it is up). Only buffer windows that isolate a group
    /// sever a link — the TCP runtime tears its socket down until then;
    /// every other window acts on each frame in [`LinkPlan::route_at`].
    pub fn release_time(&self, from: NodeId, to: NodeId, at_ms: u64) -> u64 {
        self.heal(from, to, at_ms, |edges| edges == Edges::Across)
    }

    /// Routes one message sent on `from → to` at `at_ms`: `None` if it is
    /// lost, otherwise its absolute delivery time in milliseconds.
    ///
    /// The edge's loss and delay are sampled first. Then each window open
    /// at `at_ms` on the edge acts, in plan order: a lose window may drop
    /// the message; a hold window makes it arrive at its end (the latest
    /// end, if several hold it; its delay and any buffering are ignored);
    /// otherwise it leaves when the buffer windows heal and takes its
    /// delay from there.
    pub fn route_at(&self, from: NodeId, to: NodeId, at_ms: u64, rng: &mut StdRng) -> Option<u64> {
        let delay = self.edge_spec(from, to).sample(rng)?;
        let mut held = None;
        for w in self.open(from, to, at_ms) {
            match w.effect {
                Effect::Lose(ppm) if lost(ppm, rng) => return None,
                Effect::Hold => held = held.max(Some(w.end_ms)),
                _ => {}
            }
        }
        Some(held.unwrap_or_else(|| self.heal(from, to, at_ms, |_| true) + delay))
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
    /// `part(<window>)` segments, in any order.
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
                    let (edge, spec) = body.split_once(',').unwrap_or((body, ""));
                    let (from, to) = edge.split_once("->").ok_or_else(|| {
                        PlanParseError::new(format!("expected from->to, got `{edge}`"))
                    })?;
                    plan.edges.insert((parse_id(from)?, parse_id(to)?), spec.parse()?);
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
        let leaving: PartitionWindow = "0..9:from 0".parse().unwrap();
        assert!(leaving.severs(NodeId(0), NodeId(1)) && !leaving.severs(NodeId(1), NodeId(0)));
        let entering: PartitionWindow = "0..9:to 0".parse().unwrap();
        assert!(entering.severs(NodeId(1), NodeId(0)) && !entering.severs(NodeId(0), NodeId(1)));
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
            .partition(PartitionWindow::isolate(700, 900, [NodeId(1)]))
            .partition(PartitionWindow::from_group(0, 150, [NodeId(2)]).hold())
            .partition(PartitionWindow::to_group(0, 200, [NodeId(3)]).lose(0.5));
        let text = plan.to_string();
        assert_eq!(
            text,
            "default(delay=30,jitter=3); edge(0->3); edge(2->1,delay=80); \
             part(100..500:0,3); part(700..900:1); part(0..150:from 2:hold); \
             part(0..200:to 3:lose_ppm=500000)"
        );
        let parsed: LinkPlan = text.parse().unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.to_string(), text, "canonical form is a fixpoint");
        // drop_ppm survives exactly (the fractional `drop` key would not).
        let lossy = LinkPlan::uniform(EdgeSpec { delay_ms: 2, jitter_ms: 0, drop_ppm: 123_457 });
        assert_eq!(lossy.to_string().parse::<LinkPlan>().unwrap(), lossy);
        assert!(!lossy.is_lossless());
        assert!(!plan.is_lossless(), "a lose window loses");
        assert!(plan.without_partition(3).is_lossless());
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

    #[test]
    fn synchronous_is_fixed() {
        // A synchronous network: every frame arrives exactly δ = 3 after it is sent.
        let plan = LinkPlan::uniform(EdgeSpec::delay(3));
        assert_eq!(plan.route_at(NodeId(0), NodeId(1), 10, &mut rng()), Some(13));
        assert!(plan.is_lossless());
    }

    #[test]
    fn loss_before_gst_then_delta() {
        // Partial synchrony with lossy links until GST = 100, δ = 4 after.
        let plan = LinkPlan::uniform(EdgeSpec::delay(4))
            .partition(PartitionWindow::from_group(0, 100, (0..4).map(NodeId)).lose(1.0));
        let mut r = rng();
        assert_eq!(plan.route_at(NodeId(0), NodeId(1), 99, &mut r), None);
        assert_eq!(plan.route_at(NodeId(0), NodeId(1), 100, &mut r), Some(104));
        assert_eq!(plan.route_at(NodeId(2), NodeId(3), 150, &mut r), Some(154));
    }

    #[test]
    fn buffering_delivers_at_gst_plus_delta() {
        let buffered = PartitionWindow::from_group(0, 100, (0..4).map(NodeId));
        let plan = LinkPlan::uniform(EdgeSpec::delay(4)).partition(buffered);
        assert_eq!(plan.route_at(NodeId(0), NodeId(1), 7, &mut rng()), Some(104));
        assert!(plan.is_lossless());
        // Only a window isolating a group takes a link down.
        assert_eq!(plan.release_time(NodeId(0), NodeId(1), 7), 7);
    }

    #[test]
    fn jitter_stays_in_range_and_is_deterministic() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(2).with_jitter(3));
        let route = |seed| {
            let mut r = StdRng::seed_from_u64(seed);
            (0..100).map(|_| plan.route_at(NodeId(0), NodeId(1), 0, &mut r)).collect::<Vec<_>>()
        };
        let routes = route(42);
        assert!(routes.iter().all(|at| matches!(at, Some(2..=5))), "{routes:?}");
        assert_eq!(routes, route(42), "a pure function of the seed");
    }

    #[test]
    fn a_held_frame_arrives_at_the_window_end() {
        // Node 1's outbound traffic is held during 400..750.
        let plan = LinkPlan::uniform(EdgeSpec::delay(10).with_jitter(20))
            .partition(PartitionWindow::from_group(400, 750, [NodeId(1)]).hold());
        let mut r = rng();
        assert_eq!(plan.route_at(NodeId(1), NodeId(0), 400, &mut r), Some(750));
        assert_eq!(plan.route_at(NodeId(1), NodeId(2), 749, &mut r), Some(750), "not later");
        let free = plan.route_at(NodeId(0), NodeId(1), 500, &mut r).unwrap();
        assert!((510..=530).contains(&free), "inbound traffic is not held: {free}");
        assert_eq!(plan.release_time(NodeId(1), NodeId(0), 500), 500, "a hold severs no link");
    }

    #[test]
    fn lose_windows_drop_their_fraction_after_the_edge_sample() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(3))
            .partition(PartitionWindow::to_group(0, 150, [NodeId(3)]).lose(0.5));
        // The edge's jitter is drawn first, then the window's coin.
        for seed in 0..20 {
            let (mut by_plan, mut by_hand) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let delay = 1 + by_hand.random_range(0..=3u64);
            let kept = by_hand.random_range(0..1_000_000u64) >= 500_000;
            let routed = plan.route_at(NodeId(0), NodeId(3), 10, &mut by_plan);
            assert_eq!(routed, kept.then_some(10 + delay));
        }
        let mut r = rng();
        assert!((0..100).all(|_| plan.route_at(NodeId(0), NodeId(3), 150, &mut r).is_some()));
    }
}

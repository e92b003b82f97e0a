//! Spans recorded from outside the program.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span: a name, a start and an end in nanoseconds since the tracer
//! was created, and the span that was open when it began (its parent).
//! Nothing inside the kernel is instrumented. Spans stay in memory until
//! they are reduced.
//!
//! An *op* is the workload's unit of work. It carries its wall interval
//! and the top-level spans on its path. A span may sit on the path of
//! several ops: one RX burst serves every request in it.
//!
//! Workloads call [`Tracer::flush`] between units of work, where no span
//! is open and no later op links an earlier span: the buffered spans are
//! then checked, folded into a running [`Breakdown`] and dropped, so a
//! long traced run keeps little in memory.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover. An op's unattributed time is its wall time
//! minus the part its linked spans cover. When spans nest properly, the
//! self times of every span under an op's links plus its unattributed
//! time add up to the op's wall time exactly; [`Tracer::check`] verifies
//! both properties.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// The id `begin` returns while tracing is off.
pub const NONE: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `kernel.net.tx`.
    pub name: &'static str,
    /// The span open when this one began, or [`NONE`].
    pub parent: SpanId,
    /// Start, ns since the tracer was created.
    pub start: u64,
    /// End, ns since the tracer was created.
    pub end: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpRec {
    start: u64,
    end: u64,
    first_link: u32,
    links: u32,
}

/// The span recorder. With tracing off it only keeps the clock.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    ops: Vec<OpRec>,
    links: Vec<SpanId>,
    /// Everything flushed so far.
    folded: Breakdown,
    /// The first check failure among flushed spans.
    failed: Option<String>,
}

/// Buffered spans above which [`Tracer::flush`] folds.
const FLUSH_SPANS: usize = 1 << 16;

/// Self time and call count per span name, and op coverage.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// `name -> (calls, self ns)`.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Ops recorded.
    pub ops: u64,
    /// Sum of op wall times, ns.
    pub op_wall_ns: u64,
    /// Sum of op time no linked span covers, ns.
    pub unattributed_ns: u64,
}

impl Breakdown {
    fn add(&mut self, o: &Breakdown) {
        for (name, &(calls, ns)) in &o.by_name {
            let e = self.by_name.entry(name).or_default();
            e.0 += calls;
            e.1 += ns;
        }
        self.ops += o.ops;
        self.op_wall_ns += o.op_wall_ns;
        self.unattributed_ns += o.unattributed_ns;
    }

    /// Mean self time per call of `name`, µs (0 when never called).
    pub fn self_us(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(calls, ns)) if calls > 0 => ns as f64 / calls as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Calls recorded for `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(c, _)| c)
    }

    /// Share of op wall time no span covers.
    pub fn unattributed_frac(&self) -> f64 {
        if self.op_wall_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.op_wall_ns as f64
        }
    }

    /// Mean op wall time, µs.
    pub fn op_mean_us(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.op_wall_ns as f64 / self.ops as f64 / 1e3
        }
    }
}

/// Length of the union of `ivs`, each clipped to `[lo, hi)`.
fn covered(ivs: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in ivs.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

impl Tracer {
    /// A tracer; `on` decides whether spans are kept.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: Vec::new(),
            links: Vec::new(),
            folded: Breakdown::default(),
            failed: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant time is measured from.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start = self.now();
        let id = self.push(name, start, start);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end = self.now();
    }

    /// Records an already finished interval as a child of the innermost
    /// open span (for intervals bounded by two earlier clock reads).
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        self.push(name, start, end)
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        id
    }

    /// Renames a recorded span (a burst entry that turned out to fault
    /// becomes the containment span).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if id != NONE {
            self.spans[id as usize].name = name;
        }
    }

    /// Records one op over `[start, end)` whose path is the top-level
    /// spans `path`.
    pub fn op(&mut self, start: u64, end: u64, path: &[SpanId]) {
        if !self.on {
            return;
        }
        let first_link = u32::try_from(self.links.len()).expect("fewer than 2^32 links");
        self.links
            .extend(path.iter().copied().filter(|&s| s != NONE));
        let links = self.links.len() as u32 - first_link;
        self.ops.push(OpRec {
            start,
            end,
            first_link,
            links,
        });
    }

    fn op_links(&self, op: &OpRec) -> &[SpanId] {
        &self.links[op.first_link as usize..(op.first_link + op.links) as usize]
    }

    /// Self time of every span, ns.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, ch)| {
                let dur = s.end.saturating_sub(s.start);
                dur.saturating_sub(covered(ch, s.start, s.end))
            })
            .collect()
    }

    fn op_unattributed(&self, op: &OpRec) -> u64 {
        let mut ivs: Vec<(u64, u64)> = self
            .op_links(op)
            .iter()
            .map(|&l| (self.spans[l as usize].start, self.spans[l as usize].end))
            .collect();
        let wall = op.end.saturating_sub(op.start);
        wall.saturating_sub(covered(&mut ivs, op.start, op.end))
    }

    /// At a point where no span is open and no later op will link a
    /// span recorded so far: once enough spans are buffered, checks them
    /// ([`Tracer::check`]), folds them into the running breakdown and
    /// drops them. Span ids from before a flush are invalid after it.
    pub fn flush(&mut self) {
        if self.spans.len() >= FLUSH_SPANS {
            self.fold();
        }
    }

    fn fold(&mut self) {
        if self.failed.is_none() {
            self.failed = self.check_buffer().err();
        }
        let b = self.buffer_breakdown();
        self.folded.add(&b);
        self.spans.clear();
        self.ops.clear();
        self.links.clear();
    }

    /// Self time per name and op coverage of every span recorded.
    pub fn breakdown(&self) -> Breakdown {
        let mut b = self.folded.clone();
        b.add(&self.buffer_breakdown());
        b
    }

    fn buffer_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = b.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
        for op in &self.ops {
            b.ops += 1;
            b.op_wall_ns += op.end.saturating_sub(op.start);
            b.unattributed_ns += self.op_unattributed(op);
        }
        b
    }

    /// Verifies, for every span recorded, that it lies inside its
    /// parent, that siblings do not overlap, that an op's links are
    /// top-level spans inside the op that do not overlap, and that for
    /// every op the self times under its links plus its unattributed time
    /// equal its wall time.
    pub fn check(&self) -> Result<(), String> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => self.check_buffer(),
        }
    }

    fn check_buffer(&self) -> Result<(), String> {
        if let Some(&open) = self.open.last() {
            return Err(format!("span {open} never closed"));
        }
        let mut siblings: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} `{}` ends before it starts", s.name));
            }
            if s.parent == NONE {
                continue;
            }
            let p = &self.spans[s.parent as usize];
            if s.start < p.start || s.end > p.end {
                return Err(format!("span {i} `{}` leaves parent `{}`", s.name, p.name));
            }
            siblings.entry(s.parent).or_default().push((s.start, s.end));
        }
        for (parent, mut ivs) in siblings {
            ivs.sort_unstable();
            if ivs.windows(2).any(|w| w[1].0 < w[0].1) {
                return Err(format!("children of span {parent} overlap"));
            }
        }

        // Sum self times per top-level ancestor. A parent is always
        // recorded before its children, so one forward pass suffices.
        let self_ns = self.self_times();
        let mut root = vec![NONE; self.spans.len()];
        let mut subtree_self = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root[i] = if s.parent == NONE {
                i as SpanId
            } else {
                root[s.parent as usize]
            };
            subtree_self[root[i] as usize] += self_ns[i];
        }
        for (n, op) in self.ops.iter().enumerate() {
            if op.end < op.start {
                return Err(format!("op {n} ends before it starts"));
            }
            let mut ivs = Vec::new();
            let mut attributed = 0;
            for &l in self.op_links(op) {
                let s = &self.spans[l as usize];
                if s.parent != NONE {
                    return Err(format!("op {n} links non-top-level span `{}`", s.name));
                }
                if s.start < op.start || s.end > op.end {
                    return Err(format!("op {n} links `{}` outside its interval", s.name));
                }
                ivs.push((s.start, s.end));
                attributed += subtree_self[l as usize];
            }
            ivs.sort_unstable();
            if ivs.windows(2).any(|w| w[1].0 < w[0].1) {
                return Err(format!("op {n} links overlapping spans"));
            }
            let wall = op.end - op.start;
            let sum = attributed + self.op_unattributed(op);
            if sum != wall {
                return Err(format!(
                    "op {n}: self times + unattributed = {sum} ns, wall = {wall} ns"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tracer {
        fn from_parts(spans: Vec<Span>, ops: Vec<(u64, u64, Vec<SpanId>)>) -> Self {
            let mut t = Tracer::new(true);
            t.spans = spans;
            for (start, end, path) in ops {
                t.op(start, end, &path);
            }
            t
        }
    }

    fn span(name: &'static str, parent: SpanId, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::from_parts(
            vec![
                span("enter", NONE, 0, 100),
                span("tx", 0, 10, 60),
                span("free", 0, 70, 90),
                span("wait", NONE, 100, 130),
            ],
            vec![(0, 140, vec![0, 3])],
        );
        t.check().unwrap();
        let b = t.breakdown();
        assert_eq!(b.by_name["enter"], (1, 30));
        assert_eq!(b.by_name["tx"], (1, 50));
        assert_eq!(b.unattributed_ns, 10);
        assert_eq!(b.op_wall_ns, 140);
    }

    #[test]
    fn a_shared_span_serves_every_op_that_links_it() {
        let t = Tracer::from_parts(
            vec![
                span("burst", NONE, 0, 50),
                span("req", NONE, 50, 70),
                span("wait", NONE, 50, 70),
                span("req", NONE, 70, 90),
            ],
            vec![(0, 70, vec![0, 1]), (0, 90, vec![0, 2, 3])],
        );
        t.check().unwrap();
        assert_eq!(t.breakdown().unattributed_ns, 0);
    }

    #[test]
    fn check_rejects_a_child_outside_its_parent() {
        let t = Tracer::from_parts(
            vec![span("enter", NONE, 0, 100), span("tx", 0, 90, 120)],
            vec![],
        );
        assert!(t.check().unwrap_err().contains("leaves parent"));
    }

    #[test]
    fn check_rejects_overlapping_siblings() {
        let t = Tracer::from_parts(
            vec![
                span("enter", NONE, 0, 100),
                span("a", 0, 10, 50),
                span("b", 0, 40, 60),
            ],
            vec![],
        );
        assert!(t.check().unwrap_err().contains("overlap"));
    }

    #[test]
    fn check_rejects_links_outside_the_op() {
        let t = Tracer::from_parts(vec![span("enter", NONE, 0, 100)], vec![(10, 100, vec![0])]);
        assert!(t.check().unwrap_err().contains("outside"));
    }

    #[test]
    fn recorded_spans_nest_under_the_open_one() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        let (a, b) = (t.spans[inner as usize].start, t.now());
        let rec = t.record("rec", a, b);
        t.end(outer);
        assert_eq!(t.spans[inner as usize].parent, outer);
        assert_eq!(t.spans[rec as usize].parent, outer);
        t.op(t.spans[0].start, t.spans[0].end, &[outer]);
        assert!(t.check().is_err(), "rec overlaps inner");
    }

    #[test]
    fn folding_keeps_the_breakdown_and_the_first_failure() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            let outer = t.begin("enter");
            let inner = t.begin("tx");
            t.end(inner);
            t.end(outer);
            let s = t.spans[outer as usize];
            t.op(s.start, s.end, &[outer]);
        }
        let whole = t.breakdown();
        t.fold();
        assert!(t.spans.is_empty());
        let b = t.breakdown();
        assert_eq!((b.ops, b.by_name["tx"].0), (3, 3));
        assert_eq!(b.op_wall_ns, whole.op_wall_ns);
        t.check().unwrap();

        t.spans.push(span("bad", NONE, 10, 5));
        t.fold();
        assert!(t.check().unwrap_err().contains("ends before"));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        assert_eq!(s, NONE);
        t.end(s);
        t.op(0, 10, &[s]);
        assert!(t.spans.is_empty());
        assert_eq!(t.breakdown().ops, 0);
    }
}

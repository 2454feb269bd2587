//! The compositional fault-plan algebra.
//!
//! A [`ChaosPlan`] is a tree: leaves are typed attack primitives
//! ([`ChaosAtom`]), inner nodes place them in time. [`ChaosPlan::Window`]
//! restricts its body to a sub-interval, [`ChaosPlan::Overlay`] runs
//! children simultaneously, and [`ChaosPlan::Sequence`] splits the
//! enclosing interval evenly among consecutive children. Normalization
//! ([`ChaosPlan::normalize`]) flattens any tree into a list of
//! `(atom, from, until)` spans over a fixed horizon — the only form the
//! lowering to `FaultPlan` windows and arrival phases consumes.
//!
//! All parameters are integers (rates in parts-per-million, times in
//! microseconds) so plans hash, compare, and serialize exactly.

/// One attack primitive, active over whatever span the enclosing
/// combinators give it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosAtom {
    /// UINTR drop burst: each `SENDUIPI` in the span is dropped with
    /// probability `rate_ppm / 1e6` (lowered to an `IpiDrop` window).
    UintrDropBurst {
        /// Drop probability, parts per million.
        rate_ppm: u32,
    },
    /// Core-hog storm: each task start in the span hogs its core for
    /// `hog_us` with probability `rate_ppm / 1e6` (a `CoreHog` window;
    /// preemptions cannot land inside the stall).
    CoreHogStorm {
        /// Hog probability per task start, parts per million.
        rate_ppm: u32,
        /// Stall length, microseconds.
        hog_us: u32,
    },
    /// Timer-jitter wave: each kernel-timer arm in the span fires
    /// `spike_us` late with probability `rate_ppm / 1e6` (a
    /// `TimerSpike` window).
    TimerJitterWave {
        /// Spike probability per arm, parts per million.
        rate_ppm: u32,
        /// Extra delay, microseconds.
        spike_us: u32,
    },
    /// Antagonist-tenant arrival spike: `extra_rps` requests/second of
    /// additional offered load over the span (lowered to a
    /// `RateSchedule::Phases` segment, not a fault window).
    ArrivalSpike {
        /// Additional offered load, requests per second.
        extra_rps: u32,
    },
}

impl ChaosAtom {
    /// Short lower-case tag used by the corpus text form and labels.
    pub const fn tag(self) -> &'static str {
        match self {
            ChaosAtom::UintrDropBurst { .. } => "drop",
            ChaosAtom::CoreHogStorm { .. } => "hog",
            ChaosAtom::TimerJitterWave { .. } => "jitter",
            ChaosAtom::ArrivalSpike { .. } => "spike",
        }
    }
}

/// A typed, composable attack plan. See the module docs for the
/// semantics of each combinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosPlan {
    /// A primitive, active over the whole enclosing span.
    Atom(ChaosAtom),
    /// The body, restricted to `[from_us, from_us + dur_us)` relative
    /// to the enclosing span's start (clipped to the span's end).
    Window {
        /// Body of the window.
        body: Box<ChaosPlan>,
        /// Offset of the window start within the enclosing span, µs.
        from_us: u32,
        /// Window length, µs.
        dur_us: u32,
    },
    /// All children active simultaneously over the enclosing span.
    Overlay(Vec<ChaosPlan>),
    /// Children active back-to-back: the enclosing span is split into
    /// equal consecutive segments, one per child.
    Sequence(Vec<ChaosPlan>),
}

/// One normalized span: `atom` is active on `[from_us, until_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomSpan {
    /// The active primitive.
    pub atom: ChaosAtom,
    /// Span start, µs from run start.
    pub from_us: u64,
    /// Span end (exclusive), µs from run start.
    pub until_us: u64,
}

impl ChaosPlan {
    /// Convenience constructor: `body` windowed to
    /// `[from_us, from_us + dur_us)`.
    pub fn windowed(body: ChaosPlan, from_us: u32, dur_us: u32) -> ChaosPlan {
        ChaosPlan::Window {
            body: Box::new(body),
            from_us,
            dur_us,
        }
    }

    /// Flattens the tree into atom spans over `[0, horizon_us)`.
    /// Degenerate spans (empty intervals, empty combinators) vanish;
    /// the result is sorted by `(from, until, atom)` so equal plans
    /// normalize to equal bytes regardless of tree shape.
    pub fn normalize(&self, horizon_us: u64) -> Vec<AtomSpan> {
        let mut spans = Vec::new();
        self.collect(0, horizon_us, &mut spans);
        spans.sort_by_key(|s| (s.from_us, s.until_us, s.atom));
        spans
    }

    fn collect(&self, from_us: u64, until_us: u64, out: &mut Vec<AtomSpan>) {
        if from_us >= until_us {
            return;
        }
        match self {
            ChaosPlan::Atom(a) => out.push(AtomSpan {
                atom: *a,
                from_us,
                until_us,
            }),
            ChaosPlan::Window {
                body,
                from_us: off,
                dur_us,
            } => {
                let start = (from_us + u64::from(*off)).min(until_us);
                let end = start.saturating_add(u64::from(*dur_us)).min(until_us);
                body.collect(start, end, out);
            }
            ChaosPlan::Overlay(children) => {
                for c in children {
                    c.collect(from_us, until_us, out);
                }
            }
            ChaosPlan::Sequence(children) => {
                if children.is_empty() {
                    return;
                }
                let n = children.len() as u64;
                let total = until_us - from_us;
                for (i, c) in children.iter().enumerate() {
                    // Integer segment boundaries: child i covers
                    // [from + i*total/n, from + (i+1)*total/n), so the
                    // segments tile the span exactly.
                    let a = from_us + total * i as u64 / n;
                    let b = from_us + total * (i as u64 + 1) / n;
                    c.collect(a, b, out);
                }
            }
        }
    }

    /// Number of atom leaves (0 for a plan of empty combinators) — the
    /// size metric the minimizer drives down.
    pub fn leaves(&self) -> usize {
        match self {
            ChaosPlan::Atom(_) => 1,
            ChaosPlan::Window { body, .. } => body.leaves(),
            ChaosPlan::Overlay(cs) | ChaosPlan::Sequence(cs) => {
                cs.iter().map(ChaosPlan::leaves).sum()
            }
        }
    }

    /// Returns a copy with the `i`-th leaf (depth-first order) removed,
    /// pruning combinators emptied by the removal. `None` when `i` is
    /// out of range or the plan is a single leaf (nothing would
    /// remain).
    pub fn without_leaf(&self, i: usize) -> Option<ChaosPlan> {
        if self.leaves() <= 1 {
            return None;
        }
        let mut k = i;
        let out = self.remove_leaf(&mut k);
        // `k` only reaches the sentinel when a leaf was actually
        // removed; an out-of-range index walks off the end and returns
        // the plan unchanged, which is not a removal.
        (k == usize::MAX).then_some(out).flatten()
    }

    fn remove_leaf(&self, k: &mut usize) -> Option<ChaosPlan> {
        match self {
            ChaosPlan::Atom(_) => {
                if *k == 0 {
                    // Signal removal by returning None from a leaf; the
                    // parent drops it.
                    *k = usize::MAX;
                    None
                } else {
                    *k -= 1;
                    Some(self.clone())
                }
            }
            ChaosPlan::Window {
                body,
                from_us,
                dur_us,
            } => {
                let new = body.remove_leaf(k)?;
                Some(ChaosPlan::Window {
                    body: Box::new(new),
                    from_us: *from_us,
                    dur_us: *dur_us,
                })
            }
            ChaosPlan::Overlay(cs) => {
                let kept = Self::remove_from_children(cs, k);
                (!kept.is_empty()).then_some(ChaosPlan::Overlay(kept))
            }
            ChaosPlan::Sequence(cs) => {
                let kept = Self::remove_from_children(cs, k);
                (!kept.is_empty()).then_some(ChaosPlan::Sequence(kept))
            }
        }
    }

    /// Returns a copy with the `i`-th leaf (depth-first order) replaced
    /// by `f(leaf)`; `None` when `i` is out of range. The coordinate
    /// moves of the search mutate one leaf at a time through this.
    pub fn map_leaf(&self, i: usize, f: impl FnOnce(ChaosAtom) -> ChaosAtom) -> Option<ChaosPlan> {
        let mut k = i;
        let mut f = Some(f);
        let out = self.replace_leaf(&mut k, &mut f);
        f.is_none().then_some(out)
    }

    fn replace_leaf(
        &self,
        k: &mut usize,
        f: &mut Option<impl FnOnce(ChaosAtom) -> ChaosAtom>,
    ) -> ChaosPlan {
        match self {
            ChaosPlan::Atom(a) => {
                if f.is_some() && *k == 0 {
                    let f = f.take().expect("checked");
                    ChaosPlan::Atom(f(*a))
                } else {
                    if f.is_some() {
                        *k -= 1;
                    }
                    self.clone()
                }
            }
            ChaosPlan::Window {
                body,
                from_us,
                dur_us,
            } => ChaosPlan::Window {
                body: Box::new(body.replace_leaf(k, f)),
                from_us: *from_us,
                dur_us: *dur_us,
            },
            ChaosPlan::Overlay(cs) => {
                ChaosPlan::Overlay(cs.iter().map(|c| c.replace_leaf(k, f)).collect())
            }
            ChaosPlan::Sequence(cs) => {
                ChaosPlan::Sequence(cs.iter().map(|c| c.replace_leaf(k, f)).collect())
            }
        }
    }

    fn remove_from_children(cs: &[ChaosPlan], k: &mut usize) -> Vec<ChaosPlan> {
        let mut kept = Vec::with_capacity(cs.len());
        for c in cs {
            if *k == usize::MAX {
                kept.push(c.clone());
                continue;
            }
            if let Some(child) = c.remove_leaf(k) {
                kept.push(child);
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop(ppm: u32) -> ChaosPlan {
        ChaosPlan::Atom(ChaosAtom::UintrDropBurst { rate_ppm: ppm })
    }

    #[test]
    fn atom_covers_the_whole_horizon() {
        let spans = drop(1000).normalize(500);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].from_us, spans[0].until_us), (0, 500));
    }

    #[test]
    fn window_clips_to_the_horizon() {
        let p = ChaosPlan::windowed(drop(1000), 400, 1_000);
        let spans = p.normalize(500);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].from_us, spans[0].until_us), (400, 500));
        // A window entirely past the horizon vanishes.
        assert!(ChaosPlan::windowed(drop(1), 600, 10)
            .normalize(500)
            .is_empty());
    }

    #[test]
    fn sequence_tiles_the_span_exactly() {
        let p = ChaosPlan::Sequence(vec![drop(1), drop(2), drop(3)]);
        let spans = p.normalize(1000);
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].from_us, spans[0].until_us), (0, 333));
        assert_eq!((spans[1].from_us, spans[1].until_us), (333, 666));
        assert_eq!((spans[2].from_us, spans[2].until_us), (666, 1000));
    }

    #[test]
    fn overlay_runs_children_simultaneously() {
        let p = ChaosPlan::Overlay(vec![
            drop(1),
            ChaosPlan::Atom(ChaosAtom::ArrivalSpike { extra_rps: 500 }),
        ]);
        let spans = p.normalize(100);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.from_us == 0 && s.until_us == 100));
    }

    #[test]
    fn normalization_is_shape_independent() {
        // overlay(a, overlay(b)) and overlay(a, b) normalize equal.
        let a = drop(1);
        let b = drop(2);
        let nested = ChaosPlan::Overlay(vec![a.clone(), ChaosPlan::Overlay(vec![b.clone()])]);
        let flat = ChaosPlan::Overlay(vec![a, b]);
        assert_eq!(nested.normalize(100), flat.normalize(100));
    }

    #[test]
    fn leaf_removal_prunes_emptied_combinators() {
        let p = ChaosPlan::Overlay(vec![
            ChaosPlan::windowed(drop(1), 0, 10),
            ChaosPlan::Sequence(vec![drop(2), drop(3)]),
        ]);
        assert_eq!(p.leaves(), 3);
        // Removing leaf 0 drops the whole window branch.
        let q = p.without_leaf(0).expect("removable");
        assert_eq!(q.leaves(), 2);
        assert_eq!(
            q,
            ChaosPlan::Overlay(vec![ChaosPlan::Sequence(vec![drop(2), drop(3)])])
        );
        // A single-leaf plan refuses to empty itself.
        assert!(drop(1).without_leaf(0).is_none());
        assert!(p.without_leaf(3).is_none());
    }

    #[test]
    fn leaf_mapping_targets_exactly_one_leaf() {
        let p = ChaosPlan::Sequence(vec![drop(1), ChaosPlan::Overlay(vec![drop(2), drop(3)])]);
        let q = p
            .map_leaf(1, |_| ChaosAtom::UintrDropBurst { rate_ppm: 99 })
            .expect("in range");
        assert_eq!(
            q,
            ChaosPlan::Sequence(vec![drop(1), ChaosPlan::Overlay(vec![drop(99), drop(3)])])
        );
        assert!(p.map_leaf(3, |a| a).is_none());
    }
}

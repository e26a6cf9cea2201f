//! Behavioural-skeleton expression trees.
//!
//! The paper models applications as trees of behavioural skeletons "where
//! nodes are BSs and leaves are sequential portions of code" (§3.1), e.g.
//! `farm(pipeline(sequential, farm(sequential), sequential))`. [`BsExpr`]
//! is that tree; it drives contract splitting ([`crate::contract::split`]),
//! manager-hierarchy construction ([`crate::hierarchy`]) and the scenario
//! builders of the substrates.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A skeleton expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BsExpr {
    /// A sequential stage (a leaf: plain code, no manager of its own unless
    /// it is a pipeline stage, in which case it gets a stage manager).
    Seq {
        /// Stage name (unique within its parent).
        name: String,
        /// Relative computational weight, used by the proportional
        /// parallelism-degree splitting heuristic (paper §3.1 footnote:
        /// "depending on the relative computational weight of the stages").
        weight: f64,
    },
    /// A functional-replication (task-farm) behavioural skeleton.
    Farm {
        /// Skeleton name.
        name: String,
        /// The replicated worker computation.
        worker: Box<BsExpr>,
        /// Parallelism degree at start-up.
        initial_workers: u32,
    },
    /// A pipeline behavioural skeleton.
    Pipe {
        /// Skeleton name.
        name: String,
        /// The stages, in order.
        stages: Vec<BsExpr>,
    },
}

impl BsExpr {
    /// A sequential stage with weight 1.
    pub fn seq(name: impl Into<String>) -> Self {
        BsExpr::Seq {
            name: name.into(),
            weight: 1.0,
        }
    }

    /// A sequential stage with an explicit relative weight.
    pub fn seq_weighted(name: impl Into<String>, weight: f64) -> Self {
        BsExpr::Seq {
            name: name.into(),
            weight,
        }
    }

    /// A farm over a worker expression.
    pub fn farm(name: impl Into<String>, worker: BsExpr, initial_workers: u32) -> Self {
        BsExpr::Farm {
            name: name.into(),
            worker: Box::new(worker),
            initial_workers,
        }
    }

    /// A pipeline over stages.
    pub fn pipe(name: impl Into<String>, stages: Vec<BsExpr>) -> Self {
        BsExpr::Pipe {
            name: name.into(),
            stages,
        }
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        match self {
            BsExpr::Seq { name, .. } | BsExpr::Farm { name, .. } | BsExpr::Pipe { name, .. } => {
                name
            }
        }
    }

    /// Direct children: pipeline stages, or the farm's worker template.
    pub fn children(&self) -> Vec<&BsExpr> {
        match self {
            BsExpr::Seq { .. } => Vec::new(),
            BsExpr::Farm { worker, .. } => vec![worker.as_ref()],
            BsExpr::Pipe { stages, .. } => stages.iter().collect(),
        }
    }

    /// Total relative weight: sum of the leaf weights below this node.
    pub fn weight(&self) -> f64 {
        match self {
            BsExpr::Seq { weight, .. } => *weight,
            BsExpr::Farm { worker, .. } => worker.weight(),
            BsExpr::Pipe { stages, .. } => stages.iter().map(BsExpr::weight).sum(),
        }
    }

    /// Number of *managed* nodes — nodes that get an autonomic manager:
    /// every farm and pipe, plus sequential stages that are direct pipeline
    /// stages (the paper's AM_P / AM_C).
    pub fn manager_count(&self) -> usize {
        match self {
            BsExpr::Seq { .. } => 0,
            BsExpr::Farm { worker, .. } => 1 + worker.manager_count(),
            BsExpr::Pipe { stages, .. } => {
                1 + stages
                    .iter()
                    .map(|s| match s {
                        BsExpr::Seq { .. } => 1, // stage manager for sequential stages
                        other => other.manager_count(),
                    })
                    .sum::<usize>()
            }
        }
    }

    /// Maximum nesting depth (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(BsExpr::depth)
            .max()
            .unwrap_or(0)
    }

    /// Finds a node by name (pre-order).
    pub fn find(&self, name: &str) -> Option<&BsExpr> {
        if self.name() == name {
            return Some(self);
        }
        self.children().into_iter().find_map(|c| c.find(name))
    }

    /// Parses a skeleton expression in the paper's notation, extended with
    /// optional names and weights:
    ///
    /// ```text
    /// expr  := ("seq" | "farm" | "pipe" | "pipeline" | "sequential")
    ///          (":" name)? ("@" weight)? ("(" expr ("," expr)* ")")? ("*" count)?
    /// ```
    ///
    /// `farm` takes exactly one child (the worker; `*count` after the
    /// closing parenthesis sets the initial parallelism degree, default 1);
    /// `pipe` takes one or more stages; `seq` takes none. Unnamed nodes are
    /// auto-named by their path (`pipe0`, `pipe0.farm1`, …).
    ///
    /// ```
    /// use bskel_core::bs::BsExpr;
    /// let e = BsExpr::parse("pipe(seq:producer, farm(seq:filter)*4, seq:consumer)").unwrap();
    /// assert_eq!(e.manager_count(), 4); // AM_A, AM_P, AM_F, AM_C
    /// ```
    pub fn parse(src: &str) -> Result<Self, String> {
        let mut p = ExprParser {
            src: src.as_bytes(),
            pos: 0,
        };
        let e = p.parse_expr("")?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(e)
    }
}

struct ExprParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl ExprParser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.src.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_' || *c == b'-')
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || *c == b'.')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn parse_expr(&mut self, path: &str) -> Result<BsExpr, String> {
        let kind = self.ident();
        let kind = match kind.as_str() {
            "seq" | "sequential" => "seq",
            "farm" => "farm",
            "pipe" | "pipeline" => "pipe",
            other => return Err(format!("unknown skeleton kind `{other}`")),
        };
        let name = if self.eat(b':') {
            self.ident()
        } else {
            let idx = self.pos; // byte position makes auto-names unique
            if path.is_empty() {
                format!("{kind}{idx}")
            } else {
                format!("{path}.{kind}{idx}")
            }
        };
        let weight = if self.eat(b'@') { self.number()? } else { 1.0 };

        let mut children = Vec::new();
        if self.eat(b'(') {
            loop {
                children.push(self.parse_expr(&name)?);
                if !self.eat(b',') {
                    break;
                }
            }
            if !self.eat(b')') {
                return Err(format!("expected `)` at byte {}", self.pos));
            }
        }
        let count = if self.eat(b'*') {
            self.number()? as u32
        } else {
            1
        };

        match kind {
            "seq" => {
                if !children.is_empty() {
                    return Err(format!("seq `{name}` cannot have children"));
                }
                Ok(BsExpr::Seq { name, weight })
            }
            "farm" => {
                if children.len() != 1 {
                    return Err(format!(
                        "farm `{name}` needs exactly one worker expression, got {}",
                        children.len()
                    ));
                }
                Ok(BsExpr::Farm {
                    name,
                    worker: Box::new(children.remove(0)),
                    initial_workers: count.max(1),
                })
            }
            "pipe" => {
                if children.is_empty() {
                    return Err(format!("pipe `{name}` needs at least one stage"));
                }
                Ok(BsExpr::Pipe {
                    name,
                    stages: children,
                })
            }
            _ => unreachable!("kind filtered above"),
        }
    }
}

impl BsExpr {
    /// Rewrites the tree, replacing the named **sequential pipeline stage**
    /// with a farm of `workers` instances of that stage — the structural
    /// adaptation the paper's §4.2 closes on: *"in the pipeline stage case
    /// we are investigating ways to transform the pipeline stage into a
    /// farm with the workers behaving as instances of the original
    /// stage."*
    ///
    /// Returns the rewritten tree, or an error if the stage is missing or
    /// is not a sequential pipeline stage (farms/pipes already carry their
    /// own parallelism; a farm worker is not independently promotable).
    // Public: paper feature in README §4.2 (stage-to-farm promotion).
    pub fn promote_stage_to_farm(&self, stage: &str, workers: u32) -> Result<BsExpr, String> {
        fn rewrite(node: &BsExpr, stage: &str, workers: u32, hits: &mut u32) -> BsExpr {
            match node {
                BsExpr::Pipe { name, stages } => BsExpr::Pipe {
                    name: name.clone(),
                    stages: stages
                        .iter()
                        .map(|s| match s {
                            BsExpr::Seq { name: sn, weight } if sn == stage => {
                                *hits += 1;
                                BsExpr::Farm {
                                    name: format!("{sn}_farm"),
                                    worker: Box::new(BsExpr::Seq {
                                        name: sn.clone(),
                                        weight: *weight,
                                    }),
                                    initial_workers: workers.max(1),
                                }
                            }
                            other => rewrite(other, stage, workers, hits),
                        })
                        .collect(),
                },
                BsExpr::Farm {
                    name,
                    worker,
                    initial_workers,
                } => BsExpr::Farm {
                    name: name.clone(),
                    worker: Box::new(rewrite(worker, stage, workers, hits)),
                    initial_workers: *initial_workers,
                },
                leaf => leaf.clone(),
            }
        }
        let mut hits = 0;
        let out = rewrite(self, stage, workers, &mut hits);
        match hits {
            0 => match self.find(stage) {
                Some(BsExpr::Seq { .. }) => Err(format!(
                    "stage `{stage}` is not a pipeline stage (cannot promote a farm worker)"
                )),
                Some(_) => Err(format!("`{stage}` is not a sequential stage")),
                None => Err(format!("no stage named `{stage}`")),
            },
            1 => Ok(out),
            n => Err(format!("stage name `{stage}` is ambiguous ({n} matches)")),
        }
    }

    /// Advises which pipeline stage to promote, given per-stage service
    /// times: the bottleneck (largest service time) sequential stage, with
    /// the parallelism degree needed to bring it level with the
    /// second-slowest stage. Returns `None` when no sequential stage is
    /// the bottleneck (the pipeline model: throughput is bounded by the
    /// slowest stage, so only promoting the bottleneck helps).
    // Public: paper feature in README §4.2 (stage-to-farm promotion).
    pub fn promotion_advice(stage_service: &[(String, f64)]) -> Option<(String, u32)> {
        if stage_service.len() < 2 {
            return None;
        }
        let (bottleneck, t_max) = stage_service
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))?;
        let t_next = stage_service
            .iter()
            .filter(|(n, _)| n != bottleneck)
            .map(|(_, t)| *t)
            .fold(0.0f64, f64::max);
        if t_next <= 0.0 || *t_max <= t_next {
            return None;
        }
        Some((bottleneck.clone(), (t_max / t_next).ceil() as u32))
    }
}

impl fmt::Display for BsExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BsExpr::Seq { name, .. } => write!(f, "seq:{name}"),
            BsExpr::Farm {
                name,
                worker,
                initial_workers,
            } => write!(f, "farm:{name}({worker})*{initial_workers}"),
            BsExpr::Pipe { name, stages } => {
                let parts: Vec<String> = stages.iter().map(BsExpr::to_string).collect();
                write!(f, "pipe:{name}({})", parts.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_right() -> BsExpr {
        BsExpr::pipe(
            "app",
            vec![
                BsExpr::seq("producer"),
                BsExpr::farm("filter", BsExpr::seq("worker"), 3),
                BsExpr::seq("consumer"),
            ],
        )
    }

    #[test]
    fn structure_accessors() {
        let e = fig2_right();
        assert_eq!(e.name(), "app");
        assert_eq!(e.children().len(), 3);
        assert_eq!(e.depth(), 3);
        assert!((e.weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn manager_count_matches_fig4() {
        // AM_A (pipe) + AM_P + AM_F + AM_C — the four managers of Fig. 4.
        // (Workers get best-effort contracts, not managers of their own in
        // the count: their managers are implicit per the farm BS
        // definition.)
        assert_eq!(fig2_right().manager_count(), 4);
    }

    #[test]
    fn find_by_name() {
        let e = fig2_right();
        assert_eq!(e.find("filter").unwrap().name(), "filter");
        assert_eq!(e.find("worker").unwrap().name(), "worker");
        assert!(e.find("nope").is_none());
    }

    #[test]
    fn parse_paper_expression() {
        // §3.1's example: farm(pipeline(sequential, farm(sequential), sequential))
        let e = BsExpr::parse("farm(pipeline(sequential, farm(sequential), sequential))").unwrap();
        match &e {
            BsExpr::Farm { worker, .. } => match worker.as_ref() {
                BsExpr::Pipe { stages, .. } => {
                    assert_eq!(stages.len(), 3);
                    assert!(matches!(stages[1], BsExpr::Farm { .. }));
                }
                other => panic!("expected pipe, got {other}"),
            },
            other => panic!("expected farm, got {other}"),
        }
    }

    #[test]
    fn parse_names_weights_counts() {
        let e = BsExpr::parse("pipe:app(seq:prod@0.5, farm:filter(seq:w)*4, seq:cons)").unwrap();
        assert_eq!(e.name(), "app");
        match e.find("filter").unwrap() {
            BsExpr::Farm {
                initial_workers, ..
            } => assert_eq!(*initial_workers, 4),
            other => panic!("{other}"),
        }
        match e.find("prod").unwrap() {
            BsExpr::Seq { weight, .. } => assert!((weight - 0.5).abs() < 1e-12),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(BsExpr::parse("farm(seq, seq)").is_err(), "farm arity");
        assert!(BsExpr::parse("pipe").is_err(), "pipe needs stages");
        assert!(BsExpr::parse("seq(seq)").is_err(), "seq is a leaf");
        assert!(BsExpr::parse("blob").is_err(), "unknown kind");
        assert!(BsExpr::parse("seq extra").is_err(), "trailing input");
    }

    #[test]
    fn auto_names_are_unique() {
        let e = BsExpr::parse("pipe(seq, seq, seq)").unwrap();
        let names: Vec<&str> = e.children().iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let e = fig2_right();
        let shown = e.to_string();
        assert_eq!(
            shown,
            "pipe:app(seq:producer, farm:filter(seq:worker)*3, seq:consumer)"
        );
        let reparsed = BsExpr::parse(&shown).unwrap();
        assert_eq!(reparsed, e);
    }

    #[test]
    fn promote_bottleneck_stage() {
        let e = fig2_right();
        let promoted = e.promote_stage_to_farm("consumer", 4).unwrap();
        let farm = promoted.find("consumer_farm").expect("promoted farm");
        match farm {
            BsExpr::Farm {
                worker,
                initial_workers,
                ..
            } => {
                assert_eq!(worker.name(), "consumer");
                assert_eq!(*initial_workers, 4);
            }
            other => panic!("expected farm, got {other}"),
        }
        // Manager count grew by one (the new farm's AM joins the tree,
        // and the consumer stage manager is replaced by the farm's).
        assert_eq!(promoted.manager_count(), e.manager_count());
        // Original tree untouched.
        assert!(e.find("consumer_farm").is_none());
    }

    #[test]
    fn promote_rejects_non_stages() {
        let e = fig2_right();
        assert!(e.promote_stage_to_farm("ghost", 2).is_err());
        assert!(
            e.promote_stage_to_farm("filter", 2).is_err(),
            "farms are not promotable"
        );
        assert!(
            e.promote_stage_to_farm("worker", 2).is_err(),
            "farm workers are not pipeline stages"
        );
    }

    #[test]
    fn promote_rejects_ambiguous_names() {
        let e = BsExpr::pipe(
            "p",
            vec![
                BsExpr::seq("dup"),
                BsExpr::pipe("inner", vec![BsExpr::seq("dup"), BsExpr::seq("z")]),
            ],
        );
        let err = e.promote_stage_to_farm("dup", 2).unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
    }

    #[test]
    fn promotion_advice_picks_the_bottleneck() {
        let times = vec![
            ("acquire".to_owned(), 1.0),
            ("filter".to_owned(), 8.0),
            ("render".to_owned(), 2.0),
        ];
        let (stage, workers) = BsExpr::promotion_advice(&times).unwrap();
        assert_eq!(stage, "filter");
        assert_eq!(workers, 4, "8s / 2s = 4 instances to level the pipeline");
        // Balanced pipeline: nothing to promote.
        let flat = vec![("a".to_owned(), 2.0), ("b".to_owned(), 2.0)];
        assert!(BsExpr::promotion_advice(&flat).is_none());
        assert!(BsExpr::promotion_advice(&[]).is_none());
    }

    #[test]
    fn farm_star_zero_clamps_to_one() {
        let e = BsExpr::parse("farm(seq)*0").unwrap();
        match e {
            BsExpr::Farm {
                initial_workers, ..
            } => assert_eq!(initial_workers, 1),
            other => panic!("{other}"),
        }
    }
}

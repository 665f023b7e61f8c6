//! Model-based test of the in-process board's run-length log: random
//! interleavings of every posting entry point and round ticks, checked
//! after each step against a naive log that keeps one `Posting` per
//! post. Every reader must return exactly what the naive log holds,
//! from any cursor (mid-run included).

use std::sync::Arc;

use proptest::prelude::*;
use yoso_runtime::{
    BoardError, BoardTransport, BulletinBoard, Committee, InProcessTransport, PostRun, Posting,
    RoleId,
};

const COMMITTEES: [&str; 2] = ["off-1", "on-2"];
const PHASES: [&str; 3] = ["offline/1-beaver", "offline/2-wire-rand", "online/3-mult"];
const MEMBERS: usize = 5;

/// The fields shared by consecutive posts; drawn from small alphabets
/// so that equal neighbours (runs) are common.
#[derive(Debug, Clone)]
struct Shape {
    committee: usize,
    /// `Committee::role` (the label aliases the committee's) or a
    /// `RoleId::new` with an allocation of its own.
    shared_label: bool,
    phase: usize,
    message: u64,
    elements: u64,
}

#[derive(Debug, Clone)]
enum Op {
    Post(Shape, usize),
    PostBatch(Shape, usize, Vec<u64>),
    /// One `post_run` call: each run a shape and its member list.
    PostRun(Vec<(Shape, Vec<usize>)>),
    AdvanceRound,
}

fn shape() -> impl Strategy<Value = Shape> {
    (0..COMMITTEES.len(), any::<bool>(), 0..PHASES.len(), 0..2u64, 1..3u64).prop_map(
        |(committee, shared_label, phase, message, elements)| Shape {
            committee,
            shared_label,
            phase,
            message,
            elements,
        },
    )
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (shape(), 0..MEMBERS).prop_map(|(s, i)| Op::Post(s, i)),
        (shape(), 0..MEMBERS, prop::collection::vec(0..2u64, 0..6))
            .prop_map(|(s, i, m)| Op::PostBatch(s, i, m)),
        // One shape, consecutive members: the committee-step pattern.
        (shape(), 0..=MEMBERS).prop_map(|(s, n)| Op::PostRun(vec![(s, (0..n).collect())])),
        // Several runs a call, arbitrary members: repeats, any order,
        // the empty list.
        prop::collection::vec((shape(), prop::collection::vec(0..MEMBERS, 0..7)), 0..4)
            .prop_map(Op::PostRun),
        Just(Op::AdvanceRound),
        Just(Op::AdvanceRound),
    ]
}

/// One `Posting` per post.
struct Model {
    log: Vec<Posting<u64>>,
    round_starts: Vec<usize>,
}

impl Model {
    fn round(&self) -> u64 {
        (self.round_starts.len() - 1) as u64
    }

    fn push(&mut self, from: RoleId, phase: &str, message: u64, elements: u64) {
        self.log.push(Posting {
            round: self.round(),
            from,
            phase: Arc::from(phase),
            message,
            elements,
            bytes: 8 * elements,
        });
    }

    fn postings_in(&self, round: u64) -> &[Posting<u64>] {
        let at = |r: u64| self.round_starts.get(r as usize).copied().unwrap_or(self.log.len());
        &self.log[at(round)..at(round + 1)]
    }
}

type Key = (u64, String, usize, String, u64, u64, u64);

fn key(p: &Posting<u64>) -> Key {
    (
        p.round,
        p.from.committee.to_string(),
        p.from.index,
        p.phase.to_string(),
        p.message,
        p.elements,
        p.bytes,
    )
}

fn keys(ps: &[Posting<u64>]) -> Vec<Key> {
    ps.iter().map(key).collect()
}

/// A transport read against the model's.
fn same_read(
    got: Result<Vec<Posting<u64>>, BoardError>,
    want: &[Posting<u64>],
) -> Result<(), String> {
    match got {
        Ok(got) if keys(&got) == keys(want) => Ok(()),
        got => Err(format!("got {got:?}, want {:?}", keys(want))),
    }
}

fn check(
    board: &BulletinBoard<u64>,
    log: &InProcessTransport<u64>,
    model: &Model,
) -> Result<(), String> {
    let len = model.log.len();
    if board.len().map_err(|e| e.to_string())? != len {
        return Err(format!("len {:?} != {len}", board.len()));
    }
    if board.round().map_err(|e| e.to_string())? != model.round() {
        return Err("round clock diverged".into());
    }
    for cursor in 0..=len + 1 {
        same_read(log.read_from(cursor), &model.log[cursor.min(len)..])
            .map_err(|e| format!("read_from({cursor}): {e}"))?;
    }
    let mut seen = Vec::new();
    board.for_each(|p| seen.push(key(p))).map_err(|e| e.to_string())?;
    if seen != keys(&model.log) {
        return Err(format!("for_each saw {seen:?}"));
    }
    for round in 0..=model.round() + 1 {
        let want = model.postings_in(round);
        same_read(board.postings_in_round(round), want)
            .map_err(|e| format!("read_round({round}): {e}"))?;
        let mut seen = Vec::new();
        let visited = board.for_each_in_round(round, |p| seen.push(p.clone()));
        same_read(visited.map(|()| seen), want)
            .map_err(|e| format!("for_each_in_round({round}): {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_length_log_matches_a_posting_per_post_log(ops in prop::collection::vec(op(), 1..28)) {
        let committees: Vec<Committee> =
            COMMITTEES.iter().map(|name| Committee::honest(*name, MEMBERS)).collect();
        let role = |s: &Shape, i: usize| {
            if s.shared_label {
                committees[s.committee].role(i)
            } else {
                RoleId::new(COMMITTEES[s.committee], i)
            }
        };
        let log = Arc::new(InProcessTransport::<u64>::new());
        let board: BulletinBoard<u64> = BulletinBoard::with_transport(log.clone());
        let mut model = Model { log: Vec::new(), round_starts: vec![0] };
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Post(s, i) => {
                    board.post(role(s, *i), s.message, PHASES[s.phase], s.elements, 8 * s.elements).unwrap();
                    model.push(role(s, *i), PHASES[s.phase], s.message, s.elements);
                }
                Op::PostBatch(s, i, messages) => {
                    board.post_batch(role(s, *i), PHASES[s.phase], messages, s.elements, 8 * s.elements).unwrap();
                    for m in messages {
                        model.push(role(s, *i), PHASES[s.phase], *m, s.elements);
                    }
                }
                Op::PostRun(runs) => {
                    // The committee's own label or a fresh allocation
                    // of it, by the shape's coin.
                    let labels: Vec<Arc<str>> =
                        runs.iter().map(|(s, _)| role(s, 0).committee).collect();
                    let runs: Vec<PostRun<'_, u64>> = runs
                        .iter()
                        .zip(&labels)
                        .map(|((s, members), committee)| PostRun {
                            committee,
                            phase: PHASES[s.phase],
                            message: &s.message,
                            elements: s.elements,
                            bytes: 8 * s.elements,
                            members,
                        })
                        .collect();
                    for run in &runs {
                        for &i in run.members {
                            let from = RoleId { committee: Arc::clone(run.committee), index: i };
                            model.push(from, run.phase, *run.message, run.elements);
                        }
                    }
                    board.post_run(&runs).unwrap();
                }
                Op::AdvanceRound => {
                    board.advance_round().unwrap();
                    model.round_starts.push(model.log.len());
                }
            }
            if let Err(e) = check(&board, &log, &model) {
                prop_assert!(false, "after step {step} ({op:?}): {e}");
            }
        }
        // The meter saw every post exactly once, whatever the log did,
        // and lists no phase the transcript does not.
        prop_assert_eq!(board.meter().total().messages, model.log.len() as u64);
        prop_assert_eq!(board.meter().phases(), board.transcript_phases().unwrap());
    }
}

//! Model-based test of the board's run-length log, in process and
//! behind a loopback TCP server: random interleavings of every posting
//! entry point and round ticks, checked after each step against a
//! naive log that keeps one `Posting` per post. Every reader of either
//! backend must return exactly what the naive log holds, from any
//! cursor (mid-run included). Member lists include the shapes that
//! start, extend and break the log's index spans: whole steps,
//! member-major repeats, gaps, descending pairs, and a span continued
//! by a later call.

use std::net::SocketAddr;
use std::sync::Arc;

use proptest::prelude::*;
use yoso_runtime::tcp::{BoardServer, TcpOptions, TcpTransport};
use yoso_runtime::{
    BoardError, BoardTransport, BulletinBoard, Committee, InProcessTransport, PostRun, Posting,
    RoleId, Speakers,
};

const COMMITTEES: [&str; 2] = ["off-1", "on-2"];
const PHASES: [&str; 3] = ["offline/1-beaver", "offline/2-wire-rand", "online/3-mult"];
const MEMBERS: usize = 5;
/// Committee size: room for the longest span-shaped member list.
const COMMITTEE: usize = 40;

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
    /// One member list under one shape, cut at `split`: the head in one
    /// `post_run` call, the tail in a second one or, when `posts`, one
    /// `post` per member.
    Continued { shape: Shape, members: Vec<usize>, split: usize, posts: bool },
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

/// Member lists shaped like the protocol's steps and their neighbours.
fn span_members() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        // A whole step, `0..n`.
        (0..=COMMITTEE).prop_map(|n| (0..n).collect()),
        // Member-major repeats, `[0; p], [1; p], …`.
        (1..8usize, 1..5usize)
            .prop_map(|(n, p)| (0..n).flat_map(|i| std::iter::repeat_n(i, p)).collect()),
        // Two ascending runs with a gap between them.
        (0..10usize, 1..12usize, 2..6usize, 1..12usize).prop_map(|(a, l1, gap, l2)| {
            let b = a + l1 + gap;
            (a..a + l1).chain(b..(b + l2).min(COMMITTEE)).collect()
        }),
        // Descending pairs, `1, 0, 3, 2, …`.
        (1..20usize).prop_map(|n| (0..n).flat_map(|i| [2 * i + 1, 2 * i]).collect()),
    ]
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
        // One or two span-shaped runs in one call.
        prop::collection::vec((shape(), span_members()), 1..3).prop_map(Op::PostRun),
        (shape(), span_members(), 0..=2 * COMMITTEE, any::<bool>()).prop_map(
            |(shape, members, split, posts)| {
                let split = split.min(members.len());
                Op::Continued { shape, members, split, posts }
            }
        ),
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
    log: &dyn BoardTransport<u64>,
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

/// Applies `op` to `board`, posting as `role` says.
fn drive(board: &BulletinBoard<u64>, op: &Op, role: &dyn Fn(&Shape, usize) -> RoleId) {
    match op {
        Op::Post(s, i) => {
            let (phase, bytes) = (PHASES[s.phase], 8 * s.elements);
            board.post(role(s, *i), s.message, phase, s.elements, bytes).unwrap();
        }
        Op::PostBatch(s, i, messages) => {
            let (phase, bytes) = (PHASES[s.phase], 8 * s.elements);
            board.post_batch(role(s, *i), phase, messages, s.elements, bytes).unwrap();
        }
        Op::PostRun(runs) => {
            // The committee's own label or a fresh allocation of it, by
            // the shape's coin.
            let labels: Vec<Arc<str>> = runs.iter().map(|(s, _)| role(s, 0).committee).collect();
            let speakers: Vec<Speakers> =
                runs.iter().map(|(_, members)| Speakers::from(&members[..])).collect();
            let runs: Vec<PostRun<'_, u64>> = runs
                .iter()
                .zip(&labels)
                .zip(&speakers)
                .map(|(((s, _), committee), members)| PostRun {
                    committee,
                    phase: PHASES[s.phase],
                    message: &s.message,
                    elements: s.elements,
                    bytes: 8 * s.elements,
                    members,
                })
                .collect();
            board.post_run(&runs).unwrap();
        }
        Op::Continued { shape: s, members, split, posts } => {
            let (head, tail) = members.split_at(*split);
            let speakers = [Speakers::from(head), Speakers::from(tail)];
            let committee = role(s, 0).committee;
            let run = |members| PostRun {
                committee: &committee,
                phase: PHASES[s.phase],
                message: &s.message,
                elements: s.elements,
                bytes: 8 * s.elements,
                members,
            };
            board.post_run(&[run(&speakers[0])]).unwrap();
            if *posts {
                for &i in tail {
                    let (phase, bytes) = (PHASES[s.phase], 8 * s.elements);
                    board.post(role(s, i), s.message, phase, s.elements, bytes).unwrap();
                }
            } else {
                board.post_run(&[run(&speakers[1])]).unwrap();
            }
        }
        Op::AdvanceRound => {
            board.advance_round().unwrap();
        }
    }
}

/// What `op` posts, in order: the shape, member and message of each
/// posting.
fn postings(op: &Op) -> Vec<(&Shape, usize, u64)> {
    match op {
        Op::Post(s, i) => vec![(s, *i, s.message)],
        Op::PostBatch(s, i, messages) => messages.iter().map(|&m| (s, *i, m)).collect(),
        Op::PostRun(runs) => runs
            .iter()
            .flat_map(|(s, members)| members.iter().map(move |&i| (s, i, s.message)))
            .collect(),
        Op::Continued { shape: s, members, .. } => {
            members.iter().map(|&i| (s, i, s.message)).collect()
        }
        Op::AdvanceRound => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_length_log_matches_a_posting_per_post_log(ops in prop::collection::vec(op(), 1..28)) {
        let committees: Vec<Committee> =
            COMMITTEES.iter().map(|name| Committee::honest(*name, COMMITTEE)).collect();
        let role = |s: &Shape, i: usize| {
            if s.shared_label {
                committees[s.committee].role(i)
            } else {
                RoleId::new(COMMITTEES[s.committee], i)
            }
        };
        let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let handle = server.spawn().unwrap();
        let in_process = Arc::new(InProcessTransport::<u64>::new());
        let tcp = TcpTransport::<u64>::connect(handle.addr(), TcpOptions::default()).unwrap();
        let backends: [(&str, Arc<dyn BoardTransport<u64>>); 2] =
            [("in-process", in_process), ("tcp", Arc::new(tcp))];
        let boards: Vec<BulletinBoard<u64>> = backends
            .iter()
            .map(|(_, log)| BulletinBoard::with_transport(Arc::clone(log)))
            .collect();
        let mut model = Model { log: Vec::new(), round_starts: vec![0] };
        for (step, op) in ops.iter().enumerate() {
            for (s, i, message) in postings(op) {
                model.push(role(s, i), PHASES[s.phase], message, s.elements);
            }
            if matches!(op, Op::AdvanceRound) {
                model.round_starts.push(model.log.len());
            }
            for ((name, log), board) in backends.iter().zip(&boards) {
                drive(board, op, &role);
                if let Err(e) = check(board, log.as_ref(), &model) {
                    prop_assert!(false, "{name}, after step {step} ({op:?}): {e}");
                }
            }
        }
        for board in &boards {
            // The meter saw every post exactly once, whatever the log
            // did, and lists no phase the transcript does not.
            prop_assert_eq!(board.meter().total().messages, model.log.len() as u64);
            prop_assert_eq!(board.meter().phases(), board.transcript_phases().unwrap());
        }
    }
}

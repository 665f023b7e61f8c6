//! Seeded violation: a run posted on the raw board from protocol code,
//! past the sharded wrapper's position accounting.
#![forbid(unsafe_code)]

pub fn flood(board: &BulletinBoard<Post>, runs: &[PostRun<'_, Post>]) -> Result<(), BoardError> {
    board.post_run(runs)
}

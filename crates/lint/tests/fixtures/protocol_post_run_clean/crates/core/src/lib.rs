//! Clean fixture: a committee step recorded member by member under an
//! owns()-derived flag and replayed through the sharded board, and a
//! whole run posted through it under the leader flag.
#![forbid(unsafe_code)]

pub fn step(cfg: &Cfg, sb: &ShardedBoard, committee: &Committee) -> Result<(), Error> {
    let mut posts = PostBuffer::new();
    for i in 0..committee.n() {
        let owned = cfg.partition.owns(i);
        posts.record(owned, &committee.name, i, share_post(), "step", 1);
    }
    sb.flush_buffer(posts)
}

pub fn dealer_step(sb: &ShardedBoard, dealers: &Committee, members: &[usize]) -> Result<(), Error> {
    sb.post_run(sb.is_leader(), &dealers.name, share_post(), "step", 1, members)
}

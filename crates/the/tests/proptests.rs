//! Property tests for the threshold-encryption layer: homomorphism
//! under random linear combinations, re-share chains, simulatability
//! and NIZK soundness surfaces.

use proptest::prelude::*;
use rand::SeedableRng;
use yoso_crypto::Domain;
use yoso_field::{lagrange, F61, PrimeField};
use yoso_pss_sharing::shamir::PowerTable;
use yoso_the::mock::{LinearPke, MockTe, PartialDec, ReshareMsg};
use yoso_the::nizk::{DealMap, LinearMap, LinearProof};
use yoso_the::{nizk, TeError};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn felt() -> impl Strategy<Value = F61> {
    any::<u64>().prop_map(F61::from_u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn homomorphism_random_linear_combination(
        seed in any::<u64>(),
        ms in prop::collection::vec(felt(), 1..10),
        cs in prop::collection::vec(felt(), 1..10),
    ) {
        let len = ms.len().min(cs.len());
        let mut r = rng(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, 7, 3).unwrap();
        let cts: Vec<_> = ms[..len].iter().map(|&m| MockTe::encrypt(&mut r, &pk, m).0).collect();
        let combined = MockTe::eval(&cts, &cs[..len]).unwrap();
        let expect: F61 = ms[..len].iter().zip(&cs[..len]).map(|(&m, &c)| m * c).sum();
        prop_assert_eq!(MockTe::decrypt_with_shares(&pk, &combined, &shares).unwrap(), expect);
    }

    #[test]
    fn any_t_plus_one_subset_agrees(seed in any::<u64>(), m in felt(), subset_seed in any::<u64>()) {
        let mut r = rng(seed);
        let n = 9;
        let t = 4;
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, m);
        // Pick a pseudorandom (t+1)-subset.
        let mut idx: Vec<usize> = (0..n).collect();
        let mut sr = rng(subset_seed);
        use rand::seq::SliceRandom;
        idx.shuffle(&mut sr);
        let partials: Vec<_> =
            idx[..t + 1].iter().map(|&i| MockTe::partial_decrypt(&shares[i], &ct)).collect();
        prop_assert_eq!(MockTe::combine(&pk, &ct, &partials).unwrap(), m);
    }

    #[test]
    fn reshare_chain_arbitrary_providers(seed in any::<u64>(), m in felt(), epochs in 1usize..4) {
        let mut r = rng(seed);
        let n = 6;
        let t = 2;
        let (mut pk, mut shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, m);
        for e in 0..epochs {
            let msgs: Vec<ReshareMsg<F61>> =
                shares.iter().map(|s| MockTe::reshare(&mut r, &pk, s)).collect();
            // Rotate the provider subset each epoch.
            let providers: Vec<&ReshareMsg<F61>> =
                (0..t + 1).map(|j| &msgs[(j + e) % n]).collect();
            shares = (0..n)
                .map(|j| MockTe::recombine_key(&pk, j, &providers).unwrap())
                .collect();
            pk = MockTe::next_public_key(&pk, &providers).unwrap();
        }
        prop_assert_eq!(MockTe::decrypt_with_shares(&pk, &ct, &shares).unwrap(), m);
        // vks stay consistent with the shares.
        for (j, s) in shares.iter().enumerate() {
            prop_assert_eq!(pk.vks[j], s.value * pk.g);
        }
    }

    #[test]
    fn sim_tpdec_perfect_for_any_target(seed in any::<u64>(), m in felt(), target in felt()) {
        let mut r = rng(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, 7, 3).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, m);
        let corrupt: Vec<_> =
            shares[..3].iter().map(|s| MockTe::partial_decrypt(s, &ct)).collect();
        let honest = MockTe::sim_partial_decrypt(
            &mut r, &pk, &ct, target, &corrupt, &[3, 4, 5, 6],
        ).unwrap();
        let mut all = corrupt.clone();
        all.extend_from_slice(&honest);
        prop_assert_eq!(MockTe::combine(&pk, &ct, &all).unwrap(), target);
    }

    #[test]
    fn enc_proof_sound_against_mutation(seed in any::<u64>(), m in felt(), delta in 1u64..1000) {
        let mut r = rng(seed);
        let (pk, _) = MockTe::<F61>::keygen(&mut r, 5, 2).unwrap();
        let (ct, rand_r) = MockTe::encrypt(&mut r, &pk, m);
        let proof = nizk::enc_proof(&mut r, &pk, &ct, m, rand_r);
        prop_assert!(nizk::verify_enc_proof(&pk, &ct, &proof));
        // Any ciphertext mutation invalidates the proof.
        let mut bad = ct;
        bad.v += F61::from_u64(delta);
        prop_assert!(!nizk::verify_enc_proof(&pk, &bad, &proof));
        let mut bad2 = ct;
        bad2.u += F61::from_u64(delta);
        prop_assert!(!nizk::verify_enc_proof(&pk, &bad2, &proof));
    }

    #[test]
    fn pke_roundtrip_and_homomorphism(seed in any::<u64>(), a in felt(), b in felt(), c in felt()) {
        let mut r = rng(seed);
        let kp = LinearPke::<F61>::keygen(&mut r);
        let (ct_a, _) = LinearPke::encrypt(&mut r, &kp.public, a);
        let (ct_b, _) = LinearPke::encrypt(&mut r, &kp.public, b);
        prop_assert_eq!(LinearPke::decrypt(&kp.secret, &ct_a), a);
        // c·ct_a + ct_b decrypts to c·a + b.
        let combo = yoso_the::mock::Ciphertext {
            u: c * ct_a.u + ct_b.u,
            v: c * ct_a.v + ct_b.v,
        };
        prop_assert_eq!(LinearPke::decrypt(&kp.secret, &combo), c * a + b);
    }

    #[test]
    fn share_proof_binds_published_value(seed in any::<u64>(), slope in felt(), offset in felt()) {
        let mut r = rng(seed);
        let kp = LinearPke::<F61>::keygen(&mut r);
        let published = offset - kp.secret.scalar * slope;
        let proof =
            nizk::share_proof(&mut r, &kp.public, slope, offset, published, kp.secret.scalar);
        prop_assert!(nizk::verify_share_proof(&kp.public, slope, offset, published, &proof));
        prop_assert!(!nizk::verify_share_proof(
            &kp.public, slope, offset, published + F61::ONE, &proof
        ));
        // A different key's proof does not transfer.
        let other = LinearPke::<F61>::keygen(&mut r);
        prop_assert!(!nizk::verify_share_proof(&other.public, slope, offset, published, &proof));
    }
}

// ---------------------------------------------------------------------
// The shared-weights recombination against the per-item formulas it
// replaced: a full `lagrange::interpolate` per value and a Horner chain
// per evaluation. Field arithmetic is exact, so agreement is equality.
// ---------------------------------------------------------------------

/// The value at zero of the polynomial through `(party + 1, y)`.
fn interpolated_at_zero(parties: &[usize], ys: &[F61]) -> F61 {
    let xs: Vec<F61> = parties.iter().map(|&p| F61::from_u64(p as u64 + 1)).collect();
    lagrange::interpolate(&xs, ys).unwrap().eval(F61::ZERO)
}

fn horner(coeffs: &[F61], x: F61) -> F61 {
    coeffs.iter().rev().fold(F61::ZERO, |acc, &c| acc * x + c)
}

/// A random `(n, t)` with `t < n` and a random order of the members.
fn committee_shape() -> impl Strategy<Value = (usize, usize, Vec<usize>)> {
    (2usize..14).prop_flat_map(|n| (Just(n), 0..n, any::<u64>())).prop_map(|(n, t, order_seed)| {
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng(order_seed));
        (n, t, order)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combine_agrees_with_per_item_interpolation(
        seed in any::<u64>(),
        (n, t, order) in committee_shape(),
        surplus in 0usize..4,
        m in felt(),
    ) {
        let mut r = rng(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let (ct, _) = MockTe::encrypt(&mut r, &pk, m);
        let take = (t + 1 + surplus).min(n);
        let partials: Vec<PartialDec<F61>> =
            order[..take].iter().map(|&i| MockTe::partial_decrypt(&shares[i], &ct)).collect();
        let ys: Vec<F61> = partials[..t + 1].iter().map(|p| p.value).collect();
        let expect = ct.v - interpolated_at_zero(&order[..t + 1], &ys);
        prop_assert_eq!(MockTe::combine(&pk, &ct, &partials), Ok(expect));
        prop_assert_eq!(expect, m);

        // One wrong surplus partial is still caught by the consistency check.
        if take > t + 1 {
            let mut bad = partials.clone();
            bad[take - 1].value += F61::ONE;
            prop_assert_eq!(MockTe::combine(&pk, &ct, &bad), Err(TeError::InconsistentPartials));
        }
        // Duplicate and out-of-range parties, in the head or the surplus.
        let mut dup = partials.clone();
        dup.push(partials[0]);
        prop_assert_eq!(MockTe::combine(&pk, &ct, &dup), Err(TeError::BadParty(partials[0].party)));
        let mut far = partials.clone();
        far[0].party = n;
        prop_assert_eq!(MockTe::combine(&pk, &ct, &far), Err(TeError::BadParty(n)));
        prop_assert_eq!(
            MockTe::combine(&pk, &ct, &partials[..t]),
            Err(TeError::NotEnoughPartials { got: t, need: t + 1 })
        );
    }

    #[test]
    fn reshare_and_recombination_agree_with_horner_and_per_item_interpolation(
        seed in any::<u64>(),
        (n, t, order) in committee_shape(),
    ) {
        let mut r = rng(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();

        // Dealing: the same `t` draws, evaluated by Horner.
        let msgs: Vec<ReshareMsg<F61>> = shares
            .iter()
            .map(|s| {
                let mut reference = r.clone();
                let msg = MockTe::reshare(&mut r, &pk, s);
                let mut coeffs = vec![s.value];
                coeffs.extend((0..t).map(|_| F61::random(&mut reference)));
                for (j, &sub) in msg.subshares.iter().enumerate() {
                    assert_eq!(sub, horner(&coeffs, F61::from_u64(j as u64 + 1)));
                }
                let committed: Vec<F61> = coeffs.iter().map(|&c| c * pk.g).collect();
                assert_eq!(msg.commitments, committed);
                assert!(MockTe::reshare_is_valid(&pk, &msg));
                msg
            })
            .collect();

        // Recombination and next-vk derivation from an arbitrary subset.
        let providers: Vec<&ReshareMsg<F61>> = order[..t + 1].iter().map(|&i| &msgs[i]).collect();
        let next = MockTe::next_public_key(&pk, &providers).unwrap();
        for j in 0..n {
            let x = F61::from_u64(j as u64 + 1);
            let subs: Vec<F61> = providers.iter().map(|m| m.subshares[j]).collect();
            let share = MockTe::recombine_key(&pk, j, &providers).unwrap();
            prop_assert_eq!(share.value, interpolated_at_zero(&order[..t + 1], &subs));
            let committed: Vec<F61> = providers.iter().map(|m| horner(&m.commitments, x)).collect();
            prop_assert_eq!(next.vks[j], interpolated_at_zero(&order[..t + 1], &committed));
        }

        // A tampered subshare fails the Feldman check wherever it sits.
        let mut bad = msgs[0].clone();
        bad.subshares[n - 1] += F61::ONE;
        prop_assert!(!MockTe::reshare_is_valid(&pk, &bad));
        // Duplicate providers are still refused.
        let mut twice = providers.clone();
        twice[t] = twice[0];
        if t > 0 {
            prop_assert_eq!(
                MockTe::recombine_key(&pk, 0, &twice),
                Err(TeError::BadParty(twice[0].from))
            );
        }
    }
}

// --- Fiat–Shamir binding of the (map, targets) pair ------------------------

type Dense = Vec<Vec<F61>>;

fn to_dense(map: &LinearMap<F61>) -> Dense {
    let mut m = vec![vec![F61::ZERO; map.witness_len()]; map.row_count()];
    for (dense, sparse) in m.iter_mut().zip(map.rows()) {
        for &(col, coeff) in sparse {
            dense[col] = coeff;
        }
    }
    m
}

fn to_sparse(m: &Dense) -> Vec<Vec<(usize, F61)>> {
    m.iter()
        .map(|row| row.iter().copied().enumerate().filter(|(_, c)| !c.is_zero()).collect())
        .collect()
}

fn mat_vec(m: &Dense, w: &[F61]) -> Vec<F61> {
    m.iter().map(|row| row.iter().zip(w).map(|(&a, &b)| a * b).sum()).collect()
}

fn from_dense(domain: &Domain, witness_len: usize, m: &Dense) -> LinearMap<F61> {
    LinearMap::new(domain, witness_len, to_sparse(m)).unwrap()
}

fn has_two_nonzero(xs: &[F61]) -> bool {
    xs.iter().filter(|x| !x.is_zero()).count() >= 2
}

/// Tampers with the statement `(map, targets)` of a map built under
/// `domain` in every way the challenge must bind — each non-zero
/// changed, moved along its row and moved along its column, then
/// `witness_len`, the row count, each target, each commitment entry and
/// the domain, and content moved
/// *between* the map (which enters the challenge through its digest)
/// and the targets (which enter it directly) — and returns the
/// tamperings `proof` still verifies under. Where the verifier's
/// equations alone would still hold (an unused extra column, an extra
/// `0 = 0` row, a dropped row, two rows exchanged with everything that
/// belongs to them, a coefficient change the target makes up for), the
/// proof is reshaped to fit, so only the hash can reject it.
///
/// The statement needs two non-zero targets: a response satisfies a row
/// with target zero under *every* challenge, so a statement left with
/// none accepts whatever the hash says.
fn accepted_tamperings(
    domain: &[u8],
    map: &LinearMap<F61>,
    targets: &[F61],
    witness: &[F61],
    proof: &LinearProof<F61>,
) -> Vec<String> {
    let w = map.witness_len();
    let m = to_dense(map);
    let rows: Vec<Vec<(usize, F61)>> = map.rows().map(<[_]>::to_vec).collect();
    assert!(has_two_nonzero(targets));
    let here = &Domain::new(domain);
    let mut accepted = Vec::new();
    let mut case = |what: String, map: &LinearMap<F61>, targets: &[F61], proof: &LinearProof<F61>| {
        if nizk::verify_linear(map, targets, proof) {
            accepted.push(what);
        }
    };

    for (i, row) in m.iter().enumerate() {
        for (j, _) in row.iter().enumerate().filter(|(_, c)| !c.is_zero()) {
            let mut changed = m.clone();
            changed[i][j] += F61::ONE;
            case(format!("({i},{j}) changed"), &from_dense(here, w, &changed), targets, proof);
            for j2 in (0..w).filter(|&j2| m[i][j2].is_zero()) {
                let mut moved = m.clone();
                moved[i].swap(j, j2);
                case(format!("({i},{j}) moved to column {j2}"), &from_dense(here, w, &moved), targets, proof);
            }
            for i2 in (0..m.len()).filter(|&i2| m[i2][j].is_zero()) {
                let mut moved = m.clone();
                moved[i2][j] = moved[i][j];
                moved[i][j] = F61::ZERO;
                case(format!("({i},{j}) moved to row {i2}"), &from_dense(here, w, &moved), targets, proof);
            }

            // Between map and targets. A change of the coefficient that
            // the target makes up for is a true statement with the same
            // witness — and with zero masks it passes the equations.
            let mut made_up = targets.to_vec();
            made_up[i] += witness[j];
            case(format!("({i},{j}) changed, target {i} compensating"), &from_dense(here, w, &changed), &made_up, proof);
            // The coefficient and its row's target trade places.
            if m[i][j] != targets[i] {
                let mut traded = m.clone();
                let mut traded_targets = targets.to_vec();
                std::mem::swap(&mut traded[i][j], &mut traded_targets[i]);
                case(format!("({i},{j}) swapped with target {i}"), &from_dense(here, w, &traded), &traded_targets, proof);
            }
        }
    }
    // Two distinct rows exchanged along with their targets and their
    // commitment entries: the same relation, every equation intact,
    // another map.
    for i in 0..m.len() {
        for k in (i + 1..m.len()).filter(|&k| m[k] != m[i]) {
            let (mut rows, mut targets, mut proof) = (m.clone(), targets.to_vec(), proof.clone());
            rows.swap(i, k);
            targets.swap(i, k);
            proof.commitment.swap(i, k);
            case(format!("rows {i} and {k} exchanged"), &from_dense(here, w, &rows), &targets, &proof);
        }
    }

    let wider = LinearMap::new(here, w + 1, &rows).unwrap();
    case("witness_len + 1".into(), &wider, targets, proof);
    let mut padded = proof.clone();
    padded.response.push(F61::ZERO);
    case("witness_len + 1, response padded".into(), &wider, targets, &padded);

    let mut taller = rows.clone();
    let mut longer_targets = targets.to_vec();
    let mut longer = proof.clone();
    taller.push(Vec::new());
    longer_targets.push(F61::ZERO);
    longer.commitment.push(F61::ZERO);
    case("an empty row appended".into(), &LinearMap::new(here, w, taller).unwrap(), &longer_targets, &longer);
    if let Some((_, kept)) = targets.split_last() {
        let mut shorter = proof.clone();
        shorter.commitment.pop();
        let dropped = LinearMap::new(here, w, &rows[..kept.len()]).unwrap();
        case("last row dropped".into(), &dropped, kept, &shorter);
        // The same map, one target short: a count mismatch.
        case("last target dropped".into(), map, kept, proof);
    }

    for i in 0..targets.len() {
        let mut off = targets.to_vec();
        off[i] += F61::ONE;
        case(format!("target {i} changed"), map, &off, proof);
        let mut forged = proof.clone();
        forged.commitment[i] += F61::ONE;
        case(format!("commitment {i} changed"), map, targets, &forged);
    }

    let other = LinearMap::new(&Domain::new(&[domain, b"!"].concat()), w, &rows).unwrap();
    case("domain changed".into(), &other, targets, proof);
    accepted
}

/// Draws only zeros, so `prove` masks with `ρ = 0`.
struct ZeroRng;

impl rand::RngCore for ZeroRng {
    fn next_u32(&mut self) -> u32 {
        0
    }
    fn next_u64(&mut self) -> u64 {
        0
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        dest.fill(0);
    }
}

/// A random small linear map (about half its entries zero) with a
/// witness.
fn small_system() -> impl Strategy<Value = (Dense, Vec<F61>)> {
    (1usize..6, 1usize..6).prop_flat_map(|(rows, cols)| {
        let entry = prop_oneof![Just(F61::ZERO), felt()];
        (
            prop::collection::vec(prop::collection::vec(entry, cols..cols + 1), rows..rows + 1),
            prop::collection::vec(felt(), cols..cols + 1),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn challenge_binds_every_part_of_a_random_statement(
        seed in any::<u64>(),
        (m, witness) in small_system(),
    ) {
        let targets = mat_vec(&m, &witness);
        prop_assume!(has_two_nonzero(&targets));
        let map = from_dense(&Domain::new(b"binding"), witness.len(), &m);
        let proof = nizk::prove_linear(&mut rng(seed), &map, &targets, &witness);
        prop_assert!(nizk::verify_linear(&map, &targets, &proof));
        prop_assert_eq!(
            accepted_tamperings(b"binding", &map, &targets, &witness, &proof),
            Vec::<String>::new()
        );
    }

    /// With all-zero masks and a witness that is zero outside column 0,
    /// `a = 0` and `z = e·w`, so `M′·z = a + e·x` holds for *every* `M′`
    /// that differs from `M` outside column 0 — and `M′·z = a + e·x′`
    /// for every `(M′, x′)` the witness also satisfies: the verifier's
    /// equations cannot tell such statements apart and only the
    /// challenge can.
    #[test]
    fn challenge_alone_rejects_tampering_the_equations_cannot_see(
        (m, witness) in small_system(),
    ) {
        let mut witness = witness;
        witness[1..].fill(F61::ZERO);
        let targets = mat_vec(&m, &witness);
        prop_assume!(has_two_nonzero(&targets));
        let map = from_dense(&Domain::new(b"binding"), witness.len(), &m);
        let proof = nizk::prove_linear(&mut ZeroRng, &map, &targets, &witness);
        prop_assert!(proof.commitment.iter().all(|a| a.is_zero()));
        prop_assert!(nizk::verify_linear(&map, &targets, &proof));
        prop_assert_eq!(
            accepted_tamperings(b"binding", &map, &targets, &witness, &proof),
            Vec::<String>::new()
        );
    }

    #[test]
    fn sparse_apply_equals_the_dense_mat_vec(seed in any::<u64>(), (m, witness) in small_system()) {
        let targets = mat_vec(&m, &witness);
        let map = from_dense(&Domain::new(b"apply"), witness.len(), &m);
        prop_assert!(map.is_satisfied_by(&targets, &witness));
        let mut off = witness.clone();
        off[0] += F61::ONE;
        prop_assert_eq!(map.is_satisfied_by(&targets, &off), mat_vec(&m, &off) == targets);
        // The commitment is the map applied to the masks, which `prove`
        // draws first.
        let mut r = rng(seed);
        let mut replay = r.clone();
        let proof = nizk::prove_linear(&mut r, &map, &targets, &witness);
        let masks: Vec<F61> = witness.iter().map(|_| F61::random(&mut replay)).collect();
        prop_assert_eq!(proof.commitment, mat_vec(&m, &masks));
    }

    #[test]
    fn explicit_zeros_give_the_same_statement_and_proof(
        seed in any::<u64>(),
        (m, witness) in small_system(),
    ) {
        let targets = mat_vec(&m, &witness);
        let with_zeros: Vec<Vec<(usize, F61)>> =
            m.iter().map(|row| row.iter().copied().enumerate().collect()).collect();
        let canonical = Domain::new(b"canonical");
        let dense = LinearMap::new(&canonical, witness.len(), with_zeros).unwrap();
        let sparse = from_dense(&canonical, witness.len(), &m);
        prop_assert!(dense.rows().eq(sparse.rows()));
        prop_assert_eq!(dense.digest(), sparse.digest());
        prop_assert_eq!(
            nizk::prove_linear(&mut rng(seed), &dense, &targets, &witness),
            nizk::prove_linear(&mut rng(seed), &sparse, &targets, &witness)
        );
    }

    /// Sharing is invisible: each of a committee's proofs over one
    /// shared map is, byte for byte, the proof over a map built afresh
    /// for it, and either map verifies either proof.
    #[test]
    fn a_proof_over_a_shared_map_is_the_proof_over_a_fresh_one(
        seed in any::<u64>(),
        (m, witness) in small_system(),
    ) {
        let targets = mat_vec(&m, &witness);
        let domain = Domain::new(b"sharing");
        let shared = from_dense(&domain, witness.len(), &m);
        for member in 0..4 {
            let fresh = from_dense(&domain, witness.len(), &m);
            prop_assert_eq!(fresh.digest(), shared.digest());
            let over_shared =
                nizk::prove_linear(&mut rng(seed ^ member), &shared, &targets, &witness);
            let over_fresh =
                nizk::prove_linear(&mut rng(seed ^ member), &fresh, &targets, &witness);
            prop_assert_eq!(&over_shared, &over_fresh);
            prop_assert!(nizk::verify_linear(&shared, &targets, &over_fresh));
            prop_assert!(nizk::verify_linear(&fresh, &targets, &over_shared));
        }
    }

    #[test]
    fn maps_that_differ_have_different_digests(
        (m, _) in small_system(),
        delta in 1u64..F61::MODULUS,
    ) {
        let w = m[0].len();
        let here = &Domain::new(b"digests");
        let map = from_dense(here, w, &m);
        // witness_len alone.
        prop_assert_ne!(LinearMap::new(here, w + 1, to_sparse(&m)).unwrap().digest(), map.digest());
        // An empty row more.
        let mut taller = to_sparse(&m);
        taller.push(Vec::new());
        prop_assert_ne!(LinearMap::new(here, w, taller).unwrap().digest(), map.digest());
        for (i, row) in m.iter().enumerate() {
            for j in 0..w {
                // One coefficient (a stored one changed or dropped, or an
                // absent one added).
                let mut changed = m.clone();
                changed[i][j] += F61::from_u64(delta);
                prop_assert_ne!(from_dense(here, w, &changed).digest(), map.digest());
                // One column: the entry moves along its row.
                for j2 in (0..w).filter(|&j2| row[j2] != row[j]) {
                    let mut moved = m.clone();
                    moved[i].swap(j, j2);
                    prop_assert_ne!(from_dense(here, w, &moved).digest(), map.digest());
                }
            }
        }
    }
}

#[test]
fn challenge_binds_every_part_of_a_real_reshare_statement() {
    let (n, t) = (16usize, 7usize);
    let mut r = rng(16);
    let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
    let recipient_pks: Vec<_> = (0..n).map(|_| LinearPke::<F61>::keygen(&mut r).public).collect();
    let mut coeffs = vec![shares[3].value];
    coeffs.extend((0..t).map(|_| F61::random(&mut r)));
    let commitments: Vec<F61> = coeffs.iter().map(|&a| a * pk.g).collect();
    let (cts, rands): (Vec<_>, Vec<_>) = recipient_pks
        .iter()
        .enumerate()
        .map(|(m, rpk)| LinearPke::encrypt(&mut r, rpk, horner(&coeffs, F61::from_u64(m as u64 + 1))))
        .unzip();

    // The deal relation's rows, as `DealMap` lays them out: `C_j = a_j·g`,
    // then per recipient `u = r·g_m` and `v = Σ_j x^j a_j + r·h_m`.
    let t1 = t + 1;
    let mut rows: Vec<Vec<(usize, F61)>> = (0..t1).map(|j| vec![(j, pk.g)]).collect();
    for (m, rpk) in recipient_pks.iter().enumerate() {
        let x = F61::from_u64(m as u64 + 1);
        rows.push(vec![(t1 + m, rpk.g)]);
        let powers = (0..t1).scan(F61::ONE, |p, j| {
            let here = (j, *p);
            *p *= x;
            Some(here)
        });
        rows.push(powers.chain([(t1 + m, rpk.h)]).collect());
    }
    let map = &LinearMap::new(&Domain::new(b"reshare-binding"), t1 + n, rows).unwrap();
    assert_eq!((map.row_count(), map.witness_len()), (t + 1 + 2 * n, t + 1 + n));
    let nnz: usize = map.rows().map(<[_]>::len).sum();
    assert_eq!(nnz, (t + 1) + n + n * (t + 2));
    let deal = DealMap::reshare(pk.g, &recipient_pks, &PowerTable::new(n, t));
    let targets = deal.targets(&commitments, &cts).unwrap();
    let witness = [coeffs.clone(), rands.clone()].concat();
    assert!(map.is_satisfied_by(&targets, &witness));

    let proof = nizk::prove_linear(&mut r, map, &targets, &witness);
    assert!(nizk::verify_linear(map, &targets, &proof));
    assert_eq!(
        accepted_tamperings(b"reshare-binding", map, &targets, &witness, &proof),
        Vec::<String>::new()
    );

    // It is the statement `reshare_proof` proves, and one map serves
    // the per-proof functions and the map-level ones alike.
    let proof = nizk::reshare_proof(&mut r, &pk, &commitments, &recipient_pks, &cts, &coeffs, &rands);
    assert!(nizk::verify_reshare_proof(&pk, 3, &commitments, &recipient_pks, &cts, &proof));
    assert!(deal.verify_reshare(&pk, 3, &targets, &proof));
    let proof = deal.prove(&mut r, &targets, &coeffs, &rands);
    assert!(nizk::verify_reshare_proof(&pk, 3, &commitments, &recipient_pks, &cts, &proof));
}

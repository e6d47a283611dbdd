"""Coupled pairs: matching optimality, invariances, contraction bound."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nbbmlab import coupling, nbbm, waves


def capped_cost(x, y, perm):
    """Mean capped displacement of the matching i -> perm[i]."""
    return float(np.minimum(np.abs(np.asarray(x) - np.asarray(y)[perm]),
                            1.0).mean())


def brute_force_capped(x, y):
    n = len(x)
    return min(sum(min(abs(x[i] - y[p[i]]), 1.0) for i in range(n)) / n
               for p in itertools.permutations(range(n)))


def test_monge_match_identity_and_example():
    x = np.array([2.0, 0.0, 1.0])
    perm = coupling.monge_match(x, x)
    assert capped_cost(x, x, perm) == 0.0
    x, y = np.array([0.0, 1.0]), np.array([0.0, 2.0])
    perm = coupling.monge_match(x, y)
    assert capped_cost(x, y, perm) == pytest.approx(0.5)
    assert brute_force_capped([0, 1], [0, 2]) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="length mismatch"):
        coupling.monge_match([0.0], [0.0, 1.0])


def test_monge_match_optimal_within_unit_window():
    # all displacements below the cap: rank matching solves the problem
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        x = rng.uniform(0, 0.95, n)
        y = rng.uniform(0, 0.95, n)
        perm = coupling.monge_match(x, y)
        assert capped_cost(x, y, perm) == \
            pytest.approx(brute_force_capped(x, y), abs=1e-12)


def test_monge_match_saturated_counterexample():
    # far clouds: one saturated pair cheaper than the rank coupling
    x = np.array([0.0, 0.4])
    y = np.array([0.7, 1.3])
    perm = coupling.monge_match(x, y)
    assert capped_cost(x, y, perm) == pytest.approx(0.8)
    assert brute_force_capped(x, y) == pytest.approx(0.65)


def test_identical_systems_stay_identical():
    cp = coupling.new_coupled(12, "zeros", "zeros", seed=1)
    for _ in range(60):
        coupling.step_coupled(cp)
        np.testing.assert_array_equal(np.sort(cp.ps_a.positions),
                                      np.sort(cp.ps_b.positions))
    assert cp.distance() == 0.0


@pytest.mark.parametrize("k", [1, 9, 80])
def test_step_coupled_matches_advance_coupled(k):
    # the k-th shared event lands exactly on t_k, so the twin performs it too
    cp = coupling.new_coupled(8, waves.sample_pi_min, "zeros", seed=23)
    twin = coupling.new_coupled(8, waves.sample_pi_min, "zeros", seed=23)
    for _ in range(k):
        coupling.step_coupled(cp)
    coupling.advance_coupled(twin, cp.time)
    for a, b in ((cp.ps_a, twin.ps_a), (cp.ps_b, twin.ps_b)):
        np.testing.assert_array_equal(b.positions, a.positions)
        assert b.n_events == a.n_events
    np.testing.assert_array_equal(twin.matching, cp.matching)


def test_translation_preserved_exactly():
    rng = np.random.default_rng(2)
    base = waves.sample_pi_min(rng, 24).atoms
    eps = 0.4
    cp = coupling.new_coupled(24, base, base + eps, seed=3)
    assert cp.distance() == pytest.approx(eps, abs=1e-12)
    for t in (0.5, 1.0, 2.0):
        coupling.advance_coupled(cp, t)
        assert cp.distance() == pytest.approx(eps, abs=1e-12)
    assert cp.ps_a.n_events == cp.ps_b.n_events


def test_distance_never_exceeds_one():
    cp = coupling.new_coupled(16, "zeros",
                              lambda rng, n: rng.normal(5.0, 1.0, n), seed=4)
    for _ in range(50):
        coupling.step_coupled(cp)
        assert cp.distance() <= 1.0


def test_contraction_at_time_zero_and_beyond():
    [rep] = coupling.contraction_estimate(32, waves.sample_pi_min,
                                          waves.sample_pi_min, [0.0], 20,
                                          seed=5)
    assert rep.lhs == pytest.approx(rep.rhs)
    reports = coupling.contraction_estimate(
        64, waves.sample_pi_min, waves.sample_pi_min, [0.5, 1.0], 60, seed=6)
    for rep in reports:
        assert rep.ok, (rep.t, rep.lhs, rep.rhs)
    with pytest.raises(ValueError):
        coupling.contraction_estimate(8, "zeros", "zeros", [-1.0], 4)


def test_contraction_from_mixed_starts():
    reports = coupling.contraction_estimate(
        64, ("delta", 0.0), waves.sample_pi_min, [0.5, 1.0], 60, seed=7)
    for rep in reports:
        assert rep.ok


def test_supermartingale_negative_drift():
    incs = coupling.supermartingale_increments(64, waves.sample_pi_min,
                                               "zeros", 3.0, seed=8)
    assert incs.size > 100
    se = incs.std(ddof=1) / math.sqrt(incs.size)
    assert incs.mean() <= 3 * se


def test_marginals_match_plain_system():
    # leftmost displacement over [0, 1]: coupled system a vs a plain run
    n_rep = 300
    coupled, plain = [], []
    for child in np.random.SeedSequence(9).spawn(n_rep):
        cp = coupling.new_coupled(16, waves.sample_pi_min,
                                  waves.sample_pi_min, seed=child)
        l0 = cp.ps_a.leftmost
        coupling.advance_coupled(cp, 1.0)
        coupled.append(cp.ps_a.leftmost - l0)
    for child in np.random.SeedSequence(10).spawn(n_rep):
        ps = nbbm.new_system(16, waves.sample_pi_min, seed=child)
        l0 = ps.leftmost
        nbbm.advance_to(ps, 1.0)
        plain.append(ps.leftmost - l0)
    res = stats.ks_2samp(coupled, plain)
    assert res.pvalue > 1e-3


def test_coupled_needs_two_particles_and_valid_mode():
    with pytest.raises(ValueError):
        coupling.new_coupled(1, "zeros", "zeros")
    with pytest.raises(TypeError, match="mode"):   # one coupling, no knob
        coupling.new_coupled(4, "zeros", "zeros", mode="literal")


# ---------------------------------------------------------------------------
# The coupled event against its former two-sort implementation
# ---------------------------------------------------------------------------

def _restricted_match(pos_a, pos_b, skip_a, skip_b):
    """Rank matching between the clouds with one index removed from each."""
    n = pos_a.size
    idx_a = np.delete(np.arange(n), skip_a)
    idx_b = np.delete(np.arange(n), skip_b)
    sub = coupling.monge_match(pos_a[idx_a], pos_b[idx_b])
    out = np.full(n, -1, dtype=int)
    out[idx_a] = idx_b[sub]
    return out


def reference_event(cp, self_jump, pick):
    """The coupled jump by a fresh restricted matching, then a full rematch."""
    n = cp.n
    pos_a, pos_b = cp.ps_a.positions, cp.ps_b.positions
    i_star = int(np.argmin(pos_a))
    j_star = int(np.argmin(pos_b))
    if not self_jump:
        i = pick + 1 if pick >= i_star else pick
        iota = _restricted_match(pos_a, pos_b, i_star, j_star)
        pos_a[i_star] = pos_a[i]
        pos_b[j_star] = pos_b[iota[i]]
        cp.ps_a.n_events += 1
        cp.ps_b.n_events += 1
    cp.matching = coupling.monge_match(pos_a, pos_b)


def reference_diffuse(cp, dt):
    g = cp.rng.standard_normal(cp.n)
    g *= math.sqrt(dt)
    cp.ps_a.positions += g
    cp.ps_b.positions[cp.matching] += g
    cp.ps_a.time += dt
    cp.ps_b.time += dt


def reference_run(cp, t_end, events=math.inf):
    """The coupled loop with scalar draws: per event one exponential wait,
    one shared Gaussian vector, a self-jump coin and, unless it is a
    self-jump, a pick; the wait that overshoots t_end is discarded."""
    n, rng = cp.n, cp.rng
    while events > 0:
        dt = rng.exponential(1.0 / n)
        if cp.time + dt > t_end:
            if t_end > cp.time:
                reference_diffuse(cp, t_end - cp.time)
            return
        reference_diffuse(cp, dt)
        self_jump = rng.random() < 1.0 / n
        reference_event(cp, self_jump,
                        None if self_jump else int(rng.integers(n - 1)))
        events -= 1


@pytest.mark.parametrize("n", [2, 16, 64])
def test_coupled_loop_matches_reference(n, same_law):
    # both marginals' leftmost displacement and the distance W at t = 1;
    # both start from pimin, since against a start at zeros W is capped at
    # 1 in every replica from N = 16 on
    def sample(run, tag):
        out = []
        for r in range(300):
            cp = coupling.new_coupled(n, "pimin", "pimin", seed=[tag, n, r])
            l0 = cp.ps_a.leftmost, cp.ps_b.leftmost
            run(cp, 1.0)
            out.append((cp.ps_a.leftmost - l0[0], cp.ps_b.leftmost - l0[1],
                        cp.distance()))
        return np.asarray(out)

    same_law(f"N={n} reference / advance_coupled:", sample(reference_run, 0),
             sample(coupling.advance_coupled, 1),
             ("L_a - L_a0", "L_b - L_b0", "W"))


@pytest.mark.parametrize("k", [1, 9, 80])
def test_step_coupled_matches_reference(k, same_law):
    # k calls of one shared event each against the reference loop run for
    # k events in one call: the time of the k-th event and both leftmosts
    def sample(step, tag):
        out = []
        for r in range(300):
            cp = coupling.new_coupled(8, waves.sample_pi_min, "zeros",
                                      seed=[tag, k, r])
            l0 = cp.ps_a.leftmost
            step(cp)
            out.append((cp.time, cp.ps_a.leftmost - l0, cp.ps_b.leftmost))
        return np.asarray(out)

    def stepped(cp):
        for _ in range(k):
            coupling.step_coupled(cp)

    ref = sample(lambda cp: reference_run(cp, math.inf, events=k), 0)
    same_law(f"k={k} reference / step_coupled:", ref, sample(stepped, 1),
             ("T_k", "L_a - L_a0", "L_b"))


def lattice_cloud(rng, n, lattice_share):
    """n positions, each on the lattice {0, 1/2, 1, 3/2} with the given
    probability and Gaussian otherwise, so that copied values tie."""
    on_lattice = rng.random(n) < lattice_share
    return np.where(on_lattice, 0.5 * rng.integers(0, 4, n), rng.normal(size=n))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       lattice_share=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
       diffuse_every=st.integers(1, 6))
def test_event_matches_reference(n, seed, lattice_share, diffuse_every):
    rng = np.random.default_rng(seed)
    pos_a = lattice_cloud(rng, n, lattice_share)
    pos_b = lattice_cloud(rng, n, lattice_share)
    pairs = [coupling.new_coupled(n, pos_a, pos_b, seed=seed) for _ in range(2)]
    for step in range(40):
        if step and step % diffuse_every == 0:   # break some ties, keep others
            for cp in pairs:
                reference_diffuse(cp, 0.01)
        pick = int(rng.integers(n))   # n - 1 is the self-jump
        coupling._event(pairs[0], pick)
        reference_event(pairs[1], pick == n - 1, pick)
        new, ref = pairs
        assert new.ps_a.positions.tobytes() == ref.ps_a.positions.tobytes()
        assert new.ps_b.positions.tobytes() == ref.ps_b.positions.tobytes()
        np.testing.assert_array_equal(new.matching, ref.matching)
        assert new.ps_a.n_events == ref.ps_a.n_events
        assert new.ps_b.n_events == ref.ps_b.n_events
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state

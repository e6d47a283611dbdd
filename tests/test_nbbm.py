"""Particle system: jump mechanics, event statistics, determinism."""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from nbbmlab import coupling, nbbm, stationary, waves
from nbbmlab.measures import gap_mean, w1_to_analytic


@contextlib.contextmanager
def forced_lazy():
    """Every call with N >= 2 runs the lazy loop, however short."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nbbm, "LAZY_MIN_N", 2)
        mp.setattr(nbbm, "LAZY_MIN_EVENTS", 0)
        yield


def test_new_system_variants():
    ps = nbbm.new_system(3, [0, 0, 0], seed=1)
    np.testing.assert_array_equal(ps.positions, [0, 0, 0])
    assert ps.time == 0.0 and ps.n_events == 0
    ps = nbbm.new_system(100, waves.sample_pi_min, seed=7)
    ps2 = nbbm.new_system(100, waves.sample_pi_min, seed=7)
    np.testing.assert_array_equal(ps.positions, ps2.positions)
    assert nbbm.new_system(1, "zeros", seed=0).n == 1
    with pytest.raises(ValueError):
        nbbm.new_system(0, "zeros")
    with pytest.raises(ValueError):
        nbbm.new_system(3, [0.0, 1.0], seed=0)


def test_jump_mechanics():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(40):
        positions = np.array([0.0, 1.0, 2.0])
        victim, target, displacement = nbbm._jump(positions,
                                                  int(rng.integers(2)))
        assert victim == 0 and target in (1, 2)
        assert displacement == target
        seen.add(tuple(sorted(positions)))
    # victim lands on 1 or on 2; both outcomes occur
    assert seen == {(1.0, 1.0, 2.0), (1.0, 2.0, 2.0)}


def test_jump_all_equal_is_noop_on_multiset():
    positions = np.array([5.0, 5.0, 5.0, 5.0])
    victim, target, displacement = nbbm._jump(positions, 0)
    assert victim == 0  # lowest index wins the tie
    assert target != victim
    assert displacement == 0.0
    np.testing.assert_array_equal(positions, [5.0, 5.0, 5.0, 5.0])


def test_init_vocabulary():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(nbbm.draw_initial("zeros", rng, 3), [0, 0, 0])
    np.testing.assert_array_equal(nbbm.draw_initial("delta:1.5", rng, 2),
                                  [1.5, 1.5])
    np.testing.assert_array_equal(nbbm.draw_initial(("delta", -1), rng, 2),
                                  [-1.0, -1.0])
    a = nbbm.new_system(50, "pimin", seed=4)
    b = nbbm.new_system(50, waves.sample_pi_min, seed=4)
    np.testing.assert_array_equal(a.positions, b.positions)
    c = nbbm.new_system(50, "pic:1.6", seed=4)
    d = nbbm.new_system(50, waves.travelling_wave(1.6).sample, seed=4)
    np.testing.assert_array_equal(c.positions, d.positions)
    for bad in ("gaussian", "pic:", "pic:1.0", "delta:x", "zeros:1"):
        with pytest.raises(ValueError):
            nbbm.parse_init(bad)


@pytest.mark.parametrize("k", [1, 7, 60])
def test_step_event_matches_advance_to(k):
    # the k-th event lands exactly on t_k, so the twin performs it too
    ps = nbbm.new_system(6, waves.sample_pi_min, seed=19)
    twin = nbbm.new_system(6, waves.sample_pi_min, seed=19)
    for _ in range(k):
        nbbm.step_event(ps)
    nbbm.advance_to(twin, ps.time)
    np.testing.assert_array_equal(twin.positions, ps.positions)
    assert twin.n_events == ps.n_events == k
    assert twin.time == ps.time


def test_step_event_requires_two_particles():
    ps = nbbm.new_system(1, "zeros", seed=0)
    with pytest.raises(ValueError, match="no selection"):
        nbbm.step_event(ps)


def test_step_event_counters_and_positivity():
    ps = nbbm.new_system(8, waves.sample_pi_min, seed=11)
    last_t = 0.0
    for _ in range(200):
        ev = nbbm.step_event(ps)
        assert ev.displacement >= 0.0
        assert ev.time > last_t
        last_t = ev.time
    assert ps.n_events == 200
    assert ps.n == 8


def test_event_rate_matches_poisson():
    # N = 2: one event per unit time on average
    ps = nbbm.new_system(2, "zeros", seed=21)
    horizon = 4000.0
    nbbm.advance_to(ps, horizon)
    rate = ps.n_events / horizon
    assert abs(rate - 1.0) < 3.0 / math.sqrt(horizon)


def test_interevent_times_exponential():
    ps = nbbm.new_system(2, "zeros", seed=33)
    times = []
    t_prev = 0.0
    for _ in range(5000):
        ev = nbbm.step_event(ps)
        times.append(ev.time - t_prev)
        t_prev = ev.time
    res = stats.kstest(times, stats.expon(scale=1.0).cdf)
    assert res.pvalue > 1e-3


def test_advance_to_noop_and_error():
    ps = nbbm.new_system(4, "zeros", seed=2)
    nbbm.advance_to(ps, 0.0)
    assert ps.time == 0.0
    nbbm.advance_to(ps, 1.0)
    with pytest.raises(ValueError):
        nbbm.advance_to(ps, 0.5)
    assert ps.time == 1.0


def test_single_particle_is_brownian():
    samples = []
    for k in range(1500):
        ps = nbbm.new_system(1, [0.5], seed=1000 + k)
        nbbm.advance_to(ps, 1.0)
        samples.append(ps.positions[0])
    res = stats.kstest(samples, stats.norm(loc=0.5, scale=1.0).cdf)
    assert res.pvalue > 1e-3


def test_min_displacement_has_finite_spread():
    disp = []
    for k in range(300):
        ps = nbbm.new_system(2, "zeros", seed=5000 + k)
        nbbm.advance_to(ps, 1.0)
        disp.append(ps.leftmost)
    assert 0.01 < np.var(disp) < 10.0


def test_barycentre_decomposition_exact():
    ps = nbbm.new_system(16, waves.sample_pi_min, seed=8)
    for _ in range(20):
        nbbm.advance_to(ps, ps.time + 0.25)
        b = gap_mean(ps.positions - ps.leftmost)
        assert ps.barycentre == pytest.approx(ps.leftmost + b, abs=1e-12)


def test_snapshot_centrings():
    ps = nbbm.new_system(4, [3.0, 4.0, 5.0, 6.0], seed=0)
    raw = nbbm.snapshot(ps, "none")
    np.testing.assert_array_equal(raw.atoms, [3, 4, 5, 6])
    left = nbbm.snapshot(ps, "leftmost")
    assert left.atoms[0] == 0.0  # exact Gamma_N membership
    np.testing.assert_array_equal(left.atoms, [0, 1, 2, 3])
    med = nbbm.snapshot(ps, "median")
    np.testing.assert_array_equal(med.atoms, [-2, -1, 0, 1])


def test_determinism_bitwise():
    a = nbbm.new_system(32, waves.sample_pi_min, seed=77)
    b = nbbm.new_system(32, waves.sample_pi_min, seed=77)
    nbbm.advance_to(a, 3.0)
    nbbm.advance_to(b, 3.0)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.n_events == b.n_events and a.time == b.time


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    _checkpoint_roundtrip(tmp_path)


def test_checkpoint_roundtrip_bit_exact_lazy(tmp_path):
    with forced_lazy():
        ps = _checkpoint_roundtrip(tmp_path)
    assert ps.promotions > 0 and ps.bridge_draws > 0


def _checkpoint_roundtrip(tmp_path):
    ps = nbbm.new_system(12, waves.sample_pi_min, seed=5)
    nbbm.advance_to(ps, 1.0)
    path = tmp_path / "ck.json"
    nbbm.save_checkpoint(ps, path)
    restored = nbbm.from_checkpoint(path)
    np.testing.assert_array_equal(restored.positions, ps.positions)
    # continuing both produces bit-identical futures
    nbbm.advance_to(ps, 2.5)
    nbbm.advance_to(restored, 2.5)
    np.testing.assert_array_equal(restored.positions, ps.positions)
    assert restored.n_events == ps.n_events
    assert restored.time == ps.time
    return ps


def test_checkpoint_is_a_snapshot():
    # the dict keeps the pending rings it was taken with while the system
    # runs on, so restoring from it later is still exact
    ps = nbbm.new_system(8, "pimin", seed=4)
    nbbm.advance_to(ps, 0.5)
    state = nbbm.checkpoint(ps)
    frozen = json.dumps(state, sort_keys=True)
    assert state["ring_times"]
    nbbm.advance_to(ps, 2.0)
    assert json.dumps(state, sort_keys=True) == frozen
    restored = nbbm.from_checkpoint(state)
    nbbm.advance_to(restored, 2.0)
    assert restored.positions.tobytes() == ps.positions.tobytes()
    assert restored.n_events == ps.n_events


split_cases = given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
                    init=st.sampled_from(["zeros", "pimin", "delta:2"]),
                    split=st.floats(0.0, 1.0, exclude_max=True),
                    t=st.floats(0.01, 1.5))


@settings(max_examples=60, deadline=None)
@split_cases
def test_checkpoint_restore_bit_exact_at_random_split(n, seed, init, split, t):
    _checkpoint_split(n, seed, init, split, t)


@settings(max_examples=60, deadline=None)
@split_cases
def test_checkpoint_restore_bit_exact_at_random_split_lazy(n, seed, init,
                                                           split, t):
    with forced_lazy():
        _checkpoint_split(n, seed, init, split, t)


def _checkpoint_split(n, seed, init, split, t):
    # the reference is the run that stopped at s in memory, not a run
    # straight to t: both loops keep their pending rings across a stop, but
    # each stop draws its own Gaussians
    s = split * t
    ps = nbbm.new_system(n, init, seed=seed)
    nbbm.advance_to(ps, s)
    restored = nbbm.from_checkpoint(
        json.loads(json.dumps(nbbm.checkpoint(ps), sort_keys=True)))
    nbbm.advance_to(ps, t)
    nbbm.advance_to(restored, t)
    assert restored.positions.tobytes() == ps.positions.tobytes()
    assert restored.time == ps.time == t
    assert restored.n_events == ps.n_events
    assert restored.rng.bit_generator.state == ps.rng.bit_generator.state


def test_trajectory_log(tmp_path):
    ps = nbbm.new_system(4, "zeros", seed=9)
    path = tmp_path / "traj.csv"
    nbbm.log_trajectory(ps, 2.0, 0.5, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,L,A,M,n_events"
    assert len(lines) == 6  # t = 0, 0.5, ..., 2.0
    last = lines[-1].split(",")
    assert float(last[0]) == 2.0
    assert int(last[4]) == ps.n_events


@pytest.mark.parametrize("interval", [0.0, -0.5])
def test_trajectory_log_needs_positive_interval(tmp_path, interval):
    ps = nbbm.new_system(4, "zeros", seed=9)
    with pytest.raises(ValueError, match="interval"):
        nbbm.log_trajectory(ps, 1.0, interval, tmp_path / "traj.csv")


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("run", [
    lambda t, path: nbbm.advance_to(nbbm.new_system(8, "pimin", seed=1), t),
    lambda t, path: nbbm.advance_to(nbbm.new_system(2048, "pimin", seed=1),
                                    t),
    lambda t, path: nbbm.log_trajectory(nbbm.new_system(8, "pimin", seed=1),
                                        t, 0.5, path),
    lambda t, path: coupling.advance_coupled(
        coupling.new_coupled(8, "pimin", "pimin", seed=1), t),
    lambda t, path: coupling.supermartingale_increments(8, "pimin", "pimin",
                                                        t, seed=1),
    lambda t, path: stationary.check_span(10.0, t),
    lambda t, path: stationary.birkhoff_identity_check(8, t, seed=1),
], ids=["advance_to", "advance_to_lazy", "log_trajectory", "advance_coupled",
        "supermartingale_increments", "check_span", "birkhoff_identity_check"])
def test_non_finite_end_time_is_rejected(tmp_path, run, t_end):
    # NaN or an infinite end would loop forever (or, in the lazy loop, fail
    # on a complex number); each entry point raises before any work
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match="finite"):
        run(t_end, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# the lazy loop (nbbm._LazyCall): its representation, invariants and oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [101, 202, 303])
def test_first_passage_representation_is_brownian(seed):
    # a particle at x0 = 2 above a leftmost at 0 turns passive: a level h and
    # a Levy passage time T; then it is drawn at four increasing random times
    # as a jump target is (bridge draw, keeping h and T) before T, first after
    # T as an expired passive is (expire, or value_at as at the end of a
    # call, on alternate replicas), and as an active particle diffuses after
    # that.  Its path must be Brownian.
    reps, x0 = 2000, 2.0
    rng = np.random.default_rng(seed)
    lags, levels, after, from_level = [], set(), 0, []
    marginals = [[] for _ in range(4)]
    increments = []
    for r in range(reps):
        ps = nbbm.new_system(2, [0.0, x0], seed=seed * reps + r)
        lazy = nbbm._LazyCall(ps)
        assert lazy.slot[1] < 0 and lazy.slot[0] >= 0
        t, x, h, T = lazy.table[1]
        levels.add(h)
        lags.append(T - t)
        prev_s, y = 0.0, x0
        for k, s in enumerate(np.cumsum(rng.exponential(1.0, 4))):
            if s < T:
                new = lazy.value_at(np.array([1]), s)[0]
                lazy.table[1, :2] = s, new
            elif prev_s < T:
                new = (lazy.expire(s, T, ps.rng.standard_normal()) if r % 2
                       else lazy.value_at(np.array([1]), s)[0])
                from_level.append((new - h) / math.sqrt(s - T))
                after += 1
            else:
                new = y + math.sqrt(s - prev_s) * ps.rng.standard_normal()
                after += 1
            marginals[k].append((new - x0) / math.sqrt(s))
            increments.append((new - y) / math.sqrt(s - prev_s))
            prev_s, y = s, new
    (h,) = levels
    assert h == pytest.approx(nbbm._LEVEL * x0) and lazy.bridge_draws > 0
    assert 0.1 * 4 * reps < after < 0.9 * 4 * reps   # both branches drawn
    pvalues = [stats.kstest(lags, stats.levy(scale=(x0 - h) ** 2).cdf).pvalue]
    pvalues += [stats.kstest(m, "norm").pvalue for m in marginals]
    pvalues.append(stats.kstest(increments, "norm").pvalue)
    # given T, the first draw after it is h + N(0, s - T)
    pvalues.append(stats.kstest(from_level, "norm").pvalue)
    print(f"seed {seed}: KS p (T, four marginals, increments, after T) =",
          ", ".join(f"{p:.3g}" for p in pvalues))
    assert min(pvalues) > 1e-3, pvalues


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       init=st.sampled_from(["zeros", "pimin", "delta:2"]),
       steps=st.integers(1, 40))
def test_lazy_step_event_takes_the_leftmost(n, seed, init, steps):
    with forced_lazy():
        ps = nbbm.new_system(n, init, seed=seed)
        for _ in range(steps):
            ev = nbbm.step_event(ps)
            assert ev.displacement >= 0.0
            before = ps.positions[ev.victim_index] - ev.displacement
            assert ps.positions.min() >= before - 1e-12 * (1.0 + abs(before))
    assert ps.n_events == steps


def test_lazy_call_hands_its_pending_rings_on():
    # a natural lazy call takes its events from ps.clock like a plain one,
    # so the rings past its stop survive it, in the state and the checkpoint
    ps = nbbm.new_system(1024, "pimin", seed=12)
    nbbm.advance_to(ps, 1.0)
    assert ps.promotions > 0                       # the call ran lazily
    rings = nbbm.checkpoint(ps)["ring_times"]
    assert rings and rings[0] > ps.time == 1.0


def _oracle_sample(n, calls, span, reps, seed, run=nbbm.advance_to):
    out = []
    for r in range(reps):
        ps = nbbm.new_system(n, "pimin", seed=seed + r if isinstance(seed, int)
                             else [*seed, r])
        l0 = ps.leftmost
        for k in range(1, calls + 1):
            run(ps, k * span)
        gap = w1_to_analytic(nbbm.snapshot(ps, "leftmost"), waves.MINIMAL_WAVE)
        out.append((ps.leftmost - l0, ps.n_events, gap))
    return np.asarray(out), ps


@pytest.mark.parametrize("n, calls, span, reps", [(8, 2, 10.0, 400),
                                                  (64, 2, 2.0, 300),
                                                  (512, 3, 0.5, 200)])
def test_lazy_loop_matches_plain_loop(n, calls, span, reps, same_law):
    # every call spans > 64 events, so demotions run inside the calls
    plain, _ = _oracle_sample(n, calls, span, reps, 50_000 + 1000 * n)
    with forced_lazy():
        lazy, last = _oracle_sample(n, calls, span, reps, 60_000 + 1000 * n)
    assert last.promotions > 0 and last.bridge_draws > 0
    same_law(f"N={n} plain / lazy:", plain, lazy,
             ("L_t - L_0", "n_events", "gap"))


def test_lazy_loop_matches_plain_loop_at_natural_n(same_law):
    # N = 1024 with the production knobs: every call expects ~1023 events,
    # so it runs lazily; the oracle is the plain loop at the same N
    n, calls, span, reps = 1024, 2, 1.0, 150
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nbbm, "LAZY_MIN_N", 10 ** 9)
        plain, last = _oracle_sample(n, calls, span, reps, 71_024)
    assert last.promotions == 0
    lazy, last = _oracle_sample(n, calls, span, reps, 81_024)
    assert last.promotions > 0 and last.bridge_draws > 0
    same_law(f"N={n} plain / lazy:", plain, lazy,
             ("L_t - L_0", "n_events", "gap"))


# keys with ties across particles; a particle never gets a key it had before
ORDER_OPS = st.lists(st.tuples(st.sampled_from(["merge", "take", "first",
                                                "pop", "activate", "rekey"]),
                               st.lists(st.integers(0, 9), max_size=6),
                               st.integers(0, 6)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=ORDER_OPS)
# equal keys in older and newer batches, popped and then merged together
@example(ops=[("merge", [0, 1], 0), ("merge", [2], 0), ("pop", [], 0)])
@example(ops=[("merge", [0, 1], 0), ("merge", [2], 0), ("take", [], 6)])
@example(ops=[("merge", [0, 1], 0), ("merge", [2], 0), ("merge", [3], 0),
              ("take", [], 6)])
def test_order_against_a_sorted_list(ops):
    # nbbm._Order against the live (key, id) pairs kept by brute force: an
    # entry is live while its particle is passive (slot < 0) with that key
    m = 10
    slot = np.zeros(m, dtype=np.intp)           # all active at first
    key = np.full(m, -1.0)
    order = nbbm._Order(slot, key)
    entries, used, ages = [], {i: set() for i in range(m)}, iter(range(99))

    def live():
        return sorted((k, age, i) for k, age, i in entries
                      if slot[i] < 0 and key[i] == k)

    def remove(found):
        for k, age, i in found:
            entries.remove((k, age, i))

    def new_key(i, x):
        k = x / 4.0
        while k in used[i]:
            k += 0.125
        used[i].add(k)
        return k

    for op, ids, x in ops:
        if op == "merge":
            ids = [i for i in dict.fromkeys(ids) if slot[i] >= 0]
            keys = np.array([new_key(i, x + j % 3) for j, i in enumerate(ids)])
            slot[ids], key[ids] = -1, keys
            age = next(ages)
            entries.extend((k, age, i) for k, i in zip(keys, ids))
            order.merge(keys, np.array(ids, dtype=np.intp))
            # one run: a merge leaves exactly the live entries unread
            assert order.keys.size - order.head == len(live())
        elif op == "take":
            # in key order, older entries first on ties (a batch's own ties
            # in any order)
            found = [e for e in live() if e[0] <= x / 4.0]
            got = order.take(x / 4.0)
            age = {i: a for _, a, i in found}
            assert sorted(got) == sorted(i for _, _, i in found)
            assert [(key[i], age[i]) for i in got] == [e[:2] for e in found]
            remove(found)
        elif op in ("first", "pop"):
            found = live()
            assert order.first() == (found[0][0] if found else math.inf)
            if op == "pop" and found:
                i = order.pop()
                (e,) = [e for e in found if e[2] == i]
                assert e[:2] == found[0][:2]
                remove([e])
        elif op == "activate":
            slot[ids] = 0
        else:                                   # a passive gets a new key
            for i in dict.fromkeys(ids):
                if slot[i] < 0:
                    key[i] = new_key(i, x)


# ---------------------------------------------------------------------------
# the plain loop against the scalar-draw loop it replaced (the oracle)
# ---------------------------------------------------------------------------

def reference_jump(positions, rng):
    victim = int(positions.argmin())
    j = int(rng.integers(positions.size - 1))
    target = j + 1 if j >= victim else j
    displacement = positions[target] - positions[victim]
    positions[victim] = positions[target]
    return victim, target, displacement


def reference_diffuse(positions, rng, dt):
    z = rng.standard_normal(positions.size)
    z *= math.sqrt(dt)
    positions += z


def reference_run(ps, t_end, events=math.inf):
    """One exponential wait, one Gaussian vector and one pick per event;
    the wait that overshoots t_end is discarded."""
    positions, rng = ps.positions, ps.rng
    rate = 1.0 / (ps.n - 1) if ps.n > 1 else None
    jump = None
    while events > 0:
        dt = rng.exponential(rate) if rate else math.inf
        if ps.time + dt > t_end:
            rem = t_end - ps.time
            if rem > 0.0:
                reference_diffuse(positions, rng, rem)
            ps.time = t_end
            return None
        reference_diffuse(positions, rng, dt)
        jump = reference_jump(positions, rng)
        ps.time += dt
        ps.n_events += 1
        events -= 1
    return jump


@pytest.mark.parametrize("n, horizon, reps", [(2, 10.0, 300), (8, 3.0, 300),
                                              (64, 1.0, 300), (512, 0.2, 200)])
def test_plain_loop_matches_reference(n, horizon, reps, same_law):
    # one call, and stops every 0.1 and every 0.01 time units: where a run
    # stops must not change its law
    ref, _ = _oracle_sample(n, 1, horizon, reps, (0, n), run=reference_run)
    names = ("L_t - L_0", "n_events", "gap")
    for variant, span in enumerate((horizon, 0.1, 0.01), start=1):
        calls = round(horizon / span)
        new, _ = _oracle_sample(n, calls, horizon / calls, reps, (variant, n))
        same_law(f"N={n} reference / span {span}:", ref, new, names)


@pytest.mark.parametrize("k", [1, 7, 60])
def test_step_event_matches_reference(k, same_law):
    # k calls of one event each against the reference loop run for k events
    # in one call: the time of the k-th event and the leftmost after it
    def sample(step, tag):
        out = []
        for r in range(300):
            ps = nbbm.new_system(6, waves.sample_pi_min, seed=[tag, k, r])
            l0 = ps.leftmost
            step(ps)
            assert ps.n_events == k
            out.append((ps.time, ps.leftmost - l0))
        return np.asarray(out)

    def stepped(ps):
        for _ in range(k):
            nbbm.step_event(ps)

    ref = sample(lambda ps: reference_run(ps, math.inf, events=k), 0)
    same_law(f"k={k} reference / step_event:", ref, sample(stepped, 1),
             ("T_k", "L - L_0"))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselb import policies
from sparselb.model import ModelParams
from sparselb.policies import (
    BLOCK,
    DispatcherView,
    PolicyKind,
    PolicySpec,
    WordDraws,
    apply_global_update,
    dispatch,
    on_assign,
    on_idle,
    on_update,
    raw_words,
    schedule_updates,
)


def view_for(text, n):
    spec = PolicySpec.parse(text)
    return spec, DispatcherView(spec, n)


def policy_draws(seed):
    """The policy stream's reader, as des reads a seeded Generator."""
    return WordDraws(raw_words(np.random.default_rng(seed)).__next__)


def update_draws(seed):
    """The update stream, a seeded Generator, as des passes it on."""
    return np.random.default_rng(seed)


def test_parse_grammar():
    assert PolicySpec.parse("sujsq-det:0.85") == PolicySpec(
        PolicyKind.SUJSQ_DET, delta=0.85
    )
    assert PolicySpec.parse("aujsq-exp:2.5").delta == 2.5
    assert PolicySpec.parse("jsq-d:2").d == 2
    assert PolicySpec.parse("jiq-p:0.3").p == 0.3
    assert PolicySpec.parse("jiq").kind is PolicyKind.JIQ
    assert PolicySpec.parse("round-robin").kind is PolicyKind.ROUND_ROBIN
    assert str(PolicySpec.parse("sujsq-det-idle:0.85")) == "sujsq-det-idle:0.85"


def test_kind_globals_name_their_members():
    # the hooks test kinds against these globals, unpacked in member order
    for kind in PolicyKind:
        assert getattr(policies, kind.name) is kind


@pytest.mark.parametrize("label", ["jiq-p:1", "jiq-p:0.3", "sujsq-det:0.85", "jsq-d:2",
                                   "aujsq-exp:2.5", "sujsq-det-idle:1e-07", "random"])
def test_labels_that_read_back_keep_their_text(label):
    assert str(PolicySpec.parse(label)) == label


@pytest.mark.parametrize("spec, label", [
    (PolicySpec(PolicyKind.AUJSQ_EXP, delta=0.7 / 0.3), "aujsq-exp:2.3333333333333335"),
    (PolicySpec(PolicyKind.SUJSQ_DET, delta=1 / 3), "sujsq-det:0.3333333333333333"),
    (PolicySpec(PolicyKind.SUJSQ_EXP, delta=123456789.0), "sujsq-exp:123456789.0"),
    (PolicySpec(PolicyKind.JIQ_P, p=0.1234567), "jiq-p:0.1234567"),
    (PolicySpec(PolicyKind.JSQ_D, d=1234567), "jsq-d:1234567"),
    (PolicySpec(PolicyKind.JSQ_D, d=100000000), "jsq-d:100000000"),
])
def test_label_parses_back_to_the_same_spec(spec, label):
    # printed with :g, none of these would parse back to the same spec
    assert str(spec) == label
    assert PolicySpec.parse(label) == spec


def test_parse_rejects_bad_specs():
    with pytest.raises(ValueError):
        PolicySpec.parse("jsq")
    with pytest.raises(ValueError):
        PolicySpec.parse("random:3")
    with pytest.raises(ValueError):
        PolicySpec(PolicyKind.SUJSQ_DET)  # missing delta
    with pytest.raises(ValueError):
        PolicySpec(PolicyKind.JSQ_D, d=0)
    with pytest.raises(ValueError):
        PolicySpec(PolicyKind.JIQ_P, p=1.5)
    with pytest.raises(ValueError):
        PolicySpec(PolicyKind.RANDOM, delta=1.0)


def test_set_estimates_rebuilds_the_levels():
    _, view = view_for("aujsq-exp:1.0", 3)
    view.set_estimates([2, 0, 2])
    assert view.est == [2, 0, 2]
    assert view.levels[view.lowest] == [1] and view.levels[2] == [0, 2]


def test_dispatch_unique_argmin():
    spec, view = view_for("sujsq-det:0.85", 3)
    view.set_estimates([2, 0, 1])
    rng = policy_draws(0)
    server, msgs = dispatch(spec, view, np.zeros(3, dtype=int), rng)
    assert server == 1 and msgs == 0


def test_dispatch_tie_break_is_uniform():
    spec, view = view_for("sujsq-det:0.85", 4)
    view.set_estimates([1, 0, 0, 1])
    rng = policy_draws(1)
    hits = [dispatch(spec, view, np.zeros(4, dtype=int), rng)[0] for _ in range(400)]
    assert set(hits) == {1, 2}
    assert 120 < sum(1 for h in hits if h == 1) < 280


def test_jsq_d_messages_and_choice():
    spec, view = view_for("jsq-d:2", 10)
    queues = np.array([3, 0, 2, 5, 1, 4, 2, 2, 3, 1])
    rng = policy_draws(2)
    for _ in range(50):
        server, msgs = dispatch(spec, view, queues, rng)
        assert msgs == 4
        assert 0 <= server < 10


def test_jsq_d_picks_min_of_sample():
    spec, view = view_for("jsq-d:10", 10)  # samples every server
    queues = np.array([3, 0, 2, 5, 1, 4, 2, 2, 3, 1])
    rng = policy_draws(3)
    server, msgs = dispatch(spec, view, queues, rng)
    assert server == 1
    assert msgs == 20


def test_jsq_d_refuses_a_bare_generator():
    # Generator.choice(n, d) would draw with replacement; sample has no
    # namesake on a Generator, so a bare one fails instead of drawing.
    spec, view = view_for("jsq-d:2", 10)
    with pytest.raises(AttributeError):
        dispatch(spec, view, [0] * 10, np.random.default_rng(0))


def test_round_robin_cyclic_order():
    spec, view = view_for("round-robin", 3)
    rng = policy_draws(0)
    order = [dispatch(spec, view, np.zeros(3, dtype=int), rng)[0] for _ in range(7)]
    assert order == [0, 1, 2, 0, 1, 2, 0]
    counts = np.bincount(order, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_on_assign_increments():
    _, view = view_for("aujsq-exp:1.0", 2)
    on_assign(view, 0)
    assert view.est == [1, 0]
    for _ in range(4):
        on_assign(view, 1)
    assert view.est == [1, 4]


def test_on_assign_noop_for_token_kinds():
    _, view = view_for("jiq", 2)
    before = list(view.idle_tokens)
    on_assign(view, 0)
    assert view.idle_tokens == before and view.est is None


def test_on_update_resets_estimate():
    _, view = view_for("aujsq-exp:1.0", 2)
    view.set_estimates([5, 3])
    assert on_update(view, 0, 2) == 1
    assert view.est == [2, 3]


class WatchedLevel(list):
    """A level list that counts the deletions and insertions made in it."""

    changes = 0

    def __delitem__(self, i):
        self.changes += 1
        super().__delitem__(i)

    def insert(self, i, x):
        self.changes += 1
        super().insert(i, x)


@pytest.mark.parametrize("n", [3, 40])  # every level listed, and under a ceiling
def test_report_equal_to_the_estimate_changes_nothing(n):
    _, view = view_for("aujsq-exp:1.0", n)
    view.set_estimates([2] + [1] * (n - 1))
    lowest_level = view.levels[1] = WatchedLevel(view.levels[1])
    levels = [list(level) for level in view.levels]
    est = view.est
    assert on_update(view, 0, 2) == 1  # still one message
    assert on_update(view, n - 1, 1) == 1
    assert view.est is est and view.est == [2] + [1] * (n - 1)
    assert view.lowest == 1 and view.levels[1] is lowest_level
    assert view.levels == levels and lowest_level.changes == 0
    view.check_index()


def test_apply_global_update():
    spec, view = view_for("sujsq-det:0.85", 4)
    view.set_estimates([9, 9, 9, 9])
    queues = np.array([0, 2, 0, 1])
    assert apply_global_update(spec, view, queues) == 4
    assert view.est == [0, 2, 0, 1]

    spec, view = view_for("sujsq-det-idle:0.85", 4)
    view.set_estimates([9, 9, 9, 9])
    assert apply_global_update(spec, view, queues) == 2
    assert view.est == [0, 9, 0, 9]


def test_jiq_token_cycle():
    spec, view = view_for("jiq", 3)
    rng = policy_draws(4)
    assert on_idle(spec, view, 2, rng) == 1
    assert view.idle_tokens == [2]
    server, msgs = dispatch(spec, view, np.zeros(3, dtype=int), rng)
    assert server == 2 and msgs == 0
    assert view.idle_tokens == []


def test_jiq_p_degenerate_probabilities():
    rng = policy_draws(5)
    spec, view = view_for("jiq-p:0", 3)
    assert on_idle(spec, view, 0, rng) == 0
    assert view.idle_tokens == []
    spec, view = view_for("jiq-p:1", 3)
    assert on_idle(spec, view, 0, rng) == 1
    assert view.idle_tokens == [0]


def test_jiq_p_intermediate_rate():
    spec, view = view_for("jiq-p:0.3", 3)
    rng = policy_draws(6)
    sent = sum(on_idle(spec, view, 0, rng) for _ in range(2000))
    assert 500 < sent < 700


def test_schedule_sujsq_det_epochs():
    spec = PolicySpec.parse("sujsq-det:0.85")
    gen = schedule_updates(spec, ModelParams(5, 0.7, 0.85), update_draws(0))
    times = [next(gen) for _ in range(3)]
    assert times == [(1 / 0.85, None), (2 / 0.85, None), (3 / 0.85, None)]


def test_schedule_sujsq_exp_gap_mean():
    spec = PolicySpec.parse("sujsq-exp:2.0")
    gen = schedule_updates(spec, ModelParams(5, 0.7, 2.0), update_draws(8))
    events = [next(gen) for _ in range(4000)]
    times = np.array([t for t, _ in events])
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert np.mean(gaps) == pytest.approx(0.5, rel=0.05)
    assert all(s is None for _, s in events)  # global epochs carry no server


@pytest.mark.parametrize("delta", [0.21, 2.0])
def test_schedule_sujsq_exp_replays_scalar_draws(delta):
    # the gaps are read in blocks, across two block boundaries here, and
    # each epoch is the running sum of scalar exponential(1/delta) draws
    spec = PolicySpec(PolicyKind.SUJSQ_EXP, delta=delta)
    gen = schedule_updates(spec, ModelParams(5, 0.7, delta), update_draws(11))
    scalar = np.random.default_rng(11)
    t = 0.0
    for _ in range(2 * BLOCK + 5):
        t += scalar.exponential(1.0 / delta)
        assert next(gen) == (t, None)


def test_schedule_aujsq_det_per_server_period():
    spec = PolicySpec.parse("aujsq-det:0.5")
    n = 4
    gen = schedule_updates(spec, ModelParams(n, 0.7, 0.5), update_draws(9))
    events = [next(gen) for _ in range(4 * n)]
    times = np.array([t for t, _ in events])
    assert np.all(np.diff(times) >= 0)
    for s in range(n):
        own = [t for t, srv in events if srv == s]
        assert len(own) == 4
        assert np.allclose(np.diff(own), 2.0)
        assert 0.0 <= own[0] <= 2.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.floats(1e-3, 1e3), st.integers(1, 40))
def test_schedule_aujsq_det_phases_equal_uniform(seed, delta, n):
    # Every phase is below the period, so the first n events are the phases.
    spec = PolicySpec(PolicyKind.AUJSQ_DET, delta=delta)
    gen = schedule_updates(spec, ModelParams(n, 0.7, delta), update_draws(seed))
    plain = np.random.default_rng(seed)
    phases = sorted((plain.uniform(0.0, 1.0 / delta), s) for s in range(n))
    assert [next(gen) for _ in range(n)] == phases


def test_schedule_aujsq_exp_rate():
    spec = PolicySpec.parse("aujsq-exp:1.5")
    n = 10
    gen = schedule_updates(spec, ModelParams(n, 0.7, 1.5), update_draws(10))
    horizon = 200.0
    count = 0
    servers = []
    for t, s in gen:
        if t > horizon:
            break
        count += 1
        servers.append(s)
    expect = 1.5 * n * horizon
    assert count == pytest.approx(expect, rel=0.1)
    assert set(servers) == set(range(n))


def test_schedule_rejects_non_update_kinds():
    spec = PolicySpec.parse("random")
    with pytest.raises(ValueError):
        next(schedule_updates(spec, ModelParams(2, 0.7), update_draws(0)))


def test_word_draws_take_on_no_other_reader():
    # a WordDraws holds its word source and a waiting half, nothing else:
    # a Generator method cannot be hung on it beside its words
    words = WordDraws(raw_words(np.random.default_rng(0)).__next__)
    with pytest.raises(AttributeError):
        words.exponential = np.random.default_rng(0).exponential

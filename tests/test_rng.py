import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsf.queuesim import _SVC1, QueueNetwork, QueueNetworkConfig
from qsf.rng import RngStream, _PhiloxKey, derive_stream_id
from helpers import HeadStream, ScriptedGenerator, scripted_stream


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       sid=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_same_identity_reproduces_sequence(seed, sid):
    a = RngStream(seed, sid).random_array(64)
    b = RngStream(seed, sid).random_array(64)
    assert np.array_equal(a, b)


def test_scalar_and_array_draws_share_one_stream():
    a = RngStream(3, 5)
    b = RngStream(3, 5)
    mixed = [a.random() for _ in range(5)] + list(a.random_array(7))
    assert np.array_equal(np.array(mixed), b.random_array(12))


@pytest.mark.parametrize("seed,sid", [(3, 5), (2**64 - 1, 12345), (0, 0), (2**64 - 1, 2**64 - 1)])
def test_mixed_requests_read_the_plain_philox_sequence(seed, sid):
    # Scalar and array requests of every size read one sequence: that of
    # Generator(Philox(key=...)) on the same key, down to the extreme keys.
    s = RngStream(seed, sid)
    got = []
    for n in (1, 3, 16, 17, 5, 100, 9000, 2, 30000, 7, 1025, 4):
        got += [s.random() for _ in range(n % 50)]
        got += list(s.random_array(n))
    want = np.random.Generator(np.random.Philox(key=(seed << 64) | sid)).random(len(got))
    assert np.array_equal(np.array(got), want)


def test_philox_key_refuses_other_state_requests():
    with pytest.raises(RuntimeError, match="not the 2 uint64 key words"):
        _PhiloxKey(3, 5).generate_state(4, np.uint32)


def test_exact_zeros_are_skipped_by_scalar_draws():
    values = [0.5, 0.0, 0.25] + [0.0] * 3 + [i / 100 for i in range(1, 100)]
    singles = scripted_stream(values)
    want = [singles.random() for _ in range(40)]
    assert 0.0 not in want and want[:3] == [0.5, 0.25, 0.01]


def test_exact_zeros_in_array_are_skipped():
    # the zero is skipped and the array takes the next value; that top-up
    # read holds a zero too, which is skipped in turn
    s = scripted_stream([0.5, 0.0, 0.25, 0.75, 0.0, 0.125] + [0.3] * 20)
    assert list(s.random_array(4)) == [0.5, 0.25, 0.75, 0.125]
    assert s.random() == 0.3


def scripted_with_zeros(nonzero, zeros_before, head):
    """A stream whose sequence is ``nonzero`` with an exact zero put before
    each of its indices in ``zeros_before``; the first ``head`` values are
    a scripted head, the rest come from its generator."""
    values = list(nonzero)
    for i in sorted(zeros_before, reverse=True):
        values.insert(i, 0.0)
    s = HeadStream(0, values[:head])
    s._gen = ScriptedGenerator(values[head:])
    return s


def lookahead_reader(s, n):
    """``n`` draws through a QueueNetwork lookahead that reads stream ``s``."""
    net = QueueNetwork(QueueNetworkConfig(), RngStream(1))
    net._svc1 = s  # reset() drew only the arrival streams
    ahead = net._ahead[_SVC1]
    return [ahead.pop() if ahead else net._refill(_SVC1) for _ in range(n)]


def test_every_reader_gets_the_same_nonzero_subsequence():
    # zeros among the head's values; the lookahead's first 32-value chunk
    # skips those, and its top-up read holds another zero; zeros open its
    # second chunk and sit on the edge of its second and third chunks
    nonzero = [(i + 1) / 1024 for i in range(700)]
    zeros_before = [2, 2, 30, 32, 95, 96, 96, 224]
    readers = {
        "random": lambda s: [s.random() for _ in range(300)],
        "random_array": lambda s: [v for n in (1, 31, 64, 7, 97, 100) for v in s.random_array(n)],
        "lookahead": lambda s: lookahead_reader(s, 300),
    }
    for name, read in readers.items():
        assert read(scripted_with_zeros(nonzero, zeros_before, head=10)) == nonzero[:300], name


def test_normal_and_gamma_read_the_plain_philox_sequence():
    # uniforms, normals and Gamma variates in turn read one Philox sequence,
    # and each call reads fresh values: two Gamma calls share none
    s = RngStream(5, 9)
    gen = np.random.Generator(np.random.Philox(key=(5 << 64) | 9))
    assert s.random_array(3).tobytes() == gen.random(3).tobytes()
    assert s.normal(7).tobytes() == gen.standard_normal(7).tobytes()
    first = s.gamma(0.7, 500)
    second = s.gamma(0.7, 500)
    assert first.tobytes() + second.tobytes() == gen.standard_gamma(0.7, 1000).tobytes()
    assert not np.intersect1d(first, second).size
    assert s.random() == gen.random()


def test_distinct_stream_ids_decorrelate():
    x = RngStream(11, 0).random_array(20000)
    y = RngStream(11, 1).random_array(20000)
    assert not np.array_equal(x[:50], y[:50])
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.03


def test_open_interval():
    u = RngStream(0).random_array(200000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_child_derivation_is_stable_and_tag_sensitive():
    root = RngStream(99)
    assert root.child("a", 1).stream_id == root.child("a", 1).stream_id
    assert root.child("a", 1).stream_id != root.child("a", 2).stream_id
    assert root.child("a").stream_id != root.child("b").stream_id
    # derivation depends on the parent identity too
    assert RngStream(99, 1).child("a").stream_id != root.child("a").stream_id


def test_derive_stream_id_is_pure():
    assert derive_stream_id(1, 2, ("x",)) == derive_stream_id(1, 2, ("x",))
    assert derive_stream_id(1, 2, ("x",)) != derive_stream_id(2, 2, ("x",))


def test_exponential_mean():
    s = RngStream(123)
    draws = np.array([s.exponential(0.2) for _ in range(100000)])
    assert np.isclose(draws.mean(), 5.0, rtol=0.02)
    assert draws.min() > 0.0

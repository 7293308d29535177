import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsf.rng import RngStream, _PhiloxKey, derive_stream_id


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


class ScriptedGenerator:
    """Stand-in for the Philox generator that hands out fixed values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None, out=None):
        n = size if out is None else len(out)
        vals, self.values = self.values[:n], self.values[n:]
        if out is None:
            return np.array(vals)
        out[:] = vals
        return out


def scripted_stream(values):
    s = RngStream(0)
    s._gen = ScriptedGenerator(values)
    return s


def test_philox_key_refuses_other_state_requests():
    with pytest.raises(RuntimeError, match="not the 2 uint64 key words"):
        _PhiloxKey(3, 5).generate_state(4, np.uint32)


def test_exact_zeros_are_skipped_by_scalar_draws():
    values = [0.5, 0.0, 0.25] + [0.0] * 3 + [i / 100 for i in range(1, 100)]
    singles = scripted_stream(values)
    want = [singles.random() for _ in range(40)]
    assert 0.0 not in want and want[:3] == [0.5, 0.25, 0.01]


def test_exact_zero_in_array_is_replaced_after_the_array():
    arr = scripted_stream([0.5, 0.0, 0.25, 0.75, 0.125] + [0.3] * 20).random_array(4)
    assert list(arr) == [0.5, 0.125, 0.25, 0.75]


READERS = {
    "random": lambda s, n: [s.random() for _ in range(n)],
    "random_array": lambda s, n: s.random_array(n).tolist(),
}


@pytest.mark.parametrize("take,back", [(0, 3), (5, 2), (40, 40), (3000, 1234), (20000, 1)])
def test_unread_puts_raw_values_back_in_order(take, back):
    # The unread tail is read again first, then the sequence carries on. With
    # take = 0 three values go back on a fresh stream, before its generator
    # is built, and are followed by the plain Philox sequence.
    for name, read in READERS.items():
        s, ref = RngStream(21, 4), RngStream(21, 4)
        if take:
            assert s.random() == ref.random()
            head = s.raw(take)
            want = [ref.random() for _ in range(take + 50)]
        else:
            head = np.array([0.75, 0.5, 0.25])
            want = head.tolist() + [ref.random() for _ in range(50)]
        s.unread(head[len(head) - back :])
        assert take or s._gen is None
        s.unread(s.raw(1))  # a put-back in front of what is left of another
        got = head[: len(head) - back].tolist() + read(s, back + 20) + read(s, 30)
        assert got == want, name


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

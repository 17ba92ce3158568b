import dataclasses
import math

import numpy as np
import pytest

from _oracles import bands, bands_reference
from sisq.chain import ModelParams, rates


def test_params_reject_nonpositive_n():
    with pytest.raises(ValueError):
        ModelParams(0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(-3, 1.0)


def test_params_reject_non_integer_n():
    with pytest.raises(ValueError):
        ModelParams(2.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(True, 1.0)


def test_params_reject_bad_rates():
    for lam, gamma in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0),
                       (math.nan, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            ModelParams(5, lam, gamma)


@pytest.mark.parametrize("lam, gamma, r0", [(1e300, 1e-300, "inf"),
                                             (1e-300, 1e300, "0.0"),
                                             (5e-324, 2.0, "0.0")])
def test_params_reject_rate_ratio_outside_doubles(lam, gamma, r0):
    # Both rates are valid doubles; their ratio is not a positive finite one.
    with pytest.raises(ValueError) as info:
        ModelParams(5, lam, gamma)
    assert str(info.value) == (f"R0 = lambda/gamma must be a positive finite double, "
                               f"got {r0} from lambda={lam!r}, gamma={gamma!r}")


def test_params_defaults_and_r0():
    p = ModelParams(10, 3.0)
    assert p.gamma == 1.0
    assert p.r0 == 3.0
    assert ModelParams(10, 3.0, 2.0).r0 == 1.5


def test_params_frozen():
    p = ModelParams(4, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.n = 5


def test_params_accept_numpy_integer():
    p = ModelParams(np.int64(7), 2.0)
    assert p.n == 7 and isinstance(p.n, int)


def test_birth_rate_vanishes_at_both_ends():
    births, _ = rates(ModelParams(8, 2.0, 0.5))
    assert births[0] == 0.0
    assert births[8] == 0.0


def test_birth_rate_hand_value():
    births, _ = rates(ModelParams(2, 1.0, 1.0))
    assert births[1] == 0.5


def test_death_rate_values():
    _, deaths = rates(ModelParams(2, 1.0, 1.0))
    assert deaths == [0.0, 1.0, 2.0]


def test_rate_domain_errors():
    # the lists cover states 0..n and no further
    p = ModelParams(3, 1.0)
    for rate in rates(p):
        assert len(rate) == p.n + 1
        with pytest.raises(IndexError):
            rate[p.n + 1]


def test_rates_nonnegative_everywhere():
    for rate in rates(ModelParams(25, 0.7, 1.3)):
        assert all(type(r) is float and r >= 0.0 for r in rate)


def test_rates_are_fresh_lists():
    # nothing is cached: a caller that edits its lists changes no one else's
    p = ModelParams(5, 1.0)
    births, deaths = rates(p)
    births[1] = deaths[1] = 99.0
    assert rates(p) == ([0.0, 0.8, 1.2, 1.2, 0.8, 0.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])


def test_generator_single_state():
    lower, diag, upper = bands(ModelParams(1, 1.0, 1.0))
    assert diag.tolist() == [-1.0]
    assert upper.size == 0 and lower.size == 0


def test_generator_hand_values_n2():
    lower, diag, upper = bands(ModelParams(2, 1.0, 1.0))
    assert diag.tolist() == [-1.5, -2.0]
    assert upper.tolist() == [0.5]
    assert lower.tolist() == [2.0]


def test_generator_entries_match_rate_functions():
    # the rates, as the spectral route slices them, against the numpy
    # builder they replaced, bit for bit: n = 1, large n, and rates near
    # both ends of the double range, subnormal ones included
    for n in (1, 2, 3, 17, 1000, 10_007):
        for lam, gamma in ((2.3, 0.9), (1 / 3, 0.7), (1.0, 1.0), (2e-300, 1e-300),
                           (1e-300, 1.0), (1.0, 1e-300), (5e200, 1e200),
                           (5e-324, 5e-324)):
            p = ModelParams(n, lam, gamma)
            got, want = bands(p), bands_reference(p)
            for g, w in zip(got, want):
                assert (g.shape, g.tobytes()) == (w.shape, w.tobytes()), (n, lam, gamma)


def test_generator_irreducible_off_diagonals():
    lower, diag, upper = bands(ModelParams(40, 0.3, 2.0))
    assert np.all(upper > 0.0)
    assert np.all(lower > 0.0)
    assert np.all(diag < 0.0)


def test_row_sums_leak_only_from_state_one():
    # rows 2..n cancel exactly; row 1 is -gamma up to one rounding of
    # b_1 + gamma (the two addends are not representable jointly)
    for n, lam, gamma in ((2, 1.0, 1.0), (3, 1.0, 1.0), (7, 0.3, 1.7),
                          (50, 5.0, 1.0), (201, 0.9, 0.4)):
        p = ModelParams(n, lam, gamma)
        lower, diag, upper = bands(p)
        # off-diagonal mass first, then the diagonal, as Q applied to ones
        rs = np.zeros(n)
        rs[1:] += lower
        rs[:-1] += upper
        rs += diag
        assert np.all(rs[1:] == 0.0)
        assert abs(rs[0] + gamma) <= np.spacing(rates(p)[0][1] + gamma)

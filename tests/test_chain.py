import dataclasses
import math

import numpy as np
import pytest

from sisq.chain import (
    ModelParams,
    TransientGenerator,
    birth_rate,
    build_transient_generator,
    death_rate,
)


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
    p = ModelParams(8, 2.0, 0.5)
    assert birth_rate(0, p) == 0.0
    assert birth_rate(8, p) == 0.0


def test_birth_rate_hand_value():
    assert birth_rate(1, ModelParams(2, 1.0, 1.0)) == 0.5


def test_death_rate_values():
    p = ModelParams(2, 1.0, 1.0)
    assert death_rate(0, p) == 0.0
    assert death_rate(1, p) == 1.0
    assert death_rate(2, p) == 2.0


def test_rate_domain_errors():
    p = ModelParams(3, 1.0)
    for i in (-1, 4):
        with pytest.raises(ValueError):
            birth_rate(i, p)
        with pytest.raises(ValueError):
            death_rate(i, p)


def test_rates_nonnegative_everywhere():
    p = ModelParams(25, 0.7, 1.3)
    for i in range(p.n + 1):
        assert birth_rate(i, p) >= 0.0
        assert death_rate(i, p) >= 0.0


def test_generator_single_state():
    g = build_transient_generator(ModelParams(1, 1.0, 1.0))
    assert g.diag.tolist() == [-1.0]
    assert g.upper.size == 0 and g.lower.size == 0


def test_generator_hand_values_n2():
    g = build_transient_generator(ModelParams(2, 1.0, 1.0))
    assert g.diag.tolist() == [-1.5, -2.0]
    assert g.upper.tolist() == [0.5]
    assert g.lower.tolist() == [2.0]


def test_generator_entries_match_rate_functions():
    p = ModelParams(17, 2.3, 0.9)
    g = build_transient_generator(p)
    for k in range(p.n):
        i = k + 1
        assert g.diag[k] == -(birth_rate(i, p) + death_rate(i, p))
        if k < p.n - 1:
            assert g.upper[k] == birth_rate(i, p)
            assert g.lower[k] == death_rate(i + 1, p)


def test_generator_irreducible_off_diagonals():
    g = build_transient_generator(ModelParams(40, 0.3, 2.0))
    assert np.all(g.upper > 0.0)
    assert np.all(g.lower > 0.0)
    assert np.all(g.diag < 0.0)


def test_row_sums_leak_only_from_state_one():
    # rows 2..n cancel exactly; row 1 is -gamma up to one rounding of
    # birth_rate(1) + gamma (the two addends are not representable jointly)
    for n, lam, gamma in ((2, 1.0, 1.0), (3, 1.0, 1.0), (7, 0.3, 1.7),
                          (50, 5.0, 1.0), (201, 0.9, 0.4)):
        p = ModelParams(n, lam, gamma)
        g = build_transient_generator(p)
        # off-diagonal mass first, then the diagonal, as Q applied to ones
        rs = np.zeros(n)
        rs[1:] += g.lower
        rs[:-1] += g.upper
        rs += g.diag
        assert np.all(rs[1:] == 0.0)
        assert abs(rs[0] + gamma) <= np.spacing(birth_rate(1, p) + gamma)


def test_generator_arrays_immutable():
    g = build_transient_generator(ModelParams(5, 1.0))
    for arr in (g.diag, g.upper, g.lower):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 99.0


def test_generator_shape_validation():
    with pytest.raises(ValueError):
        TransientGenerator(n=3, lower=[1.0], diag=[-1.0, -2.0, -3.0], upper=[1.0, 2.0])
    with pytest.raises(ValueError):
        TransientGenerator(n=2, lower=[1.0], diag=[-1.0], upper=[1.0])

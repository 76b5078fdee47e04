"""The package's two number checks: what each accepts, and the one wording of a refusal."""

import math
import re

import numpy as np
import pytest

from siamverify.errors import ConfigError, check_int, check_real

INT64_MAX = 2 ** 63 - 1


def refused(message):
    """``pytest.raises`` for a ``ConfigError`` whose whole message is ``message``."""
    return pytest.raises(ConfigError, match=f"^{re.escape(message)}$")


class TestCheckInt:
    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.uint64(2), np.int8(0),
                                       10 ** 400, 2 ** 63],
                             ids=["zero", "int", "int64", "uint64", "int8", "10**400", "2**63"])
    def test_any_int_at_or_above_low_passes(self, value):
        check_int("n", value, 0)

    @pytest.mark.parametrize("value", [True, False, np.bool_(False), 1.0, np.float64(2.0),
                                       math.nan, "1", None, -1, np.int64(-1)],
                             ids=["True", "False", "np-False", "float", "np-float", "nan",
                                  "string", "None", "negative", "np-negative"])
    def test_bools_non_ints_and_values_below_low_are_refused(self, value):
        with refused(f"n must be an int >= 0, got {value!r}"):
            check_int("n", value, 0)

    def test_high_is_inclusive(self):
        check_int("freeze prefix", 4, 0, 4)
        check_int("freeze prefix", np.uint64(4), 0, 4)
        with refused("freeze prefix must be an int from 0 to 4, got 5"):
            check_int("freeze prefix", 5, 0, 4)

    @pytest.mark.parametrize("value", [2 ** 63, 10 ** 400, np.uint64(2 ** 64 - 1)],
                             ids=["2**63", "10**400", "uint64-max"])
    def test_past_the_int64_bound_is_refused(self, value):
        check_int("px", INT64_MAX, 0, INT64_MAX)
        check_int("px", np.int64(INT64_MAX), 0, INT64_MAX)
        with refused(f"px must be an int from 0 to {INT64_MAX}, got {value!r}"):
            check_int("px", value, 0, INT64_MAX)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.5), np.int64(1), 1e300],
                             ids=["float", "int", "float32", "int64", "1e300"])
    def test_finite_ints_and_floats_pass(self, value):
        check_real("x", value, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                       "1", None, True, np.bool_(True), [0.5], 10 ** 400],
                             ids=["nan", "inf", "-inf", "np-nan", "string", "None", "True",
                                  "np-True", "list", "10**400"])
    def test_non_finite_and_non_numbers_are_refused(self, value):
        with refused(f"x must be a finite number >= 0, got {value!r}"):
            check_real("x", value, 0)

    def test_minus_zero_is_refused_at_an_open_bound_and_passes_a_closed_one(self):
        check_real("x", -0.0, 0)
        with refused("x must be a finite number > 0, got -0.0"):
            check_real("x", -0.0, 0, above=True)

    def test_high_is_inclusive(self):
        check_real("margin", 1.0, 0, 1, above=True)
        check_real("flip_prob", 1, 0, 1)
        with refused("margin must be a finite number in (0, 1], got 1.0000000000000002"):
            check_real("margin", math.nextafter(1.0, 2.0), 0, 1, above=True)
        with refused("flip_prob must be a finite number in [0, 1], got -0.5"):
            check_real("flip_prob", -0.5, 0, 1)

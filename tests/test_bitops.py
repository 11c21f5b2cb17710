import pytest
from hypothesis import given
from hypothesis import strategies as st

from tftlib import bit, bit_reverse, nonzero_criterion, plan_new
from tftlib.bitops import survival_mask


def test_bit_reverse_example():
    assert bit_reverse(11, 5) == 26  # 01011 reversed is 11010


@pytest.mark.parametrize("width", range(0, 12))
def test_bit_reverse_zero(width):
    assert bit_reverse(0, width) == 0


@given(st.integers(min_value=1, max_value=20), st.data())
def test_bit_reverse_involution(width, data):
    j = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    assert bit_reverse(bit_reverse(j, width), width) == j


def test_bit_reverse_range_error():
    with pytest.raises(ValueError):
        bit_reverse(4, 2)
    with pytest.raises(ValueError):
        bit_reverse(-1, 5)


def test_bit_examples():
    assert bit(20, 4) == 1
    assert bit(20, 1) == 0
    assert all(bit(0, i) == 0 for i in range(64))


@pytest.fixture(scope="module")
def plan86(ctx):
    return plan_new(86, ctx)


def test_criterion_worked_rows(plan86):
    # survival into block 4 requires bits at positions log2(16)=4 and log2(4)=2
    assert nonzero_criterion(20, 1, 4, plan86)
    assert not nonzero_criterion(33, 1, 4, plan86)
    # adjacent blocks: vacuous condition
    assert all(nonzero_criterion(e, 1, 2, plan86) for e in range(0, 64, 7))


def test_criterion_survivor_set_n86(plan86):
    # settled by the dense oracle: runs [20,24) u [28,32) u [52,56) u [60,64)
    got = {e for e in range(64) if nonzero_criterion(e, 1, 4, plan86)}
    want = set(range(20, 24)) | set(range(28, 32)) | set(range(52, 56)) | set(range(60, 64))
    assert got == want


def test_criterion_usage_errors(plan86):
    with pytest.raises(ValueError):
        nonzero_criterion(0, 2, 2, plan86)
    with pytest.raises(ValueError):
        nonzero_criterion(0, 3, 1, plan86)
    with pytest.raises(ValueError):
        nonzero_criterion(64, 1, 4, plan86)  # exponent outside block 1


@pytest.mark.parametrize("n", [6, 13, 86, 255, 342, 1023])
def test_survivor_density(ctx, n):
    # exactly n_j * 2**(j - k + 1) exponents of block j survive into block k
    plan = plan_new(n, ctx)
    for j in range(1, plan.s):
        for k in range(j + 1, plan.s + 1):
            count = sum(nonzero_criterion(e, j, k, plan) for e in range(plan.size(j)))
            assert count == plan.size(j) >> (k - 1 - j)


def test_survival_mask_is_the_or_of_the_sizes_between(ctx):
    # the closed form tail(j) - tail(k-1) against the bit-by-bit definition
    for n in list(range(1, 601)) + [4095, 21845, 65535]:
        plan = plan_new(n, ctx)
        for j in range(1, plan.s):
            for k in range(j + 1, plan.s + 1):
                want = 0
                for l in range(j + 1, k):
                    want |= 1 << plan.exp(l)
                assert survival_mask(plan, j, k) == want, (n, j, k)

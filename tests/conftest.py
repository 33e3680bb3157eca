import pytest

from wsh.field import RationalFunctionField
from wsh.operators import OpContext


def mat_mul_oracle(A, B, field):
    """Entrywise product: every multiply-add is a reduced field element.
    The reference for the fraction-free ``linalg.mat_mul``."""
    if A and len(A[0]) != len(B):
        raise ValueError("dimension mismatch")
    nb = len(B[0]) if B else 0
    zero = field.zero
    out = [[zero] * nb for _ in range(len(A))]
    for i, row in enumerate(A):
        oi = out[i]
        for k, a in enumerate(row):
            if a == zero:
                continue
            bk = B[k]
            for j in range(nb):
                b = bk[j]
                if b != zero:
                    oi[j] = oi[j] + a * b
    return out


@pytest.fixture(scope="session")
def field():
    return RationalFunctionField()


@pytest.fixture(scope="session")
def ctx6(field):
    """Shared small truncation context for unit tests."""
    return OpContext(field, 6)


@pytest.fixture(scope="session")
def ctx8(field):
    """Reference truncation context (shared with the acceptance suite)."""
    return OpContext(field, 8)

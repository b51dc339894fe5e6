import functools

import numpy as np
import pytest

import ringlab as rl


@pytest.fixture(scope="session")
def z6():
    return rl.zmod(6)


@pytest.fixture(scope="session")
def z12():
    return rl.zmod(12)


@pytest.fixture(scope="session")
def m2z2():
    return rl.matrix_ring(2, rl.zmod(2))


@pytest.fixture(scope="session")
def m2z3():
    return rl.matrix_ring(2, rl.zmod(3))


# ---------------------------------------------------------------------------
# independent oracles, deliberately written against the raw definitions


def oracle_units(ring):
    """Brute-force pair scan: a is a unit iff some b has a*b == 1."""
    out = set()
    for a in range(ring.card):
        for b in range(ring.card):
            if ring.mul(a, b) == ring.one:
                out.add(a)
                break
    return out


def oracle_nilpotents(ring):
    """Power iteration up to card steps."""
    out = set()
    for a in range(ring.card):
        x = a
        for _ in range(ring.card):
            if x == ring.zero:
                out.add(a)
                break
            x = ring.mul(x, a)
    return out


def oracle_idempotents(ring):
    return {a for a in range(ring.card) if ring.mul(a, a) == a}


def oracle_jacobson_two_sided(ring):
    """{x : 1 - r*x*s is a unit for all r, s}, the two-sided definition."""
    units = oracle_units(ring)
    out = set()
    for x in range(ring.card):
        good = True
        for r in range(ring.card):
            rx = ring.mul(r, x)
            for s in range(ring.card):
                if ring.sub(ring.one, ring.mul(rx, s)) not in units:
                    good = False
                    break
            if not good:
                break
        if good:
            out.add(x)
    return out


def oracle_center(ring):
    return {
        x
        for x in range(ring.card)
        if all(ring.mul(x, r) == ring.mul(r, x) for r in range(ring.card))
    }


def oracle_weakly_nil_clean_elem(ring, a, nil=None):
    nil = oracle_nilpotents(ring) if nil is None else nil
    for e in oracle_idempotents(ring):
        if ring.sub(a, e) in nil or ring.add(a, e) in nil:
            return True
    return False


@functools.lru_cache(maxsize=4)
def oracle_status(ring):
    """Per element "unit", "nil" or "neither", by walking its powers until
    they reach one, reach zero or repeat."""
    out = []
    for a in range(ring.card):
        seen = set()
        x = a
        while x not in seen:
            if x == ring.zero:
                out.append("nil")
                break
            if x == ring.one:
                out.append("unit")
                break
            seen.add(x)
            x = ring.mul(x, a)
        else:
            out.append("neither")
    return tuple(out)


@functools.lru_cache(maxsize=4)
def _sorted_idempotents(ring):
    return sorted(oracle_idempotents(ring))


def oracle_witness(ring, a, kind):
    """The first decomposition of ``a`` of one kind by the scalar search in
    the documented order, idempotents ascending and sign + before -, as
    ``(sign, idempotent, rest, commuting)``; None when there is none."""
    status = oracle_status(ring)
    target = "nil" if "nil" in kind else "unit"
    strongly = kind.startswith("strongly")
    signs = (1, -1) if kind.startswith("weakly") else (1,)
    for e in _sorted_idempotents(ring):
        for sign in signs:
            rest = ring.sub(a, e) if sign == 1 else ring.add(a, e)
            if status[rest] != target:
                continue
            commuting = ring.mul(e, rest) == ring.mul(rest, e)
            if strongly and not commuting:
                continue
            return sign, e, rest, commuting
    return None


_ORACLE_DOMAIN_KIND = {
    "gnc": "nil_clean",
    "gsnc": "strongly_nil_clean",
    "gwnc": "weakly_nil_clean",
}


def oracle_counterexample(ring, flag):
    """Lowest element violating a report flag by its definition, or None."""
    status = oracle_status(ring)

    def decomposes(a, kind):
        return oracle_witness(ring, a, kind) is not None

    def fails(a):
        if flag.startswith("strongly_weakly_"):
            kind = "strongly_" + flag[len("strongly_weakly_"):]
            return not decomposes(a, kind) and not decomposes(ring.neg(a), kind)
        if flag in _ORACLE_DOMAIN_KIND:
            return status[a] != "unit" and not decomposes(a, _ORACLE_DOMAIN_KIND[flag])
        if flag == "uwnc":
            return status[a] == "unit" and not decomposes(a, "weakly_nil_clean")
        if flag == "uu":
            return status[a] == "unit" and status[ring.sub(a, ring.one)] != "nil"
        if flag == "wuu":
            near_one = "nil" in (status[ring.sub(a, ring.one)], status[ring.add(a, ring.one)])
            return (status[a] == "unit") != near_one
        return not decomposes(a, flag)

    return next((a for a in range(ring.card) if fails(a)), None)


def mat_of(index, k, n):
    """Decode a matrix-ring index over Z(n), row-major most significant first."""
    digits = []
    for _ in range(k * k):
        index, d = divmod(index, n)
        digits.append(d)
    digits.reverse()
    return [digits[i * k : (i + 1) * k] for i in range(k)]


def index_of(mat, k, n):
    acc = 0
    for i in range(k):
        for j in range(k):
            acc = acc * n + (mat[i][j] % n)
    return acc


def mat_mul_mod(A, B, k, n):
    return [
        [sum(A[i][l] * B[l][j] for l in range(k)) % n for j in range(k)]
        for i in range(k)
    ]


def mat_add_mod(A, B, k, n):
    return [[(A[i][j] + B[i][j]) % n for j in range(k)] for i in range(k)]


def flags_of(ring):
    return rl.classify(ring).flags

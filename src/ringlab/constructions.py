"""Builders for the finite ring families under study.

Every construction fixes a canonical element enumeration so that element
literals are stable across runs:

* ``Zmod(n)``             index = residue.
* ``MatrixRing(k, R)``    mixed radix base ``|R|`` over the ``k*k`` entries in
                          row-major order, entry (0,0) most significant.
* ``PatternRing(P, R)``   one digit per equality class of the pattern, in the
                          pattern's class order, first class most significant;
                          upper-triangular rings are the all-singleton pattern.
* ``DirectProduct(R, S)`` index = idx_R * |S| + idx_S.
* ``TrivialExtension(R)`` pairs (r, m), index = idx(r) * |R| + idx(m).
* ``PolyQuotient(R, f)``  residues modulo monic ``f``, little-endian by
                          ascending degree: index = sum c_i * |R|**i.
* ``FormalMatrixRing``    same layout as ``MatrixRing``.
* ``GroupRing(R, G)``     coefficient functions G -> R, little-endian over the
                          fixed group enumeration with g0 the identity.
* ``QuotientRing(R, I)``  cosets enumerated by smallest member index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConstructionError,
    Ring,
    Subset,
    _as_index_array,
    _pair,
    check_guard,
    ring_is_commutative,
)

# ---------------------------------------------------------------------------
# digit codecs


def decode_digits(xs, base_card: int, ndigits: int) -> np.ndarray:
    """Split indices into ``ndigits`` base-``base_card`` digits, most significant first."""
    xs = _as_index_array(xs)
    out = np.empty((len(xs), ndigits), dtype=np.int64)
    rem = xs.copy()
    for pos in range(ndigits - 1, -1, -1):
        rem, out[:, pos] = np.divmod(rem, base_card)
    return out

def encode_digits(digits, base_card: int) -> np.ndarray:
    digits = np.asarray(digits, dtype=np.int64)
    acc = np.zeros(digits.shape[:-1], dtype=np.int64)
    for pos in range(digits.shape[-1]):
        acc = acc * base_card + digits[..., pos]
    return acc


def decode_digits_le(xs, base_card: int, ndigits: int) -> np.ndarray:
    """Little-endian variant: digit i is the coefficient of weight ``base_card**i``."""
    xs = _as_index_array(xs)
    out = np.empty((len(xs), ndigits), dtype=np.int64)
    rem = xs.copy()
    for pos in range(ndigits):
        rem, out[:, pos] = np.divmod(rem, base_card)
    return out


def encode_digits_le(digits, base_card: int) -> np.ndarray:
    digits = np.asarray(digits, dtype=np.int64)
    acc = np.zeros(digits.shape[:-1], dtype=np.int64)
    for pos in range(digits.shape[-1] - 1, -1, -1):
        acc = acc * base_card + digits[..., pos]
    return acc


def _scalar_digits(a: int, base_card: int, ndigits: int) -> list[int]:
    out = [0] * ndigits
    for pos in range(ndigits - 1, -1, -1):
        a, out[pos] = divmod(a, base_card)
    return out


def _scalar_encode(digits, base_card: int) -> int:
    acc = 0
    for d in digits:
        acc = acc * base_card + d
    return acc


# ---------------------------------------------------------------------------
# integers modulo n


class Zmod(Ring):
    """Integers modulo ``n``; the index of an element is its residue."""

    def __init__(self, n: int, max_card: int | None = None) -> None:
        if n < 2:
            raise ConstructionError(f"modulus must be >= 2, got {n}")
        self.card = check_guard(n, max_card)
        self.zero = 0
        self.one = 1
        self.label = f"Z({n})"

    def add(self, a: int, b: int) -> int:
        return (self._check(a) + self._check(b)) % self.card

    def neg(self, a: int) -> int:
        return -self._check(a) % self.card

    def mul(self, a: int, b: int) -> int:
        return (self._check(a) * self._check(b)) % self.card

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return (xs + ys) % self.card

    def neg_vec(self, xs) -> np.ndarray:
        return (-_as_index_array(xs)) % self.card

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return (xs * ys) % self.card


def zmod(n: int, max_card: int | None = None) -> Zmod:
    return Zmod(n, max_card=max_card)


# ---------------------------------------------------------------------------
# matrix rings


class MatrixRing(Ring):
    """Full ``k x k`` matrix ring over a base ring."""

    def __init__(self, k: int, base: Ring, max_card: int | None = None) -> None:
        if k < 1:
            raise ConstructionError(f"matrix size must be >= 1, got {k}")
        self.k = k
        self.base = base
        self.card = check_guard(base.card ** (k * k), max_card)
        self.zero = _scalar_encode(
            [base.zero] * (k * k), base.card
        )
        eye = [base.one if i == j else base.zero for i in range(k) for j in range(k)]
        self.one = _scalar_encode(eye, base.card)
        self.label = f"M({k},{base.label})"

    # scalar path works on k x k nested lists of base indices
    def _mat(self, a: int) -> list[list[int]]:
        flat = _scalar_digits(self._check(a), self.base.card, self.k * self.k)
        return [flat[i * self.k : (i + 1) * self.k] for i in range(self.k)]

    def _enc(self, mat) -> int:
        return _scalar_encode([mat[i][j] for i in range(self.k) for j in range(self.k)], self.base.card)

    def add(self, a: int, b: int) -> int:
        A, B = self._mat(a), self._mat(b)
        R = self.base
        return self._enc([[R.add(A[i][j], B[i][j]) for j in range(self.k)] for i in range(self.k)])

    def neg(self, a: int) -> int:
        A = self._mat(a)
        R = self.base
        return self._enc([[R.neg(A[i][j]) for j in range(self.k)] for i in range(self.k)])

    def mul(self, a: int, b: int) -> int:
        A, B = self._mat(a), self._mat(b)
        R = self.base
        k = self.k
        out = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                acc = R.mul(A[i][0], B[0][j])
                for l in range(1, k):
                    acc = R.add(acc, R.mul(A[i][l], B[l][j]))
                out[i][j] = acc
        return self._enc(out)

    def _mats(self, xs) -> np.ndarray:
        xs = _as_index_array(xs)
        return decode_digits(xs, self.base.card, self.k * self.k).reshape(len(xs), self.k, self.k)

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        A, B = self._mats(xs), self._mats(ys)
        out = np.empty_like(A)
        for i in range(self.k):
            for j in range(self.k):
                out[:, i, j] = self.base.add_vec(A[:, i, j], B[:, i, j])
        return encode_digits(out.reshape(len(xs), -1), self.base.card)

    def neg_vec(self, xs) -> np.ndarray:
        xs = _as_index_array(xs)
        A = self._mats(xs)
        out = np.empty_like(A)
        for i in range(self.k):
            for j in range(self.k):
                out[:, i, j] = self.base.neg_vec(A[:, i, j])
        return encode_digits(out.reshape(len(xs), -1), self.base.card)

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        A, B = self._mats(xs), self._mats(ys)
        R = self.base
        out = np.empty_like(A)
        for i in range(self.k):
            for j in range(self.k):
                acc = R.mul_vec(A[:, i, 0], B[:, 0, j])
                for l in range(1, self.k):
                    acc = R.add_vec(acc, R.mul_vec(A[:, i, l], B[:, l, j]))
                out[:, i, j] = acc
        return encode_digits(out.reshape(len(xs), -1), self.base.card)

    def format_element(self, a: int) -> str:
        A = self._mat(a)
        rows = ["[" + ", ".join(self.base.format_element(x) for x in row) + "]" for row in A]
        return "[" + ", ".join(rows) + "]"


def matrix_ring(k: int, base: Ring, max_card: int | None = None) -> MatrixRing:
    return MatrixRing(k, base, max_card=max_card)


# ---------------------------------------------------------------------------
# pattern subrings of upper-triangular matrices


@dataclass(frozen=True)
class Pattern:
    """A ``size x size`` upper-triangular frame with equality classes.

    ``classes`` lists the free coordinates grouped by forced equality; the
    class order fixes the digit order of the element encoding.  Upper
    coordinates not covered by any class are forced to zero.
    """

    size: int
    classes: tuple[tuple[tuple[int, int], ...], ...]
    name: str

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        diagonal_covered: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ConstructionError(f"pattern {self.name}: empty class")
            has_diag = any(i == j for i, j in cls)
            for i, j in cls:
                if not (0 <= i <= j < self.size):
                    raise ConstructionError(
                        f"pattern {self.name}: coordinate ({i},{j}) outside the upper triangle"
                    )
                if (i, j) in seen:
                    raise ConstructionError(
                        f"pattern {self.name}: coordinate ({i},{j}) in two classes"
                    )
                seen.add((i, j))
                if has_diag and i != j:
                    raise ConstructionError(
                        f"pattern {self.name}: class mixes diagonal and off-diagonal coordinates"
                    )
                if i == j:
                    diagonal_covered.add(i)
        if diagonal_covered != set(range(self.size)):
            raise ConstructionError(
                f"pattern {self.name}: every diagonal coordinate needs a class"
            )

    @property
    def zero_forced(self) -> tuple[tuple[int, int], ...]:
        covered = {c for cls in self.classes for c in cls}
        return tuple(
            (i, j)
            for i in range(self.size)
            for j in range(i, self.size)
            if (i, j) not in covered
        )


def upper_triangular_pattern(k: int) -> Pattern:
    classes = tuple(((i, j),) for i in range(k) for j in range(i, k))
    return Pattern(k, classes, f"T({k})")


def s_pattern(n: int) -> Pattern:
    """Constant diagonal, all strictly upper coordinates free."""
    if n < 2:
        raise ConstructionError(f"S(n) needs n >= 2, got {n}")
    diag = tuple((i, i) for i in range(n))
    uppers = tuple(((i, j),) for i in range(n) for j in range(i + 1, n))
    return Pattern(n, (diag,) + uppers, f"S({n})")


def s_nm_pattern(n: int, m: int) -> Pattern:
    """Toeplitz n-block, free corner block, Toeplitz m-block, shared diagonal."""
    if n < 2 or m < 2:
        raise ConstructionError(f"S(n,m) needs n,m >= 2, got ({n},{m})")
    k = n + m - 1
    classes: list[tuple[tuple[int, int], ...]] = [tuple((i, i) for i in range(k))]
    for t in range(1, n):
        classes.append(tuple((i, i + t) for i in range(n - t)))
    for i in range(n - 1):
        for j in range(n, k):
            classes.append(((i, j),))
    for t in range(1, m):
        classes.append(tuple((i, i + t) for i in range(n - 1, k - t)))
    return Pattern(k, tuple(classes), f"S({n},{m})")


def t_nm_pattern(n: int, m: int) -> Pattern:
    """Two independent Toeplitz blocks sharing one diagonal value."""
    if n < 2 or m < 2:
        raise ConstructionError(f"Tb(n,m) needs n,m >= 2, got ({n},{m})")
    k = n + m
    classes: list[tuple[tuple[int, int], ...]] = [tuple((i, i) for i in range(k))]
    for t in range(1, n):
        classes.append(tuple((i, i + t) for i in range(n - t)))
    for t in range(1, m):
        classes.append(tuple((n + i, n + i + t) for i in range(m - t)))
    return Pattern(k, tuple(classes), f"Tb({n},{m})")


def u_pattern(n: int) -> Pattern:
    """Alternating-row Toeplitz frame: rows of even index share b's, odd share c's."""
    if n < 2:
        raise ConstructionError(f"U(n) needs n >= 2, got {n}")
    classes: list[tuple[tuple[int, int], ...]] = [tuple((i, i) for i in range(n))]
    for t in range(1, n):
        evens = tuple((i, i + t) for i in range(0, n - t, 2))
        odds = tuple((i, i + t) for i in range(1, n - t, 2))
        if evens:
            classes.append(evens)
        if odds:
            classes.append(odds)
    return Pattern(n, tuple(classes), f"U({n})")


def double_extension_pattern() -> Pattern:
    """The 4x4 frame realising a twice-iterated trivial extension."""
    diag = tuple((i, i) for i in range(4))
    return Pattern(4, (diag, ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3),)), "DT")


_BUILTIN_PATTERNS = {
    "S": (s_pattern, s_nm_pattern),
    "Tb": (None, t_nm_pattern),
    "U": (u_pattern, None),
}


def builtin_pattern(name: str, args: tuple[int, ...]) -> Pattern:
    """Resolve a built-in pattern name such as S(2), S(2,2), Tb(2,2), U(3)."""
    if name not in _BUILTIN_PATTERNS:
        raise ConstructionError(f"unknown pattern family {name!r}")
    one_arg, two_arg = _BUILTIN_PATTERNS[name]
    if len(args) == 1 and one_arg is not None:
        return one_arg(args[0])
    if len(args) == 2 and two_arg is not None:
        return two_arg(args[0], args[1])
    raise ConstructionError(f"pattern {name} does not take {len(args)} argument(s)")


_EXHAUSTIVE_CLOSURE_LIMIT = 4_000_000  # pairs


class PatternRing(Ring):
    """Subring of the upper-triangular matrices cut out by a pattern.

    Multiplicative closure is validated at construction: products of all
    class-impulse elements must land back in the pattern (complete by
    bilinearity since the pattern is additively closed), and small rings
    additionally get the full pairwise product scan.
    """

    def __init__(
        self,
        pattern: Pattern,
        base: Ring,
        label: str | None = None,
        max_card: int | None = None,
    ) -> None:
        self.pattern = pattern
        self.base = base
        self.k = pattern.size
        self.nclasses = len(pattern.classes)
        self.card = check_guard(base.card**self.nclasses, max_card)
        self.zero = 0
        one_digits = [
            base.one if pattern.classes[c][0][0] == pattern.classes[c][0][1] else base.zero
            for c in range(self.nclasses)
        ]
        self.one = _scalar_encode(one_digits, base.card)
        self.label = label if label is not None else f"PAT({pattern.name},{base.label})"
        self._reps = [cls[0] for cls in pattern.classes]
        self._verify_closure()

    # -- matrix expansion ----------------------------------------------------
    def _mats(self, xs) -> np.ndarray:
        xs = _as_index_array(xs)
        digits = decode_digits(xs, self.base.card, self.nclasses)
        mats = np.full((len(xs), self.k, self.k), self.base.zero, dtype=np.int64)
        for c, cls in enumerate(self.pattern.classes):
            for (i, j) in cls:
                mats[:, i, j] = digits[:, c]
        return mats

    def _mat(self, a: int) -> list[list[int]]:
        digits = _scalar_digits(self._check(a), self.base.card, self.nclasses)
        mat = [[self.base.zero] * self.k for _ in range(self.k)]
        for c, cls in enumerate(self.pattern.classes):
            for (i, j) in cls:
                mat[i][j] = digits[c]
        return mat

    def _read(self, mats: np.ndarray) -> np.ndarray:
        digits = np.empty((mats.shape[0], self.nclasses), dtype=np.int64)
        for c, (i, j) in enumerate(self._reps):
            digits[:, c] = mats[:, i, j]
        return encode_digits(digits, self.base.card)

    # -- scalar ops ------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        da = _scalar_digits(self._check(a), self.base.card, self.nclasses)
        db = _scalar_digits(self._check(b), self.base.card, self.nclasses)
        return _scalar_encode(
            [self.base.add(x, y) for x, y in zip(da, db)], self.base.card
        )

    def neg(self, a: int) -> int:
        da = _scalar_digits(self._check(a), self.base.card, self.nclasses)
        return _scalar_encode([self.base.neg(x) for x in da], self.base.card)

    def mul(self, a: int, b: int) -> int:
        A, B = self._mat(a), self._mat(b)
        R = self.base
        out = []
        for (i, j) in self._reps:
            acc = R.mul(A[i][0], B[0][j])
            for l in range(1, self.k):
                acc = R.add(acc, R.mul(A[i][l], B[l][j]))
            out.append(acc)
        return _scalar_encode(out, self.base.card)

    # -- vector ops --------------------------------------------------------------
    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        da = decode_digits(xs, self.base.card, self.nclasses)
        db = decode_digits(ys, self.base.card, self.nclasses)
        out = np.empty_like(da)
        for c in range(self.nclasses):
            out[:, c] = self.base.add_vec(da[:, c], db[:, c])
        return encode_digits(out, self.base.card)

    def neg_vec(self, xs) -> np.ndarray:
        da = decode_digits(_as_index_array(xs), self.base.card, self.nclasses)
        out = np.empty_like(da)
        for c in range(self.nclasses):
            out[:, c] = self.base.neg_vec(da[:, c])
        return encode_digits(out, self.base.card)

    def _matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        R = self.base
        out = np.full_like(A, R.zero)
        for i in range(self.k):
            for j in range(i, self.k):
                acc = R.mul_vec(A[:, i, i], B[:, i, j])
                for l in range(i + 1, j + 1):
                    acc = R.add_vec(acc, R.mul_vec(A[:, i, l], B[:, l, j]))
                out[:, i, j] = acc
        return out

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return self._read(self._matmul(self._mats(xs), self._mats(ys)))

    # -- closure -------------------------------------------------------------
    def _in_pattern(self, mats: np.ndarray) -> np.ndarray:
        ok = np.ones(mats.shape[0], dtype=bool)
        for cls in self.pattern.classes:
            i0, j0 = cls[0]
            for (i, j) in cls[1:]:
                ok &= mats[:, i, j] == mats[:, i0, j0]
        for (i, j) in self.pattern.zero_forced:
            ok &= mats[:, i, j] == self.base.zero
        return ok

    def _verify_closure(self) -> None:
        B = self.base.card
        # impulse elements: one class set to each base element in turn
        impulses = []
        for c in range(self.nclasses):
            weight = B ** (self.nclasses - 1 - c)
            impulses.extend(x * weight for x in range(B))
        imp = np.array(impulses, dtype=np.int64)
        left = np.repeat(imp, len(imp))
        right = np.tile(imp, len(imp))
        prods = self._matmul(self._mats(left), self._mats(right))
        ok = self._in_pattern(prods)
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            a, b = int(left[bad]), int(right[bad])
            raise ConstructionError(
                f"pattern {self.pattern.name} over {self.base.label} is not "
                f"multiplicatively closed: witness pair ({a}, {b})"
            )
        if self.card * self.card <= _EXHAUSTIVE_CLOSURE_LIMIT:
            ar = np.arange(self.card, dtype=np.int64)
            for a in range(self.card):
                prods = self._matmul(self._mats(np.full_like(ar, a)), self._mats(ar))
                ok = self._in_pattern(prods)
                if not ok.all():
                    b = int(np.flatnonzero(~ok)[0])
                    raise ConstructionError(
                        f"pattern {self.pattern.name} over {self.base.label} is not "
                        f"multiplicatively closed: witness pair ({a}, {b})"
                    )

    def format_element(self, a: int) -> str:
        A = self._mat(a)
        rows = ["[" + ", ".join(self.base.format_element(x) for x in row) + "]" for row in A]
        return "[" + ", ".join(rows) + "]"


def pattern_subring(pattern: Pattern, base: Ring, max_card: int | None = None) -> PatternRing:
    return PatternRing(pattern, base, max_card=max_card)


def upper_triangular(k: int, base: Ring, max_card: int | None = None) -> PatternRing:
    if k < 1:
        raise ConstructionError(f"matrix size must be >= 1, got {k}")
    return PatternRing(
        upper_triangular_pattern(k), base, label=f"T({k},{base.label})", max_card=max_card
    )


# ---------------------------------------------------------------------------
# direct products


class DirectProduct(Ring):
    """Componentwise product of two rings."""

    def __init__(self, left: Ring, right: Ring, max_card: int | None = None) -> None:
        self.left = left
        self.right = right
        self.card = check_guard(left.card * right.card, max_card)
        self.zero = left.zero * right.card + right.zero
        self.one = left.one * right.card + right.one
        self.label = f"({left.label} x {right.label})"

    def _split(self, a: int) -> tuple[int, int]:
        return divmod(self._check(a), self.right.card)

    def add(self, a: int, b: int) -> int:
        la, ra = self._split(a)
        lb, rb = self._split(b)
        return self.left.add(la, lb) * self.right.card + self.right.add(ra, rb)

    def neg(self, a: int) -> int:
        la, ra = self._split(a)
        return self.left.neg(la) * self.right.card + self.right.neg(ra)

    def mul(self, a: int, b: int) -> int:
        la, ra = self._split(a)
        lb, rb = self._split(b)
        return self.left.mul(la, lb) * self.right.card + self.right.mul(ra, rb)

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        lx, rx = np.divmod(xs, self.right.card)
        ly, ry = np.divmod(ys, self.right.card)
        return self.left.add_vec(lx, ly) * self.right.card + self.right.add_vec(rx, ry)

    def neg_vec(self, xs) -> np.ndarray:
        lx, rx = np.divmod(_as_index_array(xs), self.right.card)
        return self.left.neg_vec(lx) * self.right.card + self.right.neg_vec(rx)

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        lx, rx = np.divmod(xs, self.right.card)
        ly, ry = np.divmod(ys, self.right.card)
        return self.left.mul_vec(lx, ly) * self.right.card + self.right.mul_vec(rx, ry)

    def format_element(self, a: int) -> str:
        la, ra = self._split(a)
        return f"({self.left.format_element(la)}, {self.right.format_element(ra)})"


def direct_product(left: Ring, right: Ring, max_card: int | None = None) -> DirectProduct:
    return DirectProduct(left, right, max_card=max_card)


# ---------------------------------------------------------------------------
# trivial extension


class TrivialExtension(Ring):
    """Pairs (r, m) over one ring with (r,m)(s,n) = (rs, rn + ms)."""

    def __init__(self, base: Ring, max_card: int | None = None) -> None:
        self.base = base
        self.card = check_guard(base.card * base.card, max_card)
        self.zero = base.zero * base.card + base.zero
        self.one = base.one * base.card + base.zero
        self.label = f"TE({base.label})"

    def _split(self, a: int) -> tuple[int, int]:
        return divmod(self._check(a), self.base.card)

    def add(self, a: int, b: int) -> int:
        ra, ma = self._split(a)
        rb, mb = self._split(b)
        return self.base.add(ra, rb) * self.base.card + self.base.add(ma, mb)

    def neg(self, a: int) -> int:
        ra, ma = self._split(a)
        return self.base.neg(ra) * self.base.card + self.base.neg(ma)

    def mul(self, a: int, b: int) -> int:
        ra, ma = self._split(a)
        rb, mb = self._split(b)
        r = self.base.mul(ra, rb)
        m = self.base.add(self.base.mul(ra, mb), self.base.mul(ma, rb))
        return r * self.base.card + m

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        rx, mx = np.divmod(xs, self.base.card)
        ry, my = np.divmod(ys, self.base.card)
        return self.base.add_vec(rx, ry) * self.base.card + self.base.add_vec(mx, my)

    def neg_vec(self, xs) -> np.ndarray:
        rx, mx = np.divmod(_as_index_array(xs), self.base.card)
        return self.base.neg_vec(rx) * self.base.card + self.base.neg_vec(mx)

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        rx, mx = np.divmod(xs, self.base.card)
        ry, my = np.divmod(ys, self.base.card)
        r = self.base.mul_vec(rx, ry)
        m = self.base.add_vec(self.base.mul_vec(rx, my), self.base.mul_vec(mx, ry))
        return r * self.base.card + m

    def format_element(self, a: int) -> str:
        ra, ma = self._split(a)
        return f"({self.base.format_element(ra)}, {self.base.format_element(ma)})"


def trivial_extension(base: Ring, max_card: int | None = None) -> TrivialExtension:
    return TrivialExtension(base, max_card=max_card)


# ---------------------------------------------------------------------------
# polynomial quotients and finite fields


class PolyQuotient(Ring):
    """Residues of ``R[x]`` modulo a monic polynomial over a commutative base."""

    def __init__(
        self,
        base: Ring,
        modulus,
        label: str | None = None,
        max_card: int | None = None,
    ) -> None:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) < 2:
            raise ConstructionError("modulus must have degree >= 1")
        if not all(0 <= c < base.card for c in modulus):
            raise ConstructionError(f"modulus coefficients must be elements of {base.label}")
        if modulus[-1] != base.one:
            raise ConstructionError(
                f"modulus must be monic (last coefficient {modulus[-1]} != one)"
            )
        if not ring_is_commutative(base):
            raise ConstructionError(f"base ring {base.label} is not commutative")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.card = check_guard(base.card**self.degree, max_card)
        self.zero = 0
        self.one = base.one  # constant-term digit is least significant
        poly = "[" + ",".join(str(c) for c in modulus) + "]"
        self.label = label if label is not None else f"PQ({base.label},{poly})"
        # x**degree == sum_i reduction[i] * x**i
        self._reduction = [base.neg(c) for c in modulus[:-1]]

    def _coeffs(self, a: int) -> list[int]:
        out = []
        a = self._check(a)
        for _ in range(self.degree):
            a, c = divmod(a, self.base.card)
            out.append(c)
        return out

    def _enc(self, coeffs) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * self.base.card + c
        return acc

    def add(self, a: int, b: int) -> int:
        ca, cb = self._coeffs(a), self._coeffs(b)
        return self._enc([self.base.add(x, y) for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        return self._enc([self.base.neg(x) for x in self._coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        R = self.base
        d = self.degree
        ca, cb = self._coeffs(a), self._coeffs(b)
        conv = [R.zero] * (2 * d - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                conv[i + j] = R.add(conv[i + j], R.mul(x, y))
        for t in range(2 * d - 2, d - 1, -1):
            lead = conv[t]
            if lead != R.zero:
                for i in range(d):
                    conv[t - d + i] = R.add(conv[t - d + i], R.mul(lead, self._reduction[i]))
        return self._enc(conv[:d])

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        ca = decode_digits_le(xs, self.base.card, self.degree)
        cb = decode_digits_le(ys, self.base.card, self.degree)
        out = np.empty_like(ca)
        for i in range(self.degree):
            out[:, i] = self.base.add_vec(ca[:, i], cb[:, i])
        return encode_digits_le(out, self.base.card)

    def neg_vec(self, xs) -> np.ndarray:
        ca = decode_digits_le(_as_index_array(xs), self.base.card, self.degree)
        out = np.empty_like(ca)
        for i in range(self.degree):
            out[:, i] = self.base.neg_vec(ca[:, i])
        return encode_digits_le(out, self.base.card)

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        R = self.base
        d = self.degree
        ca = decode_digits_le(xs, R.card, d)
        cb = decode_digits_le(ys, R.card, d)
        conv = [np.full(len(xs), R.zero, dtype=np.int64) for _ in range(2 * d - 1)]
        for i in range(d):
            for j in range(d):
                conv[i + j] = R.add_vec(conv[i + j], R.mul_vec(ca[:, i], cb[:, j]))
        for t in range(2 * d - 2, d - 1, -1):
            lead = conv[t]
            for i in range(d):
                conv[t - d + i] = R.add_vec(
                    conv[t - d + i], R.mul_vec(lead, self._reduction[i])
                )
        out = np.stack(conv[:d], axis=1)
        return encode_digits_le(out, self.base.card)

    def format_element(self, a: int) -> str:
        coeffs = self._coeffs(a)
        terms = []
        for i, c in enumerate(coeffs):
            if c == self.base.zero:
                continue
            cs = self.base.format_element(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*x" if c != self.base.one else "x")
            else:
                terms.append(f"{cs}*x^{i}" if c != self.base.one else f"x^{i}")
        return " + ".join(terms) if terms else self.base.format_element(self.base.zero)


def poly_quot(base: Ring, modulus, max_card: int | None = None) -> PolyQuotient:
    return PolyQuotient(base, modulus, max_card=max_card)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_divides(div: list[int], poly: list[int], p: int) -> bool:
    rem = list(poly)
    dd = len(div) - 1
    inv_lead = pow(div[-1], p - 2, p)
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        factor = rem[-1] * inv_lead % p
        shift = len(rem) - 1 - dd
        for i, c in enumerate(div):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return not any(rem)


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    deg = len(coeffs) - 1
    for ddeg in range(1, deg // 2 + 1):
        for t in range(p**ddeg):
            # little-endian monic divisor: constant term first, leading 1
            div = _scalar_digits(t, p, ddeg)[::-1] + [1]
            if _poly_divides(div, coeffs, p):
                return False
    return True


def gf(p: int, k: int, max_card: int | None = None) -> PolyQuotient:
    """Field of order ``p**k`` as the quotient by the lexicographically
    smallest monic irreducible of degree ``k`` over ``Z(p)``."""
    if not _is_prime(p):
        raise ConstructionError(f"{p} is not prime")
    if not 1 <= k <= 4:
        raise ConstructionError(f"extension degree must be in 1..4, got {k}")
    card = check_guard(p**k, max_card)
    base = Zmod(p)
    modulus = None
    for t in range(card):
        low = [(t // p**i) % p for i in range(k)]
        coeffs = low + [1]
        if _is_irreducible(coeffs, p):
            modulus = coeffs
            break
    if modulus is None:  # cannot happen: irreducibles exist in every degree
        raise ConstructionError(f"no irreducible of degree {k} over Z({p})")
    return PolyQuotient(base, modulus, label=f"GF({p},{k})", max_card=max_card)


# ---------------------------------------------------------------------------
# formal matrix rings twisted by a central element


class FormalMatrixRing(Ring):
    """Matrix-shaped ring with products twisted by powers of a central ``s``.

    The (i,j) entry of a product is ``sum_k s**e(i,k,j) * a_ik * b_kj`` where
    ``e(i,k,j) = 1 + [i==j] - [i==k] - [k==j]``; the exponents lie in
    {0, 1, 2} and ``s = one`` recovers the ordinary matrix ring.
    """

    def __init__(self, n: int, s: int, base: Ring, max_card: int | None = None) -> None:
        if n < 2:
            raise ConstructionError(f"formal matrix size must be >= 2, got {n}")
        base._check(s)
        ar = np.arange(base.card, dtype=np.int64)
        if not np.array_equal(base.mul_vec(s, ar), base.mul_vec(ar, s)):
            raise ConstructionError(
                f"element {s} is not central in {base.label}"
            )
        self.n = n
        self.s = s
        self.base = base
        self.card = check_guard(base.card ** (n * n), max_card)
        self.zero = 0
        eye = [base.one if i == j else base.zero for i in range(n) for j in range(n)]
        self.one = _scalar_encode(eye, base.card)
        self.label = f"FM({n},{s},{base.label})"
        self._spow = [base.one, s, base.mul(s, s)]
        self._expo = [
            [
                [1 + (i == j) - (i == k) - (k == j) for j in range(n)]
                for k in range(n)
            ]
            for i in range(n)
        ]

    def _mat(self, a: int) -> list[list[int]]:
        flat = _scalar_digits(self._check(a), self.base.card, self.n * self.n)
        return [flat[i * self.n : (i + 1) * self.n] for i in range(self.n)]

    def _enc(self, mat) -> int:
        return _scalar_encode(
            [mat[i][j] for i in range(self.n) for j in range(self.n)], self.base.card
        )

    def add(self, a: int, b: int) -> int:
        A, B = self._mat(a), self._mat(b)
        R = self.base
        return self._enc(
            [[R.add(A[i][j], B[i][j]) for j in range(self.n)] for i in range(self.n)]
        )

    def neg(self, a: int) -> int:
        A = self._mat(a)
        R = self.base
        return self._enc([[R.neg(A[i][j]) for j in range(self.n)] for i in range(self.n)])

    def mul(self, a: int, b: int) -> int:
        A, B = self._mat(a), self._mat(b)
        R = self.base
        n = self.n
        out = [[R.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = R.zero
                for k in range(n):
                    term = R.mul(self._spow[self._expo[i][k][j]], R.mul(A[i][k], B[k][j]))
                    acc = R.add(acc, term)
                out[i][j] = acc
        return self._enc(out)

    def _mats(self, xs) -> np.ndarray:
        xs = _as_index_array(xs)
        return decode_digits(xs, self.base.card, self.n * self.n).reshape(
            len(xs), self.n, self.n
        )

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        A, B = self._mats(xs), self._mats(ys)
        out = np.empty_like(A)
        for i in range(self.n):
            for j in range(self.n):
                out[:, i, j] = self.base.add_vec(A[:, i, j], B[:, i, j])
        return encode_digits(out.reshape(len(xs), -1), self.base.card)

    def neg_vec(self, xs) -> np.ndarray:
        xs = _as_index_array(xs)
        A = self._mats(xs)
        out = np.empty_like(A)
        for i in range(self.n):
            for j in range(self.n):
                out[:, i, j] = self.base.neg_vec(A[:, i, j])
        return encode_digits(out.reshape(len(xs), -1), self.base.card)

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        A, B = self._mats(xs), self._mats(ys)
        R = self.base
        out = np.empty_like(A)
        for i in range(self.n):
            for j in range(self.n):
                acc = np.full(len(xs), R.zero, dtype=np.int64)
                for k in range(self.n):
                    term = R.mul_vec(A[:, i, k], B[:, k, j])
                    e = self._expo[i][k][j]
                    if e:
                        term = R.mul_vec(self._spow[e], term)
                    acc = R.add_vec(acc, term)
                out[:, i, j] = acc
        return encode_digits(out.reshape(len(xs), -1), self.base.card)

    def format_element(self, a: int) -> str:
        A = self._mat(a)
        rows = ["[" + ", ".join(self.base.format_element(x) for x in row) + "]" for row in A]
        return "[" + ", ".join(rows) + "]"


def formal_matrix(n: int, s: int, base: Ring, max_card: int | None = None) -> FormalMatrixRing:
    return FormalMatrixRing(n, s, base, max_card=max_card)


class GeneralizedMatrixRing(Ring):
    """2x2 generalized matrix ring K_s(R): cross products picked up a factor s."""

    def __init__(self, base: Ring, s: int, max_card: int | None = None) -> None:
        base._check(s)
        ar = np.arange(base.card, dtype=np.int64)
        if not np.array_equal(base.mul_vec(s, ar), base.mul_vec(ar, s)):
            raise ConstructionError(f"element {s} is not central in {base.label}")
        self.base = base
        self.s = s
        self.card = check_guard(base.card**4, max_card)
        self.zero = 0
        self.one = _scalar_encode([base.one, base.zero, base.zero, base.one], base.card)
        self.label = f"K({s},{base.label})"

    def _quad(self, a: int) -> list[int]:
        return _scalar_digits(self._check(a), self.base.card, 4)

    def add(self, a: int, b: int) -> int:
        qa, qb = self._quad(a), self._quad(b)
        return _scalar_encode(
            [self.base.add(x, y) for x, y in zip(qa, qb)], self.base.card
        )

    def neg(self, a: int) -> int:
        return _scalar_encode([self.base.neg(x) for x in self._quad(a)], self.base.card)

    def mul(self, a: int, b: int) -> int:
        R = self.base
        a1, x1, y1, b1 = self._quad(a)
        a2, x2, y2, b2 = self._quad(b)
        s = self.s
        out = [
            R.add(R.mul(a1, a2), R.mul(s, R.mul(x1, y2))),
            R.add(R.mul(a1, x2), R.mul(x1, b2)),
            R.add(R.mul(y1, a2), R.mul(b1, y2)),
            R.add(R.mul(s, R.mul(y1, x2)), R.mul(b1, b2)),
        ]
        return _scalar_encode(out, self.base.card)

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        da = decode_digits(xs, self.base.card, 4)
        db = decode_digits(ys, self.base.card, 4)
        out = np.empty_like(da)
        for c in range(4):
            out[:, c] = self.base.add_vec(da[:, c], db[:, c])
        return encode_digits(out, self.base.card)

    def neg_vec(self, xs) -> np.ndarray:
        da = decode_digits(_as_index_array(xs), self.base.card, 4)
        out = np.empty_like(da)
        for c in range(4):
            out[:, c] = self.base.neg_vec(da[:, c])
        return encode_digits(out, self.base.card)

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        R = self.base
        a1, x1, y1, b1 = decode_digits(xs, R.card, 4).T
        a2, x2, y2, b2 = decode_digits(ys, R.card, 4).T
        s = self.s
        out = np.stack(
            [
                R.add_vec(R.mul_vec(a1, a2), R.mul_vec(s, R.mul_vec(x1, y2))),
                R.add_vec(R.mul_vec(a1, x2), R.mul_vec(x1, b2)),
                R.add_vec(R.mul_vec(y1, a2), R.mul_vec(b1, y2)),
                R.add_vec(R.mul_vec(s, R.mul_vec(y1, x2)), R.mul_vec(b1, b2)),
            ],
            axis=1,
        )
        return encode_digits(out, self.base.card)

    def format_element(self, a: int) -> str:
        a1, x1, y1, b1 = (self.base.format_element(x) for x in self._quad(a))
        return f"[[{a1}, {x1}], [{y1}, {b1}]]"


def generalized_matrix_ring(base: Ring, s: int, max_card: int | None = None) -> GeneralizedMatrixRing:
    return GeneralizedMatrixRing(base, s, max_card=max_card)


# ---------------------------------------------------------------------------
# finite groups and group rings

_GROUP_ORDER_LIMIT = 512


class FiniteGroup:
    """A finite group given by a Cayley table on ``0 .. order-1``, identity 0.

    The table is exhaustively validated at construction (identity,
    associativity, inverses).
    """

    def __init__(self, table, label: str) -> None:
        table = np.asarray(table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ConstructionError("Cayley table must be square")
        if n < 1 or n > _GROUP_ORDER_LIMIT:
            raise ConstructionError(f"group order must be in 1..{_GROUP_ORDER_LIMIT}")
        if table.min() < 0 or table.max() >= n:
            raise ConstructionError("Cayley table entries outside the carrier")
        ar = np.arange(n)
        if not (np.array_equal(table[0], ar) and np.array_equal(table[:, 0], ar)):
            raise ConstructionError("index 0 is not an identity")
        for a in range(n):
            if not np.array_equal(table[table[a]], table[a][table]):
                raise ConstructionError(f"Cayley table is not associative (a={a})")
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.flatnonzero(table[a] == 0)
            if len(hits) != 1 or table[int(hits[0]), a] != 0:
                raise ConstructionError(f"element {a} lacks a two-sided inverse")
            inv[a] = hits[0]
        self.order = n
        self.table = table
        self.identity = 0
        self.label = label
        self._inv = inv

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self._inv[a])

    def element_order(self, a: int) -> int:
        x = a
        k = 1
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def is_p_group(self, p: int) -> bool:
        n = self.order
        if n == 1:
            return True
        while n % p == 0:
            n //= p
        return n == 1

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.label} order={self.order}>"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ConstructionError(f"cyclic group order must be >= 1, got {n}")
    ar = np.arange(n, dtype=np.int64)
    table = (ar[:, None] + ar[None, :]) % n
    return FiniteGroup(table, f"C({n})")


def group_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n = g.order * h.order
    if n > _GROUP_ORDER_LIMIT:
        raise ConstructionError(f"group order {n} exceeds limit {_GROUP_ORDER_LIMIT}")
    ga, gb = np.divmod(np.arange(n, dtype=np.int64), h.order)
    left = g.table[ga[:, None], ga[None, :]]
    right = h.table[gb[:, None], gb[None, :]]
    # flat label: group atoms cannot nest in parens in the expression language
    return FiniteGroup(left * h.order + right, f"{g.label} x {h.label}")


class GroupRing(Ring):
    """Group ring R[G] with pointwise addition and convolution product."""

    def __init__(self, base: Ring, group: FiniteGroup, max_card: int | None = None) -> None:
        self.base = base
        self.group = group
        self.card = check_guard(base.card**group.order, max_card)
        self.zero = 0
        self.one = base.one  # coefficient 1 at the identity g0
        self.label = f"GR({base.label},{group.label})"

    def _coeffs(self, a: int) -> list[int]:
        out = []
        a = self._check(a)
        for _ in range(self.group.order):
            a, c = divmod(a, self.base.card)
            out.append(c)
        return out

    def _enc(self, coeffs) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * self.base.card + c
        return acc

    def add(self, a: int, b: int) -> int:
        ca, cb = self._coeffs(a), self._coeffs(b)
        return self._enc([self.base.add(x, y) for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        return self._enc([self.base.neg(x) for x in self._coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        R = self.base
        ca, cb = self._coeffs(a), self._coeffs(b)
        out = [R.zero] * self.group.order
        for i, x in enumerate(ca):
            if x == R.zero:
                continue
            for j, y in enumerate(cb):
                k = int(self.group.table[i, j])
                out[k] = R.add(out[k], R.mul(x, y))
        return self._enc(out)

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        m = self.group.order
        ca = decode_digits_le(xs, self.base.card, m)
        cb = decode_digits_le(ys, self.base.card, m)
        out = np.empty_like(ca)
        for i in range(m):
            out[:, i] = self.base.add_vec(ca[:, i], cb[:, i])
        return encode_digits_le(out, self.base.card)

    def neg_vec(self, xs) -> np.ndarray:
        m = self.group.order
        ca = decode_digits_le(_as_index_array(xs), self.base.card, m)
        out = np.empty_like(ca)
        for i in range(m):
            out[:, i] = self.base.neg_vec(ca[:, i])
        return encode_digits_le(out, self.base.card)

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        R = self.base
        m = self.group.order
        ca = decode_digits_le(xs, R.card, m)
        cb = decode_digits_le(ys, R.card, m)
        out = np.full((len(xs), m), R.zero, dtype=np.int64)
        for i in range(m):
            for j in range(m):
                k = int(self.group.table[i, j])
                out[:, k] = R.add_vec(out[:, k], R.mul_vec(ca[:, i], cb[:, j]))
        return encode_digits_le(out, self.base.card)

    def augmentation(self, a: int) -> int:
        """Coefficient sum, the image under the map onto the base ring."""
        acc = self.base.zero
        for c in self._coeffs(a):
            acc = self.base.add(acc, c)
        return acc

    def augmentation_ideal(self) -> Subset:
        ar = np.arange(self.card, dtype=np.int64)
        coeffs = decode_digits_le(ar, self.base.card, self.group.order)
        acc = coeffs[:, 0]
        for i in range(1, self.group.order):
            acc = self.base.add_vec(acc, coeffs[:, i])
        return Subset(self, acc == self.base.zero)

    def format_element(self, a: int) -> str:
        terms = []
        for i, c in enumerate(self._coeffs(a)):
            if c != self.base.zero:
                terms.append(f"{self.base.format_element(c)}*g{i}")
        return " + ".join(terms) if terms else self.base.format_element(self.base.zero)


def group_ring(base: Ring, group: FiniteGroup, max_card: int | None = None) -> GroupRing:
    return GroupRing(base, group, max_card=max_card)


# ---------------------------------------------------------------------------
# ideals and quotients


def ideal_generated(ring: Ring, gens) -> Subset:
    """Smallest two-sided ideal containing ``gens`` (iterative saturation)."""
    mask = np.zeros(ring.card, dtype=bool)
    mask[ring.zero] = True
    for g in gens:
        mask[ring._check(int(g))] = True
    ar = np.arange(ring.card, dtype=np.int64)
    while True:
        idx = np.flatnonzero(mask)
        new = mask.copy()
        new[ring.neg_vec(idx)] = True
        for i in idx:
            i = int(i)
            new[ring.mul_vec(ar, i)] = True
            new[ring.mul_vec(i, ar)] = True
            new[ring.add_vec(idx, i)] = True
        if np.array_equal(new, mask):
            return Subset(ring, mask)
        mask = new


class QuotientRing(Ring):
    """Quotient by a verified two-sided ideal; cosets keep their smallest member."""

    def __init__(self, base: Ring, ideal: Subset, label: str | None = None) -> None:
        if ideal.ring is not base:
            raise ConstructionError("ideal subset belongs to a different ring")
        _verify_ideal(base, ideal)
        self.base = base
        self.ideal = ideal
        idx = ideal.indices()
        minrep = np.arange(base.card, dtype=np.int64)
        ar = np.arange(base.card, dtype=np.int64)
        for i in idx:
            minrep = np.minimum(minrep, base.add_vec(ar, int(i)))
        reps = np.unique(minrep)
        if len(reps) * len(idx) != base.card:
            raise ConstructionError("coset partition is uneven; ideal verification bug")
        self._reps = reps
        self._coset_of = np.searchsorted(reps, minrep)
        # searchsorted is only valid because minrep values are exactly reps
        self.card = len(reps)
        self.zero = int(self._coset_of[base.zero])
        self.one = int(self._coset_of[base.one])
        self.label = label if label is not None else f"({base.label}/I{len(idx)})"

    def project(self, a: int) -> int:
        """Coset index of a base-ring element."""
        return int(self._coset_of[self.base._check(a)])

    def lift(self, c: int) -> int:
        """Smallest base-ring member of a coset."""
        return int(self._reps[self._check(c)])

    def add(self, a: int, b: int) -> int:
        return int(
            self._coset_of[self.base.add(int(self._reps[self._check(a)]), int(self._reps[self._check(b)]))]
        )

    def neg(self, a: int) -> int:
        return int(self._coset_of[self.base.neg(int(self._reps[self._check(a)]))])

    def mul(self, a: int, b: int) -> int:
        return int(
            self._coset_of[self.base.mul(int(self._reps[self._check(a)]), int(self._reps[self._check(b)]))]
        )

    def add_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return self._coset_of[self.base.add_vec(self._reps[xs], self._reps[ys])]

    def neg_vec(self, xs) -> np.ndarray:
        return self._coset_of[self.base.neg_vec(self._reps[_as_index_array(xs)])]

    def mul_vec(self, xs, ys) -> np.ndarray:
        xs, ys = _pair(xs, ys)
        return self._coset_of[self.base.mul_vec(self._reps[xs], self._reps[ys])]

    def format_element(self, a: int) -> str:
        return f"[{self.base.format_element(int(self._reps[self._check(a)]))}]"


def _verify_ideal(ring: Ring, subset: Subset) -> None:
    mask = subset.mask
    if not mask[ring.zero]:
        raise ConstructionError("ideal must contain zero")
    idx = subset.indices()
    if not mask[ring.neg_vec(idx)].all():
        raise ConstructionError("subset is not closed under negation")
    ar = np.arange(ring.card, dtype=np.int64)
    for i in idx:
        i = int(i)
        if not mask[ring.add_vec(idx, i)].all():
            raise ConstructionError(f"subset is not additively closed (witness {i})")
        if not mask[ring.mul_vec(ar, i)].all():
            raise ConstructionError(f"subset does not absorb left multiplication (witness {i})")
        if not mask[ring.mul_vec(i, ar)].all():
            raise ConstructionError(f"subset does not absorb right multiplication (witness {i})")


def quotient_by_ideal(ring: Ring, ideal: Subset, label: str | None = None) -> QuotientRing:
    return QuotientRing(ring, ideal, label=label)

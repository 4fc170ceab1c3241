"""Problem data for mixed integer bilevel linear programs.

A problem instance is

    min  c x + d1 y
    s.t. A1 x + G1 y >= b1          (leader rows)
         x in Z^r1_+ x R^(n1-r1)_+, lower <= (x, y) <= upper
         y solves:  min { d2 y : A2 x + G2 y >= b2,
                          y integer, within its bounds }

under optimistic tie-breaking, with every leader variable that appears in a
follower row integer.  Every constraint row is stored in ">="
orientation and every number is an exact ``fractions.Fraction``; "<=" rows
are negated at parse time and "=" rows are split into a ">=" pair, so no
downstream consumer ever sees a sense flag.

The text format is line oriented ('#' starts a comment, blank lines are
ignored)::

    MIBLP 1
    VARS n1 r1 n2 r2
    OBJ_UPPER c_1 .. c_n1 d1_1 .. d1_n2
    OBJ_LOWER d2_1 .. d2_n2
    BOUNDS lo hi lo hi ...            (n1+n2 pairs, hi may be "inf")
    UPPER m1
    <m1 rows: n1+n2 coefficients, a sense (<=, >= or =), rhs>
    LOWER m2
    <m2 rows, same layout; column blocks are A2 then G2>

Numbers are decimals or p/q rationals.  Parsing ends in
``validate_assumptions``, the solver's one scope gate: it refuses continuous
follower variables, continuous leader variables in follower rows and an
open bound it cannot close, scales the follower data to integers and makes
every bound finite, so no downstream module re-checks any of this.  Leader
rows never bound a follower variable: they constrain (x, y) but never
shrink the follower's reaction set.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .exactlin import dot

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

FORMAT_TAG = "MIBLP"
FORMAT_VERSION = "1"
SENSES = ("<=", ">=", "=")


class InstanceError(ValueError):
    """Malformed or inconsistent instance data."""


class ParseError(InstanceError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class GenerationError(InstanceError):
    """Random generation exhausted its resampling budget."""


@dataclass(frozen=True)
class Point:
    """A candidate leader/follower assignment."""

    x: Vec
    y: Vec

    @staticmethod
    def make(x, y) -> "Point":
        return Point(tuple(Fraction(v) for v in x), tuple(Fraction(v) for v in y))

    def joint(self) -> Vec:
        return self.x + self.y


@dataclass(frozen=True)
class MiblpInstance:
    n1: int
    r1: int
    n2: int
    r2: int
    c: Vec
    d1: Vec
    d2: Vec
    a1: Mat
    g1: Mat
    b1: Vec
    a2: Mat
    g2: Mat
    b2: Vec
    lower: Vec
    upper: tuple[Fraction | None, ...]   # None = +inf (only before validation)
    name: str = ""

    # -- shape helpers -------------------------------------------------

    @property
    def m1(self) -> int:
        return len(self.a1)

    @property
    def m2(self) -> int:
        return len(self.a2)

    @property
    def num_vars(self) -> int:
        return self.n1 + self.n2

    def is_pure_integer(self) -> bool:
        return self.r1 == self.n1 and self.r2 == self.n2

    def integer_indices(self) -> tuple[int, ...]:
        """Joint-space indices that carry an integrality requirement."""
        return tuple(range(self.r1)) + tuple(self.n1 + i for i in range(self.r2))

    def linking_indices(self) -> tuple[int, ...]:
        """Leader variables with a nonzero column in the follower rows."""
        return tuple(j for j in range(self.n1) if any(row[j] for row in self.a2))

    def leader_rows(self) -> list[tuple[Vec, Fraction]]:
        return [(self.a1[i] + self.g1[i], self.b1[i]) for i in range(self.m1)]

    def follower_rows(self) -> list[tuple[Vec, Fraction]]:
        return [(self.a2[i] + self.g2[i], self.b2[i]) for i in range(self.m2)]

    def all_rows(self) -> list[tuple[Vec, Fraction]]:
        return self.leader_rows() + self.follower_rows()

    # -- integer images of the follower data, built once per instance --

    @cached_property
    def follower_ints(self) -> tuple:
        """(rows A2|G2, b2) as Python ints; ``validate_assumptions`` scales
        every follower row to integers."""
        return (tuple(tuple(map(_as_int, a + g)) for a, g in zip(self.a2, self.g2)),
                tuple(map(_as_int, self.b2)))

    @cached_property
    def step_rows(self) -> tuple:
        """The rows [-d2; G2] of the follower's step conditions, as ints."""
        return tuple(tuple(map(_as_int, row)) for row in ((-d for d in self.d2), *self.g2))

    # -- exact membership tests ---------------------------------------

    def in_box(self, point: Point) -> bool:
        for v, lo, hi in zip(point.joint(), self.lower, self.upper):
            if v < lo or (hi is not None and v > hi):
                return False
        return True

    def is_integral(self, point: Point) -> bool:
        vals = point.joint()
        return all(vals[j].denominator == 1 for j in self.integer_indices())

    def in_relaxation(self, point: Point) -> bool:
        """Membership in the LP relaxation region (rows plus box)."""
        if not self.in_box(point):
            return False
        vals = point.joint()
        return all(dot(coeffs, vals) >= rhs for coeffs, rhs in self.all_rows())

    def in_s(self, point: Point) -> bool:
        return self.is_integral(point) and self.in_relaxation(point)

    def follower_feasible(self, x: Vec, y) -> bool:
        """y satisfies the follower's own problem at leader decision x:
        follower rows, the y box, and nothing else."""
        y = tuple(y)
        for i in range(self.n2):
            lo, hi = self.lower[self.n1 + i], self.upper[self.n1 + i]
            if y[i] < lo or (hi is not None and y[i] > hi):
                return False
        for i in range(self.m2):
            if dot(self.g2[i], y) < self.b2[i] - dot(self.a2[i], x):
                return False
        return True

    def leader_value(self, point: Point) -> Fraction:
        return dot(self.c, point.x) + dot(self.d1, point.y)

    def follower_value(self, y) -> Fraction:
        return dot(self.d2, tuple(y))


# ---------------------------------------------------------------------------
# parsing


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


class _Cursor:
    def __init__(self, text: str):
        self._lines = list(_content_lines(text))
        self._pos = 0
        self.lineno = 0

    def next(self, section: str) -> list[str]:
        if self._pos >= len(self._lines):
            raise ParseError(self.lineno, f"missing section: expected {section}")
        self.lineno, tokens = self._lines[self._pos]
        self._pos += 1
        return tokens

    def exhausted(self) -> bool:
        return self._pos >= len(self._lines)


def _number(token: str, lineno: int) -> Fraction:
    if token.removeprefix("-").isdecimal():     # a plain integer skips the regex
        return Fraction(int(token))
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"not a number: {token!r}") from None


def _bound(token: str, lineno: int) -> Fraction | None:
    if token.lower() in ("inf", "+inf"):
        return None
    return _number(token, lineno)


def _parse_header_counts(tokens, lineno, keyword, count) -> list[int]:
    if not tokens or tokens[0] != keyword:
        raise ParseError(lineno, f"expected {keyword}")
    if len(tokens) != count + 1:
        raise ParseError(lineno, f"{keyword} takes {count} value(s), got {len(tokens) - 1}")
    out = []
    for tok in tokens[1:]:
        if not tok.removeprefix("-").isdecimal():
            raise ParseError(lineno, f"not an integer: {tok!r}")
        out.append(int(tok))
    return out


def _parse_row(tokens, lineno, width):
    if len(tokens) != width + 2:
        raise ParseError(lineno, f"row needs {width} coefficients, a sense and a rhs")
    sense = tokens[width]
    if sense not in SENSES:
        raise ParseError(lineno, f"unknown sense {sense!r}")
    coeffs = [_number(t, lineno) for t in tokens[:width]]
    rhs = _number(tokens[width + 1], lineno)
    if sense == ">=":
        yield coeffs, rhs
    elif sense == "<=":
        yield [-v for v in coeffs], -rhs
    else:
        yield coeffs, rhs
        yield [-v for v in coeffs], -rhs


def parse_instance(text: str, name: str = "") -> MiblpInstance:
    """Parse, normalize and validate an instance from its text form."""
    return validate_assumptions(_parse_raw(text, name))


def _parse_raw(text: str, name: str) -> MiblpInstance:
    cur = _Cursor(text)

    tokens = cur.next("header")
    if tokens != [FORMAT_TAG, FORMAT_VERSION]:
        raise ParseError(cur.lineno, f"expected header '{FORMAT_TAG} {FORMAT_VERSION}'")

    n1, r1, n2, r2 = _parse_header_counts(cur.next("VARS"), cur.lineno, "VARS", 4)
    if n1 < 0 or n2 <= 0 or not (0 <= r1 <= n1) or not (0 <= r2 <= n2):
        raise ParseError(cur.lineno, "inconsistent variable counts")
    n = n1 + n2

    tokens = cur.next("OBJ_UPPER")
    if tokens[0] != "OBJ_UPPER":
        raise ParseError(cur.lineno, "expected OBJ_UPPER")
    if len(tokens) != n + 1:
        raise ParseError(cur.lineno, f"OBJ_UPPER needs {n} coefficients")
    upper_obj = [_number(t, cur.lineno) for t in tokens[1:]]

    tokens = cur.next("OBJ_LOWER")
    if tokens[0] != "OBJ_LOWER":
        raise ParseError(cur.lineno, "expected OBJ_LOWER")
    if len(tokens) != n2 + 1:
        raise ParseError(cur.lineno, f"OBJ_LOWER needs {n2} coefficients")
    d2 = [_number(t, cur.lineno) for t in tokens[1:]]

    tokens = cur.next("BOUNDS")
    if tokens[0] != "BOUNDS":
        raise ParseError(cur.lineno, "expected BOUNDS")
    if len(tokens) != 2 * n + 1:
        raise ParseError(cur.lineno, f"BOUNDS needs {n} lo/hi pairs")
    lower, upper = [], []
    for j in range(n):
        lo = _number(tokens[1 + 2 * j], cur.lineno)
        hi = _bound(tokens[2 + 2 * j], cur.lineno)
        if hi is not None and lo > hi:
            raise ParseError(cur.lineno, f"empty bound interval for variable {j}")
        lower.append(lo)
        upper.append(hi)

    def read_block(keyword):
        count = _parse_header_counts(cur.next(keyword), cur.lineno, keyword, 1)[0]
        if count < 0:
            raise ParseError(cur.lineno, f"{keyword} count must be nonnegative")
        rows = []
        for _ in range(count):
            tokens = cur.next(f"{keyword} row")
            rows.extend(_parse_row(tokens, cur.lineno, n))
        return rows

    upper_rows = read_block("UPPER")
    lower_rows = read_block("LOWER")
    if not lower_rows:
        raise ParseError(cur.lineno, "missing section: LOWER needs at least one row")
    if not cur.exhausted():
        cur.next("")
        raise ParseError(cur.lineno, "trailing content after LOWER block")

    def split_cols(rows):
        a = tuple(tuple(row[:n1]) for row, _ in rows)
        g = tuple(tuple(row[n1:]) for row, _ in rows)
        b = tuple(rhs for _, rhs in rows)
        return a, g, b

    a1, g1, b1 = split_cols(upper_rows)
    a2, g2, b2 = split_cols(lower_rows)
    return MiblpInstance(
        n1=n1, r1=r1, n2=n2, r2=r2,
        c=tuple(upper_obj[:n1]), d1=tuple(upper_obj[n1:]), d2=tuple(d2),
        a1=a1, g1=g1, b1=tuple(b1), a2=a2, g2=g2, b2=tuple(b2),
        lower=tuple(lower), upper=tuple(upper), name=name,
    )


def write_instance(inst: MiblpInstance) -> str:
    """Text form of an instance; parse(write(i)) reproduces i exactly."""
    def num(v: Fraction) -> str:
        return str(v)

    out = []
    if inst.name:
        out.append(f"# {inst.name}")
    out.append(f"{FORMAT_TAG} {FORMAT_VERSION}")
    out.append(f"VARS {inst.n1} {inst.r1} {inst.n2} {inst.r2}")
    out.append("OBJ_UPPER " + " ".join(num(v) for v in inst.c + inst.d1))
    out.append("OBJ_LOWER " + " ".join(num(v) for v in inst.d2))
    bounds = []
    for lo, hi in zip(inst.lower, inst.upper):
        bounds.append(num(lo))
        bounds.append("inf" if hi is None else num(hi))
    out.append("BOUNDS " + " ".join(bounds))
    out.append(f"UPPER {inst.m1}")
    for coeffs, rhs in inst.leader_rows():
        out.append(" ".join(num(v) for v in coeffs) + f" >= {num(rhs)}")
    out.append(f"LOWER {inst.m2}")
    for coeffs, rhs in inst.follower_rows():
        out.append(" ".join(num(v) for v in coeffs) + f" >= {num(rhs)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation


def validate_assumptions(inst: MiblpInstance) -> MiblpInstance:
    """Refuse what the solver's theory does not cover; normalize the rest.

    Raises InstanceError for continuous follower variables (r2 < n2), for
    continuous leader variables in follower rows, and for a variable
    declared ``inf`` that is unbounded over its region (below).  Each
    follower row (A2|G2, b2) and d2 are scaled by the LCM
    of their denominators, which keeps the follower's feasible set and
    argmin and makes every follower value change an integer: "no step
    improves by >= 1" then certifies a best response, and free sets relax by
    one unit.  Bounds of integer variables are rounded inward.  A number
    beyond the float range, after that scaling, raises InstanceError, as the
    simplex steers by a float image of the data.  A bound declared ``inf``
    becomes the variable's exact maximum (``kopt.region_extrema``), rounded
    down if integer, over its region: the relaxation for a leader variable;
    the follower rows and the box, leader bounds closed, for a follower
    variable.  Every ``inf`` bound collapses to its lower bound when the
    relaxation is empty.
    """
    if inst.r2 < inst.n2:
        raise InstanceError(f"continuous follower variables are not supported "
                            f"(r2 = {inst.r2} < n2 = {inst.n2})")
    bad_link = [j for j in inst.linking_indices() if j >= inst.r1]
    if bad_link:
        raise InstanceError("continuous leader variable(s) appear in follower rows: "
                            + ", ".join(f"x{j}" for j in bad_link))
    rows2 = [_integral(a + g + (b,)) for a, g, b in zip(inst.a2, inst.g2, inst.b2)]
    integer = set(inst.integer_indices())
    lower, upper = list(inst.lower), list(inst.upper)
    for j in integer:
        lower[j] = Fraction(math.ceil(lower[j]))
        if upper[j] is not None:
            upper[j] = Fraction(math.floor(upper[j]))
            if upper[j] < lower[j]:
                raise InstanceError(f"integer variable {j} has no value within its bounds")
    inst = replace(inst, d2=_integral(inst.d2),
                   a2=tuple(row[:inst.n1] for row in rows2),
                   g2=tuple(row[inst.n1:-1] for row in rows2),
                   b2=tuple(row[-1] for row in rows2),
                   lower=tuple(lower), upper=tuple(upper))
    _refuse_overflow(inst)
    if None not in upper:
        return inst
    from .kopt import region_extrema     # kopt imports this module
    for rows, columns, region in (
            (inst.all_rows(), range(inst.n1), "the relaxation"),
            (inst.follower_rows(), range(inst.n1, inst.num_vars), "the follower rows")):
        columns = [j for j in columns if upper[j] is None]
        extrema = region_extrema(rows, inst.lower, upper, columns, region)
        if extrema is None:
            return replace(inst, upper=tuple(lo if hi is None else hi
                                             for lo, hi in zip(inst.lower, upper)))
        for j, hi in zip(columns, extrema[1]):
            upper[j] = Fraction(math.floor(hi)) if j in integer else hi
        if None not in upper:
            break
    return replace(inst, upper=tuple(upper))


def _refuse_overflow(inst: MiblpInstance) -> None:
    """InstanceError naming the first part of the data with a number whose
    float() overflows.  Only |p/q| >= 2**1023 can, which needs the bit
    lengths of p and q to differ by more than 1022, so the cheap test on
    them comes first."""
    parts = {"OBJ_UPPER": inst.c + inst.d1, "OBJ_LOWER": inst.d2,
             "BOUNDS": inst.lower + tuple(v for v in inst.upper if v is not None),
             "UPPER": [v for a, g, b in zip(inst.a1, inst.g1, inst.b1) for v in a + g + (b,)],
             "LOWER": [v for a, g, b in zip(inst.a2, inst.g2, inst.b2) for v in a + g + (b,)]}
    for part, values in parts.items():
        for v in values:
            if v.numerator.bit_length() - v.denominator.bit_length() > 1022:
                try:
                    float(v)
                except OverflowError:
                    raise InstanceError(f"{part} holds a number beyond the float range") from None


def _as_int(v) -> int:
    if v.denominator != 1:
        raise InstanceError("follower data must be integral: parse the instance, "
                            "which scales it")
    return v.numerator


def _integral(vec: Vec) -> Vec:
    """vec times the LCM of its denominators; vec itself when that is 1."""
    scale = math.lcm(*(v.denominator for v in vec))
    return vec if scale == 1 else tuple(v * scale for v in vec)


# ---------------------------------------------------------------------------
# random generation


def generate_random_instance(seed: int, n1: int, n2: int, m1: int, m2: int,
                             coeff_range: tuple[int, int] = (-5, 5),
                             bound: int = 5) -> MiblpInstance:
    """Deterministic pure-integer random instance.

    All coefficients are uniform integers in ``coeff_range``; every variable
    lives in [0, bound] and is integer.  A draw is accepted only when the
    all-zeros point satisfies at least half of the follower rows, which keeps
    the follower side from being trivially empty; up to 100 redraws.
    """
    lo, hi = coeff_range
    if lo > hi:
        raise GenerationError("empty coefficient range")
    if n1 < 0 or n2 <= 0 or m1 < 0 or m2 <= 0 or bound <= 0:
        raise GenerationError("sizes must be positive (n2, m2, bound) or nonnegative (n1, m1)")
    rng = random.Random(seed)
    n = n1 + n2

    for _ in range(100):
        c = [rng.randint(lo, hi) for _ in range(n1)]
        d1 = [rng.randint(lo, hi) for _ in range(n2)]
        d2 = [rng.randint(lo, hi) for _ in range(n2)]
        rows1 = [[rng.randint(lo, hi) for _ in range(n)] + [rng.randint(lo, hi)]
                 for _ in range(m1)]
        rows2 = [[rng.randint(lo, hi) for _ in range(n)] + [rng.randint(lo, hi)]
                 for _ in range(m2)]
        satisfied = sum(1 for row in rows2 if row[-1] <= 0)
        if 2 * satisfied < m2:
            continue
        frac = Fraction
        inst = MiblpInstance(
            n1=n1, r1=n1, n2=n2, r2=n2,
            c=tuple(frac(v) for v in c),
            d1=tuple(frac(v) for v in d1),
            d2=tuple(frac(v) for v in d2),
            a1=tuple(tuple(frac(v) for v in row[:n1]) for row in rows1),
            g1=tuple(tuple(frac(v) for v in row[n1:n]) for row in rows1),
            b1=tuple(frac(row[n]) for row in rows1),
            a2=tuple(tuple(frac(v) for v in row[:n1]) for row in rows2),
            g2=tuple(tuple(frac(v) for v in row[n1:n]) for row in rows2),
            b2=tuple(frac(row[n]) for row in rows2),
            lower=tuple(frac(0) for _ in range(n)),
            upper=tuple(frac(bound) for _ in range(n)),
            name=f"rand-{seed}-{n1}x{n2}",
        )
        return validate_assumptions(inst)
    raise GenerationError("resampling exhausted: could not orient follower rows in 100 draws")

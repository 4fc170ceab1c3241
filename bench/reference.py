"""Independent reference for the benchmark's correctness checks.

Everything here is computed by enumerating the integer grid of a
pure-integer instance, in integer arithmetic (numpy int64 with an explicit
overflow guard), and shares no code with the solver: the only thing read
from a ``miblp`` instance is its data attributes.  Definitions follow the
optimistic bilevel problem

    min  c x + d1 y   s.t.  A1 x + G1 y >= b1,  (x, y) in the box,
                            y in argmin { d2 y' : A2 x + G2 y' >= b2, y' in the y box }

so that phi(x) is the follower's optimal value at x, F is the set of integer
points satisfying every row whose follower value equals phi(x), and an
improving step at (x, y) is an integer w with y + w in the follower's box
and rows at x and d2 w <= -1.

The ``check_*`` functions turn one solver output into a failure reason (a
string) or None; the benchmark counts an operation as failed exactly when
its check returns a reason.
"""
from __future__ import annotations

import itertools

import numpy as np

GRID_BUDGET = 4_000_000          # leader grid x follower grid points
INT64_SAFE = 1 << 62


def _integers(values, what):
    out = []
    for v in values:
        if v is None:
            raise ValueError(f"{what}: unbounded entry; enumeration needs a finite box")
        if getattr(v, "denominator", 1) != 1:
            raise ValueError(f"{what}: non-integer entry {v}")
        out.append(int(v))
    return out


def _matrix(rows, width, what):
    return np.array([_integers(r, what) for r in rows], dtype=np.int64).reshape(len(rows), width)


def _grid(lower, upper):
    ranges = [range(lo, hi + 1) for lo, hi in zip(lower, upper)]
    return np.array(list(itertools.product(*ranges)), dtype=np.int64).reshape(-1, len(ranges))


class Enumeration:
    """phi, F, the optimum and minimum improving-step norms of one instance.

    ``inst`` is any object with the instance attributes n1, n2, c, d1, d2,
    a1, g1, b1, a2, g2, b2, lower and upper holding integers (Fractions with
    denominator 1 are accepted).  Every variable is treated as integer.
    """

    def __init__(self, inst):
        n1, n2 = int(inst.n1), int(inst.n2)
        self.n1, self.n2 = n1, n2
        lower = _integers(inst.lower, "lower")
        upper = _integers(inst.upper, "upper")
        self.x_lo, self.x_hi = lower[:n1], upper[:n1]
        self.y_lo, self.y_hi = lower[n1:], upper[n1:]
        self.c = np.array(_integers(inst.c, "c"), dtype=np.int64)
        self.d1 = np.array(_integers(inst.d1, "d1"), dtype=np.int64)
        self.d2 = np.array(_integers(inst.d2, "d2"), dtype=np.int64)
        self.a1 = _matrix(inst.a1, n1, "a1")
        self.g1 = _matrix(inst.g1, n2, "g1")
        self.b1 = np.array(_integers(inst.b1, "b1"), dtype=np.int64)
        self.a2 = _matrix(inst.a2, n1, "a2")
        self.g2 = _matrix(inst.g2, n2, "g2")
        self.b2 = np.array(_integers(inst.b2, "b2"), dtype=np.int64)

        size = 1
        for lo, hi in zip(lower, upper):
            size *= max(0, hi - lo + 1)
        if size > GRID_BUDGET:
            raise ValueError(f"grid of {size} points exceeds the budget {GRID_BUDGET}")
        scale = max([abs(v) for v in lower + upper] + [1])
        coef = max([abs(int(v)) for a in (self.c, self.d1, self.d2, self.a1, self.g1,
                                          self.a2, self.g2, self.b1, self.b2)
                    for v in np.ravel(a)] + [1])
        if 4 * (n1 + n2 + 1) * coef * scale >= INT64_SAFE:
            raise ValueError("instance data too large for int64 enumeration")

        self.X = _grid(self.x_lo, self.x_hi)              # (nx, n1)
        self.Y = _grid(self.y_lo, self.y_hi)              # (ny, n2)
        self._x_index = {tuple(int(v) for v in row): i for i, row in enumerate(self.X)}
        self._y_index = {tuple(int(v) for v in row): i for i, row in enumerate(self.Y)}
        nx, ny = len(self.X), len(self.Y)

        follower = np.ones((nx, ny), dtype=bool)
        ax, gy = self.X @ self.a2.T, self.Y @ self.g2.T
        for i in range(len(self.b2)):
            follower &= ax[:, i][:, None] + gy[:, i][None, :] >= self.b2[i]
        leader = np.ones((nx, ny), dtype=bool)
        ax, gy = self.X @ self.a1.T, self.Y @ self.g1.T
        for i in range(len(self.b1)):
            leader &= ax[:, i][:, None] + gy[:, i][None, :] >= self.b1[i]
        self.follower = follower                           # y follower-feasible at x
        self.f_value = self.Y @ self.d2                    # d2 y per grid y
        masked = np.where(follower, self.f_value[None, :], np.iinfo(np.int64).max)
        phi = masked.min(axis=1)
        self.has_phi = follower.any(axis=1)
        self.phi_values = phi
        self.S = follower & leader
        self.F = self.S & (self.f_value[None, :] == phi[:, None])
        self.lead_value = (self.X @ self.c)[:, None] + (self.Y @ self.d1)[None, :]

    # -- lookups --------------------------------------------------------

    def _indices(self, x, y):
        """Grid indices of (x, y), or None when a coordinate is fractional or
        the point lies outside the box."""
        if any(getattr(v, "denominator", 1) != 1 for v in list(x) + list(y)):
            return None
        xi = self._x_index.get(tuple(int(v) for v in x))
        yi = self._y_index.get(tuple(int(v) for v in y))
        if xi is None or yi is None:
            return None
        return xi, yi

    def phi(self, x):
        """Follower optimal value at x, or None when the follower is infeasible."""
        xi = self._x_index.get(tuple(int(v) for v in x))
        if xi is None or not self.has_phi[xi]:
            return None
        return int(self.phi_values[xi])

    def in_F(self, x, y) -> bool:
        idx = self._indices(x, y)
        return idx is not None and bool(self.F[idx])

    def in_S(self, x, y) -> bool:
        idx = self._indices(x, y)
        return idx is not None and bool(self.S[idx])

    def optimum(self):
        """(value, x, y) of the lexicographically first optimal point of F,
        or None when F is empty."""
        if not self.F.any():
            return None
        values = np.where(self.F, self.lead_value, np.iinfo(np.int64).max)
        best = int(values.min())
        xi, yi = (int(v) for v in np.argwhere(values == best)[0])
        return best, tuple(int(v) for v in self.X[xi]), tuple(int(v) for v in self.Y[yi])

    def points(self, mask_name: str):
        """All (x, y) integer tuples of the set "S" or "F", in grid order."""
        mask = self.S if mask_name == "S" else self.F
        return [(tuple(int(v) for v in self.X[xi]), tuple(int(v) for v in self.Y[yi]))
                for xi, yi in np.argwhere(mask)]

    def min_step_norm(self, x, y):
        """Minimum 1-norm of an improving step at (x, y); None if none exists."""
        idx = self._indices(x, y)
        if idx is None:
            raise ValueError("point outside the integer grid")
        xi, yi = idx
        better = self.follower[xi] & (self.f_value <= self.f_value[yi] - 1)
        if not better.any():
            return None
        norms = np.abs(self.Y[better] - self.Y[yi]).sum(axis=1)
        return int(norms.min())

    def step_is_feasible(self, x, y, w) -> bool:
        """y + w lies in the follower's box and satisfies its rows at x."""
        target = [int(a) + int(b) for a, b in zip(y, w)]
        if any(t < lo or t > hi for t, lo, hi in zip(target, self.y_lo, self.y_hi)):
            return False
        x = [int(v) for v in x]
        for i in range(len(self.b2)):
            act = sum(int(a) * v for a, v in zip(self.a2[i], x)) + \
                sum(int(g) * v for g, v in zip(self.g2[i], target))
            if act < int(self.b2[i]):
                return False
        return True


# ---------------------------------------------------------------------------
# checks of solver outputs


def check_solve(ref: Enumeration, status: str, value, x, y):
    """Failure reason for a solve output, or None when it is correct.

    ``status`` is "optimal" or "infeasible" (anything else fails); for
    "optimal", ``value`` and the incumbent (x, y) are checked against the
    enumerated optimum and F.
    """
    opt = ref.optimum()
    if status == "infeasible":
        return None if opt is None else f"reported infeasible, enumerated optimum {opt[0]}"
    if status != "optimal":
        return f"status {status!r}"
    if opt is None:
        return "reported optimal, but F is empty"
    if value is None or value != opt[0]:
        return f"value {value}, enumerated optimum {opt[0]}"
    if x is None or y is None or not ref.in_F(x, y):
        return f"incumbent ({x}; {y}) is not bilevel feasible"
    incumbent_value = int(np.dot(ref.c, [int(v) for v in x]) + np.dot(ref.d1, [int(v) for v in y]))
    if incumbent_value != value:
        return f"incumbent value {incumbent_value} differs from reported {value}"
    return None


def check_direction(ref: Enumeration, x, y, kind: str, w=None):
    """Failure reason for a direction query at (x, y), or None.

    ``kind`` is "found" (with the step ``w``) or "none" (no improving
    direction); anything else fails.  A found step must be integral, keep
    the follower's box and rows, improve the follower by at least 1 and have
    the enumerated minimum 1-norm.
    """
    best = ref.min_step_norm(x, y)
    if kind == "none":
        return None if best is None else f"no direction reported, minimum step norm {best}"
    if kind != "found":
        return f"outcome {kind!r}"
    if w is None or len(w) != ref.n2 or any(getattr(v, "denominator", 1) != 1 for v in w):
        return f"step {w} is not an integer follower vector"
    if not ref.step_is_feasible(x, y, w):
        return f"step {tuple(w)} leaves the follower's box or rows"
    gain = -int(np.dot(ref.d2, [int(v) for v in w]))
    if gain < 1:
        return f"step {tuple(w)} improves the follower by {gain} < 1"
    norm = sum(abs(int(v)) for v in w)
    if best is None or norm != best:
        return f"step norm {norm}, enumerated minimum {best}"
    return None

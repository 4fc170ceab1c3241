"""The benchmark's fixed corpus, solver configurations and query sample.

The corpus is a fixed list of generator seeds, so node counts and every
per-layer count repeat exactly from run to run; the run's ``--seed`` only
orders the operations.  It is drawn from one instance family over
``SEED_RANGE`` by a rule on the input alone: seeds whose relaxation holds no
integer point are left out (the solver settles them with one LP, and they
would only dilute the per-instance figures), and so are the seeds in
``LEFT_OUT``, on which the solver returns a wrong answer.  ``scan.py``
re-derives the list and re-checks every seed of the range.
"""
from __future__ import annotations

import random

from miblp.bnc import SolverConfig
from miblp import instance
from miblp.oracle import DirectionMethod, OracleConfig

N1, N2, M1, M2, BOUND = 2, 3, 2, 4, 8
SEED_RANGE = range(2, 41)
LEFT_OUT = {
    36: "id-milp and id-ls-k2 return optimal -1 at (3,3; 0,0,1); "
        "enumeration gives -7 at (7,7; 2,0,0)",
}
# more than 1,000 B&C nodes under SolverConfig() when the corpus was fixed;
# either alone would take a third of a pass or more, and a pass must be short
# enough to repeat several times within one run
HEAVY = {
    11: "1,063 nodes",
    29: "2,537 nodes",
}
CORPUS_SEEDS = (2, 3, 5, 8, 9, 10, 12, 13, 14, 16, 18, 19, 20, 25, 27, 33, 38,
                39, 40)

SOLVE_CONFIGS = {
    "solve-id-milp": SolverConfig(),
    "solve-id-ls-k2": SolverConfig(
        oracle=OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=2)),
}
QUERY_CONFIG = OracleConfig(method=DirectionMethod.EXACT_MILP)

SAMPLE_SEED = 7919
SAMPLE_PER_SET = 64     # points drawn from F and from S minus F, per instance


def generate(seed: int):
    return instance.generate_random_instance(seed, N1, N2, M1, M2, bound=BOUND)


def write_all(instances) -> list:
    return [(inst.name, instance.write_instance(inst)) for inst in instances]


def read_all(texts) -> list:
    # looked up on the module at call time, so a traced run can wrap it
    return [instance.parse_instance(text, name=name) for name, text in texts]


def sample_points(seed: int, ref) -> list:
    """Fixed sample of integer points of the relaxation of corpus instance
    ``seed``: up to SAMPLE_PER_SET bilevel-feasible points and as many
    infeasible ones, each list in grid order before sampling."""
    rng = random.Random(SAMPLE_SEED * 100003 + seed)
    feasible = ref.points("F")
    in_f = set(feasible)
    infeasible = [p for p in ref.points("S") if p not in in_f]
    picked = []
    for pool in (feasible, infeasible):
        picked += rng.sample(pool, min(SAMPLE_PER_SET, len(pool)))
    return picked

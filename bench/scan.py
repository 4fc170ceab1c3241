"""Check every seed of an instance family against the enumeration reference.

    python3 bench/scan.py                                   # the corpus range
    python3 bench/scan.py --family 3 3 2 5 10 --seeds 38 38

Each seed is generated, enumerated, and solved under both solve workloads'
configurations; one line per seed reports |S|, |F|, the enumerated optimum
and each configuration's answer.  Without ``--family`` the scan covers the
corpus family over ``corpus.SEED_RANGE`` and also checks that
``corpus.CORPUS_SEEDS`` is exactly what the corpus rule selects.  Exits 1
when an answer is wrong on a seed not listed in ``corpus.LEFT_OUT`` or when
the corpus list is out of date.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus      # noqa: E402
import reference   # noqa: E402
from miblp import bnc, instance  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--family", type=int, nargs=5, metavar=("N1", "N2", "M1", "M2", "BOUND"))
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    family = args.family or (corpus.N1, corpus.N2, corpus.M1, corpus.M2, corpus.BOUND)
    seeds = (range(args.seeds[0], args.seeds[1] + 1) if args.seeds
             else corpus.SEED_RANGE)
    corpus_family = args.family is None

    selected, unexpected = [], []
    for seed in seeds:
        inst = instance.generate_random_instance(seed, *family[:4], bound=family[4])
        ref = reference.Enumeration(inst)
        opt = ref.optimum()
        line = (f"seed {seed}: |S|={int(ref.S.sum())} |F|={int(ref.F.sum())} "
                f"optimum={'infeasible' if opt is None else opt}")
        wrong = False
        for name, cfg in corpus.SOLVE_CONFIGS.items():
            t0 = time.perf_counter()
            res = bnc.solve(inst, cfg)
            wall = time.perf_counter() - t0
            inc = res.incumbent
            reason = reference.check_solve(ref, res.status.value, res.value,
                                           inc.x if inc else None, inc.y if inc else None)
            line += (f" | {name}: {res.status.value} {res.value} nodes={res.stats.nodes} "
                     f"{wall:.2f}s {'WRONG: ' + reason if reason else 'ok'}")
            wrong = wrong or reason is not None
        print(line, flush=True)
        if corpus_family:
            if wrong and seed not in corpus.LEFT_OUT:
                unexpected.append(seed)
            if ref.S.any() and seed not in corpus.LEFT_OUT and seed not in corpus.HEAVY:
                selected.append(seed)
        elif wrong:
            unexpected.append(seed)

    status = 0
    if unexpected:
        print(f"wrong answers on seeds {unexpected}")
        status = 1
    if corpus_family and not args.seeds and tuple(selected) != corpus.CORPUS_SEEDS:
        print(f"corpus rule selects {tuple(selected)}, corpus.CORPUS_SEEDS differs")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

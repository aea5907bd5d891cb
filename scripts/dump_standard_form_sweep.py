"""Run ``make_standard_form`` on 821 fixed surfaces and print every outcome.

Run it on two checkouts and compare the outputs byte for byte: a change to
the surface or rewriting layers that is not meant to change a result
should print the same lines.

    PYTHONPATH=src python3 scripts/dump_standard_form_sweep.py > sweep.txt

The inputs are ``fold_necklace`` over ``torus()`` and ``closed_genus(2)``,
with m = 1 to 6, every pair of distinct fold and back positions, open and
closed, followed by ``fold_fixture``, ``double_fold_fixture``, ``figlnk``,
``t_itself`` and ``sigma_genus1``.  For each input it prints the input
circuits, as (circle, degree, word), and the class; then the move log;
then either the output circuits, class and piece counts, or the error as
its type and message.  The last lines count the outcomes.  On one core the
sweep takes two to three minutes.
"""

from __future__ import annotations

from collections import Counter

from sclkit.fixtures import (
    closed_genus,
    double_fold_fixture,
    figlnk,
    fold_fixture,
    fold_necklace,
    sigma_genus1,
    t_itself,
    torus,
)
from sclkit.rewrite import MoveLog, make_standard_form


def inputs():
    """(label, surface) per input, in sweep order, each built when it is
    reached."""
    for name, target in (("torus", torus), ("genus2", lambda: closed_genus(2))):
        deg = len(target().faces[0])
        for m in range(1, 7):
            for fold_pos in range(deg):
                for back_pos in range(deg):
                    if back_pos == fold_pos:
                        continue
                    for closed in (False, True):
                        label = f"necklace {name} m={m} fold={fold_pos} back={back_pos} closed={closed}"
                        yield label, fold_necklace(target(), "f", m, fold_pos, back_pos, closed=closed)
    for fixture in (fold_fixture, double_fold_fixture, figlnk, t_itself, sigma_genus1):
        yield fixture.__name__, fixture()


def describe(surface):
    """The circuits and the class of ``surface``, one line each."""
    circuits = [(c.circle, c.degree, c.word) for c in surface.circuits]
    return [f"  circuits {circuits}", f"  class {surface.reduced_class()}"]


def main():
    outcomes = Counter()
    for label, surface in inputs():
        print(label)
        print("\n".join(describe(surface)))
        log = MoveLog()
        try:
            out, _ = make_standard_form(surface, log)
        except Exception as exc:  # the error is the outcome
            outcome = f"{type(exc).__name__}: {exc}"
            lines = [f"  error {outcome}"]
        else:
            outcome = "standard form"
            pieces = (len(out.vpieces), len(out.hpieces), len(out.fpieces))
            lines = [*describe(out), f"  pieces {pieces}"]
        print("".join(f"  {line}\n" for line in log.text().splitlines()), end="")
        print("\n".join(lines))
        outcomes[outcome] += 1
    for outcome, count in sorted(outcomes.items()):
        print(f"{count} {outcome}")


if __name__ == "__main__":
    main()

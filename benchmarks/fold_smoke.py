"""Differential smoke for the profiler fold on a seeded corpus draw.

::

    PYTHONPATH=src:tests python benchmarks/fold_smoke.py --count 1000 --seed 12345

Runs each program of ``generate_programs(count, seed, adversarial=True)``
and as many of ``tests/fold_shapes.py``'s ``generate_shapes(count, seed)``
through the compiled engine twice, into
:class:`~repro.profiling.profiler.Profiler` and into the plain per-access
``ReferenceFold`` of ``tests/reference_fold.py``, and exits 1 at the first
program whose folds differ, naming its index, its template or shape, the
fields that differ and its source.  The shapes reach the cross-stack memo
and first-touch rules the corpus templates rarely do.  CI seeds the draw
with the commit hash, so every commit checks programs the fixed draws of
``tests/test_profiler_reference.py`` never see.  Exit 0 when every program
matches.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="programs to draw")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    args = parser.parse_args(argv)

    from fold_shapes import generate_shapes
    from reference_fold import ReferenceFold

    from repro.corpus import generate_programs
    from repro.lang.parser import parse_program
    from repro.lang.validate import validate_program
    from repro.profiling import Profiler
    from repro.runtime.compile import CompiledEngine
    from repro.service.jobs import build_call_args

    cases = [
        (f"program {idx} ({tp.template})", tp.source, tp.entry,
         build_call_args(tp.arg_specs, seed=0))
        for idx, tp in enumerate(generate_programs(args.count, args.seed, adversarial=True))
    ] + [
        (f"shape {idx} ({sh.shape})", sh.source, sh.entry, sh.args)
        for idx, sh in enumerate(generate_shapes(args.count, args.seed))
    ]
    for name, source, entry, call_args in cases:
        program = parse_program(source)
        validate_program(program)
        profiler, reference = Profiler(), ReferenceFold()
        CompiledEngine(program, sink=profiler).run(entry, call_args)
        CompiledEngine(program, sink=reference).run(entry, call_args)
        differ = reference.mismatches(profiler.profile)
        if differ:
            print(
                f"fold-smoke: {name} of seed {args.seed} "
                f"differs from the reference fold in {', '.join(differ)}:"
            )
            print(source)
            return 1
    print(f"fold-smoke: all {len(cases)} programs of seed {args.seed} match the reference fold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One way to count the thread rounds of the Monte Carlo engine.

``record_rounds`` is used by test_montecarlo.py and test_cli.py, and by the
fresh interpreters that test_cli.py starts; it imports nothing but
``threading`` and ``ris_select``, so it loads no module those interpreters
must not load.
"""

import threading

from ris_select import montecarlo


def record_rounds(patch=setattr) -> list:
    """Patches montecarlo._share, through patch(montecarlo, "_share", ...),
    to record each round it runs as (kind, threads, moved): kind is "blocks"
    for a round of fading blocks and "chunks" for one of chunks, threads the
    number of threads other than the calling one that ran its tasks, and
    moved the number of tasks they ran.  A round is recorded when it ends,
    so the fading rounds of a chunk come before the round of the chunks."""
    rounds, share = [], montecarlo._share

    def recording(run, tasks, team, shares):
        caller, ran = threading.get_ident(), []

        def tracked(task):
            ran.append(threading.get_ident())
            return run(task)

        try:
            return share(tracked, tasks, team, shares)
        finally:
            others = [ident for ident in ran if ident != caller]
            rounds.append(("blocks" if run is next else "chunks", len(set(others)), len(others)))

    patch(montecarlo, "_share", recording)
    return rounds

"""Concurrent engine runs and the process-wide recursion limit.

Deep MiniC recursion needs a raised interpreter recursion limit, and that
limit is shared by every thread in the process.  The daemon's thread
backend runs jobs concurrently, so a run that finishes must never lower
the limit under a run that is still descending: the neighbour would die
with ``RecursionError``, or the interpreter would abort outright.

The scenario runs in a subprocess because the failure can abort the
interpreter.  Parking sinks order the two runs deterministically: run A
(a loop) is parked in its first event batch, run B (a 3000-deep
recursion) is then parked mid-descent, A is released to finish, and only
then does B resume.
"""

import os
import subprocess
import sys

import pytest

SCRIPT = r'''
import sys
import threading

from repro.api import compile_source
from repro.runtime.compile import CompiledEngine
from repro.runtime.events import Sink
from repro.runtime.interpreter import Interpreter

ENGINE = {"compiled": CompiledEngine, "tree": Interpreter}[sys.argv[1]]

LOOP = """
int spin(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s = s + i;
    }
    return s;
}
"""

DEEP = """
int depth(int n) {
    if (n == 0) {
        return 0;
    }
    return depth(n - 1) + 1;
}
"""


class Park(Sink):
    """Holds its run inside the first event batch until released."""

    def __init__(self):
        self.parked = threading.Event()
        self.release = threading.Event()

    def consume_batch(self, events):
        if not self.parked.is_set():
            self.parked.set()
            self.release.wait(60)


def run(source, entry, arg, sink, out):
    out.append(ENGINE(compile_source(source), sink=sink).run(entry, [arg]).value)


a_sink, b_sink, a_out, b_out = Park(), Park(), [], []
a = threading.Thread(target=run, args=(LOOP, "spin", 10_000, a_sink, a_out))
a.start()
assert a_sink.parked.wait(60)
b = threading.Thread(target=run, args=(DEEP, "depth", 3000, b_sink, b_out))
b.start()
assert b_sink.parked.wait(60)
a_sink.release.set()
a.join(60)
b_sink.release.set()
b.join(60)
assert not a.is_alive() and not b.is_alive()
print(a_out, b_out)
'''


@pytest.mark.parametrize("engine", ["compiled", "tree"])
def test_finished_run_does_not_lower_the_limit_under_a_deep_one(engine):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, engine],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[49995000]", "[3000]"], proc.stderr[-2000:]

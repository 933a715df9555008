"""One fresh-interpreter launch for setup_s: import rotform from src/, run a
workload's first operation and print the CPU seconds the process has used.

    python3 perfbench/probe.py <workload> <seed> <workdir>

run.py launches it; it imports nothing of the benchmark but the corpus, so
the benchmark's own modules stay out of the measured start-up.
"""

import contextlib
import io
from pathlib import Path
import sys
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rotform  # noqa: E402
import rotform.cli  # noqa: E402

import corpus  # noqa: E402


def main(workload, seed, workdir):
    op = corpus.workload_round(workload, int(seed), 0, workdir)[0]
    with contextlib.redirect_stdout(io.StringIO()):
        if op.argv is None:
            getattr(rotform, op.kind)(op.matrix)
        else:
            rotform.cli.main(list(op.argv))
    print(process_time())


if __name__ == "__main__":
    main(*sys.argv[1:])

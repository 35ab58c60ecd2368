"""Record the stdout digest of every request into perfbench/digests.json.

    python3 perfbench/record_digests.py

The digests are taken with the default seed.  Every report depends only on
the graph up to relabeling, and the random graphs do not depend on the
seed, so run.py holds the answers of every seed to them.  A request whose
answer fails any other check is not recorded; the script then exits 1.
Known-defect requests are never recorded: once fixed, they are held to
their closed forms instead.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import corpus, expect, run  # noqa: E402


def main() -> int:
    os.chdir(run.ROOT)
    digests = {}
    bad = 0
    for workload in corpus.WORKLOADS:
        prep = run.prepare(workload, run.DEFAULT_SEED)
        digests[workload] = {}
        for req in prep.requests:
            code, out, _, _ = run.call(prep.cli, req.argv(prep.paths[req.graph.name]))
            problems = expect.check_answer(req, expect.expected_for(req), code, out)
            if req.known_defect is not None:
                continue
            if problems:
                bad += 1
                print(f"{req.name}: {'; '.join(problems)}", file=sys.stderr)
                continue
            digests[workload][req.name] = expect.stdout_digest(out)
        print(f"{workload}: {len(digests[workload])} digests")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

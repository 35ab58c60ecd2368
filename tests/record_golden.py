"""Record the digest of every golden request into tests/golden_digests.json.

    PYTHONPATH=src python tests/record_golden.py

A request is one argv run through sepgamma.cli.main in-process, on graph
files written under fixed names into a fresh directory.  Its digest hashes
the argv, the exit code, stdout, and stderr without its timing_ms line,
with that directory replaced by a fixed token, since reports print
`input: <path>`.  tests/test_golden.py reruns every request and names each
one whose digest changed.  A change that alters output by design
re-records the file and lists the changed request ids; a change that
claims no output change leaves the file untouched.

The requests: gamma-a and gamma-b by every method but ehrhart, check of
each polytope, witness of each type and analyze, in every --format, on
each atlas class with n <= 6 (conftest.atlas_graphs; atlasNNNN is its
number in the atlas); the ehrhart method and verify on n <= 5, and verify
--level full on n <= 4, in every format; one batch over every file in
each --out-format; and the edge cases that the CLI tests name.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import atlas_graphs  # noqa: E402

from sepgamma import cli  # noqa: E402
from sepgamma.graphs import to_edge_list_text  # noqa: E402

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
TOKEN = "<dir>"
FORMATS = ("pretty", "coeffs", "structured")

# (argv before the path, argv after it, largest n): each runs in every format
ATLAS_REQUESTS = (
    [(["gamma-a"], ["--method", m], 6) for m in ("auto", "formula", "cuts")]
    + [(["gamma-b"], ["--method", m], 6) for m in ("auto", "formula", "interior")]
    + [(["check"], ["--polytope", p], 6) for p in ("a", "ahat", "b")]
    + [(["witness"], ["--type", t], 6) for t in ("a", "b")]
    + [(["analyze"], [], 6)]
    + [([c], ["--method", "ehrhart"], 5) for c in ("gamma-a", "gamma-b")]
    + [(["verify"], [], 5), (["verify"], ["--level", "full"], 4)]
)

# file name -> (contents, argv tails run on it).  Every request here stays
# small: the far edge and the 10^12-vertex triangle are never analyzed,
# since analyze prints every isolated label.
EDGE_CASES = {
    "edge-empty.txt": (b"", [
        ["gamma-a"], ["gamma-b"], ["gamma-a", "--method", "ehrhart"],
        ["gamma-b", "--method", "ehrhart"], ["check"], ["analyze"],
        ["witness", "--type", "a"], ["verify"], ["verify", "--level", "full"]]),
    "edge-c4-padded.txt": (b"n 6\n1 2\n2 3\n3 4\n4 1\n", [
        ["gamma-a"], ["gamma-b"], ["check"], ["analyze"], ["witness", "--type", "b"],
        ["verify", "--level", "full"]]),
    "edge-k2-isolated.txt": (b"n 1200\n1 2\n", [["gamma-a"], ["gamma-b"], ["check"]]),
    "edge-far.txt": (b"1 1000000000000\n", [
        ["check"], ["check", "--polytope", "a", "--format", "structured"],
        ["gamma-a"], ["verify"], ["witness", "--type", "b"]]),
    "edge-tri-far.txt": (b"n 1000000000000\n1 2\n2 3\n1 3\n", [
        ["check", "--polytope", "a"], ["witness", "--type", "a"]]),
    "edge-huge.txt": (b"n 3000000\n1 2\n", [
        ["gamma-a"], ["gamma-b"], ["check", "--polytope", "ahat"]]),
    "edge-loop.txt": (b"1 1\n", [["gamma-a"], ["analyze"]]),
    "edge-not-utf-8.txt": (b"1 2\n\xff\xfe\n", [["gamma-a"]]),
    "edge-superscript.txt": ("n ²\n1 2\n".encode(), [["gamma-a"]]),
    "edge-c4.txt": (b"1 2\n2 3\n3 4\n4 1\n", [
        ["gamma-a", "--method", "cuts", "--bound-override", "cut-sum=2"],
        ["gamma-a", "--bound-override", "nope=3"],
        ["gamma-a", "--bound-override", "cut-sum=x"],
        ["gamma-b", "--method", "ehrhart", "--bound-override", "box=10"],
        ["check", "--polytope", "b", "--method", "ehrhart", "--bound-override", "hrep-dim=3"],
        ["check", "--bound-override", "hrep-points=5"]]),
    "edge-triangle.json": (b'{"n": 3, "edges": [[1,2],[2,3],[3,1]]}', [
        ["gamma-a"], ["analyze", "--format", "structured"]]),
    "edge-bool.json": (b'{"edges": [[true, 2], [2, 3]]}', [["analyze"]]),
    "edge-null.json": (b'{"edges": null}', [["analyze"]]),
}


def write_files(directory: str) -> dict:
    """Write every graph file into `directory`; returns {atlasNNNN: (file
    name, n)} for the atlas classes with n <= 6."""
    names = {}
    for i, g in enumerate(atlas_graphs(6), start=1):
        name = f"atlas{i:04d}.txt"
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(to_edge_list_text(g))
        names[f"atlas{i:04d}"] = (name, g.n)
    for name, (data, _) in EDGE_CASES.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
    return names


def requests(directory: str) -> list:
    """(request id, argv) of every golden request on the files that
    write_files put into `directory`."""
    out = []
    atlas = write_files(directory)
    for head, tail, max_n in ATLAS_REQUESTS:
        for key, (name, n) in atlas.items():
            if n > max_n:
                continue
            for fmt in FORMATS:
                argv = head + [os.path.join(directory, name)] + tail + ["--format", fmt]
                out.append(("/".join([key] + head + tail[1:] + [fmt]), argv))
    for name, (_, tails) in EDGE_CASES.items():
        for tail in tails:
            argv = tail[:1] + [os.path.join(directory, name)] + tail[1:]
            out.append(("/".join([name] + tail), argv))
    out.append(("missing.txt/gamma-a", ["gamma-a", os.path.join(directory, "missing.txt")]))
    for fmt in ("csv", "structured"):
        out.append((f"batch/{fmt}", ["batch", directory, "--out-format", fmt]))
    return out


def digest(directory: str, argv: list) -> str:
    """The digest of one request (see the module docstring)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("timing_ms: "))
    text = json.dumps([argv, code, out.getvalue(), stderr]).replace(directory, TOKEN)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digests() -> dict:
    """{request id: digest} of every golden request, in a fresh directory."""
    with tempfile.TemporaryDirectory() as directory:
        return {key: digest(directory, argv) for key, argv in requests(directory)}


def main() -> int:
    found = digests()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(found, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(found)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte-identical output: every golden request (see record_golden.py) must
give the argv, exit code, stdout and stderr that tests/golden_digests.json
recorded.  A failure names each request whose digest changed."""

import json

from record_golden import DIGESTS, digests


def test_every_request_matches_its_recorded_digest():
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    found = digests()
    assert sorted(found) == sorted(recorded), "the requests changed: re-record"
    changed = sorted(key for key in found if found[key] != recorded[key])
    assert not changed, f"{len(changed)} requests changed: {', '.join(changed[:40])}"

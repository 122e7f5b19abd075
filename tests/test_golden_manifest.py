import json

from golden_manifest import MANIFEST, differences, manifest


def test_bundled_outputs_match_the_golden_manifest(tmp_path):
    """Every bundled scenario's result document (without `timing_ms`) and
    every CSV/SVG file it writes have the digests stored in
    `golden_manifest.json`; regenerate it with `tests/golden_manifest.py`
    after an intended change of output."""
    stored = json.loads(MANIFEST.read_text())
    diff = differences(stored, manifest(tmp_path))
    assert not diff, "\n".join(diff)

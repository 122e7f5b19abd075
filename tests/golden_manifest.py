"""SHA-256 manifest of the bundled scenarios' outputs.

For each bundled scenario: the digest of its canonical result document
(sorted-key JSON as `cabee run` writes it, without `timing_ms`) and of each
top-level `results` entry, and the digest of every CSV/SVG file it writes.
`tests/test_golden_manifest.py` compares a fresh run against the stored
manifest; rerun this script to regenerate it after an intended change of
output:

    PYTHONPATH=src python tests/golden_manifest.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from cabee.cli import _stable_dumps, bundled_scenarios, run_scenario

MANIFEST = Path(__file__).with_name("golden_manifest.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(out_dir: Path) -> dict:
    """Run every bundled scenario into its own directory under `out_dir`
    and digest what it produces."""
    documents, files = {}, {}
    for name, doc in bundled_scenarios().items():
        result_doc, _ = run_scenario(doc, out_dir / name)
        del result_doc["timing_ms"]
        documents[name] = {
            "sha256": _sha256(_stable_dumps(result_doc).encode()),
            "results": {key: _sha256(_stable_dumps(value).encode()) for key, value in result_doc["results"].items()},
        }
        for path in sorted((out_dir / name).iterdir()):
            files[f"{name}/{path.name}"] = _sha256(path.read_bytes())
    return {"documents": documents, "files": files}


def differences(stored: dict, fresh: dict) -> list[str]:
    """One line per scenario whose document differs, naming the `results`
    keys that differ, and one per output file that differs or is missing
    on one side."""
    lines = []
    for name in sorted(stored["documents"].keys() | fresh["documents"].keys()):
        old, new = stored["documents"].get(name), fresh["documents"].get(name)
        if old is None or new is None:
            lines.append(f"{name}: scenario {'added' if old is None else 'missing'}")
        elif old["sha256"] != new["sha256"]:
            keys = sorted(k for k in old["results"].keys() | new["results"].keys()
                          if old["results"].get(k) != new["results"].get(k))
            lines.append(f"{name}: result document differs; results keys: {keys or 'none (outside results)'}")
    for path in sorted(stored["files"].keys() | fresh["files"].keys()):
        if stored["files"].get(path) != fresh["files"].get(path):
            lines.append(f"{path}: output file differs")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(json.dumps(manifest(Path(tmp)), sort_keys=True, indent=1) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)

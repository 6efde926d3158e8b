"""Golden structured reports: refactors must not change a single byte.

The digests in golden_reports.json are SHA-256 hashes of the structured
`analyze` documents (without `generated_at` and `input_path`) of the
shipped sample graphs, of the first 50 graphs of the seeded mixed
corpus, of six larger inputs (40 to 312 edges): the 5x5, 7x7, 11x11 and
13x13 mirror grids, the random graph W3 and random 50 (the first draw of
`first_connected_draw`), and of the four inputs whose
hypotheses fail (the identity-mirrored triangle and a doubled axis edge,
both with a cyclic axis, an empty axis and a disconnected plus graph),
which pin the null verdicts and the `applicability` block.
A change that alters any report on purpose regenerates them:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_reports.json
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from mirrorcrit.cli import main
from mirrorcrit.graphfile import parse, serialize
from mirrorcrit.randgraph import mirror_grid, random_symmetric_graph

from conftest import (
    CYCLIC_AXIS,
    disconnected_plus,
    empty_axis,
    identity_mirror_triangle,
    symmetric_corpus,
)

HERE = Path(__file__).resolve().parent
SAMPLES = HERE.parent / "sample_graphs"
GOLDEN = HERE / "golden_reports.json"
CORPUS_SIZE = 50
LARGER = {
    "mirror_grid-5x5": lambda: mirror_grid(5, 5),
    "mirror_grid-7x7": lambda: mirror_grid(7, 7),
    "mirror_grid-11x11": lambda: mirror_grid(11, 11),
    "mirror_grid-13x13": lambda: mirror_grid(13, 13),
    "random-w3": lambda: random_symmetric_graph(
        seed=1, n_left=20, n_fixed=4, n_left_edges=40, n_fixed_edges=2
    ),
    "random-50": lambda: first_connected_draw(50),
}
GATED = {
    "identity_mirror_triangle": identity_mirror_triangle,
    "empty_axis": empty_axis,
    "disconnected_plus": disconnected_plus,
    "cyclic_axis": lambda: parse(CYCLIC_AXIS),
}


def first_connected_draw(size):
    """The first draw whose plus graph is connected, of the generator at
    `size` left vertices, seeded from `random.Random(7)`."""
    master = random.Random(7)
    while True:
        g = random_symmetric_graph(
            seed=master.getrandbits(64), n_left=size, n_fixed=size // 10,
            n_left_edges=2 * size, n_fixed_edges=size // 20,
        )
        if g.decompose().plus.is_connected():
            return g


def document_digest(path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["analyze", str(path), "--format", "structured"])
    doc = json.loads(out.getvalue())
    doc.pop("generated_at")
    doc.pop("input_path")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def report_digests(workdir: Path) -> dict:
    digests = {
        f"sample_graphs/{p.name}": document_digest(p)
        for p in sorted(SAMPLES.glob("*.sg"))
    }
    for i, g in enumerate(symmetric_corpus(CORPUS_SIZE, connected_plus=False)):
        path = workdir / f"corpus-{i:03d}.sg"
        path.write_text(serialize(g))
        digests[f"corpus-{i:03d}"] = document_digest(path)
    for name, make in {**LARGER, **GATED}.items():
        path = workdir / f"{name}.sg"
        path.write_text(serialize(make()))
        digests[name] = document_digest(path)
    return digests


def test_reports_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = report_digests(tmp_path)
    assert got.keys() == expected.keys()
    changed = sorted(k for k in expected if got.get(k) != expected[k])
    assert not changed, f"reports changed: {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(report_digests(Path(tmp)), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")

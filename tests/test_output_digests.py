"""The package's output bytes, pinned.

``scripts/output_digests.py`` takes sha256 digests of the fixture
pipeline's nine files at 1 and 2 workers; of ``enumerate_stable``,
``settle_batch``, lone ``settle`` calls, ``merge_coplanar_facets``,
``sample_antipodal_grasps`` and ``sample_point_cloud`` on the fixtures
and three squashed icospheres; and of ``enumerate_stable``,
``settle_batch`` and lone ``settle`` calls on a round icosphere and a
seeded random hull at three scales.  Each must equal its copy in
``tests/output_digests.json``, which also records the environment the
copy was taken in.  A change that moves output bytes on purpose rewrites
that file (``python scripts/output_digests.py --json``) and says which
digests moved and why.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads(Path(__file__).with_name("output_digests.json").read_text())


@pytest.fixture(scope="module")
def script():
    """``scripts/output_digests.py`` as a module, with its sibling
    scripts importable while it loads."""
    scripts = ROOT / "scripts"
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(scripts))
        spec = importlib.util.spec_from_file_location("output_digests",
                                                      scripts / "output_digests.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digests(script, tmp_path_factory):
    return script.digests(tmp_path_factory.mktemp("pipeline"))


def test_the_table_is_the_pinned_one(digests):
    assert list(digests) == list(PINNED["digests"])


@pytest.mark.parametrize("name", list(PINNED["digests"]))
def test_digest_is_pinned(name, digests, script):
    got, want = digests.get(name), PINNED["digests"][name]
    if got != want:
        pytest.fail(f"{name}: got {got} with {script.environment()}, "
                    f"pinned {want} with {PINNED['environment']}")


def test_one_bit_moves_a_digest(script):
    """A float that differs in its last bit, or an array in its dtype,
    gives another digest."""
    x = np.array([0.1, 0.2, 0.3])
    moved = x.copy()
    moved[1] = np.nextafter(moved[1], 1.0)
    assert script.digest(x) != script.digest(moved)
    assert script.digest(0.1) != script.digest(float(np.nextafter(0.1, 1.0)))
    assert script.digest(np.arange(3)) != script.digest(np.arange(3, dtype=np.int32))
    assert script.digest([x, None]) == script.digest([x.copy(), None])

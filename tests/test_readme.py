"""README.md's Python examples run as written and show what they say."""

import pathlib
import re

from maxflat import design_filterbank
from maxflat.detector import BLOCK

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_match_their_comments():
    """Both ```python blocks run in one namespace, in order.  The first
    gives q ≈ 12.39 and Σ₀₀ ≈ 0.066, as its comments say; the second's
    three steps give the c of design_filterbank bit for bit, as the README
    says design_filterbank runs exactly these."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    d, spec, c = namespace["d"], namespace["spec"], namespace["c"]
    assert round(d.q, 2) == 12.39
    assert round(float(d.sigma[0, 0]), 3) == 0.066
    reference = design_filterbank(spec).c
    assert c.dtype == reference.dtype
    assert c.tobytes() == reference.tobytes()


def test_readme_block_size_is_detector_block():
    """The block size README § detection states is ``detector.BLOCK``."""
    text = README.read_text(encoding="utf-8")
    sizes = re.findall(r"blocks\s+of\s+(\d+)\s+\(`detector\.BLOCK`\)", text)
    assert sizes == [str(BLOCK)]

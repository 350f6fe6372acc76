import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    # each block may use the names of the blocks before it, as a reader
    # pasting them into one session would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    namespace = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
    capsys.readouterr()
    # the quick start's comment: the last posterior mean is near the truth
    np.testing.assert_allclose(namespace["means"][0], [2.0, 1.0, 3.0, 2.0], atol=0.5)

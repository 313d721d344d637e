"""The README's ``python`` examples run as one doctest session."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    # Only the fences are stripped: a closing fence right under an expected
    # output would otherwise be read as part of that output.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert blocks
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, README.name, str(README), 0
    )
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted and not result.failed, "".join(report)

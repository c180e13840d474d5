"""The README's Library example, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_what_it_shows():
    text = README.read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    assert len(test.examples) >= 5
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0

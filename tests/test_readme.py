"""README's library example runs, and each name its paragraph cites imports."""

import importlib
import re
from pathlib import Path

import mtgender
from mtgender.corpus import GenderLabel
from mtgender.resources import data_path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_and_each_name_it_cites_imports():
    """The python block under "## Library use" runs on the packaged WinoMT
    sample, each dotted name the paragraph after it cites exists, and the
    top-level exports it lists are mtgender.__all__."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block, paragraph = re.fullmatch(r"\s*```python\n(.*?)```(.*)", section, re.DOTALL).groups()
    assert '"challenge.jsonl"' in block
    namespace: dict = {}
    exec(block.replace('"challenge.jsonl"', repr(str(data_path("winomt_sample.jsonl")))),
         namespace)
    assert len(namespace["sentences"]) == 8
    assert namespace["label"] is GenderLabel.FEMALE
    assert namespace["report"].total == 20

    cited = re.findall(r"`(mtgender(?:\.\w+)+)`", paragraph)
    assert {"mtgender.metrics.winomt_from_table", "mtgender.backends.translate_batch",
            "mtgender.corpus.iter_sentences"} <= set(cited)
    for dotted in cited:
        module, name = dotted.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), name), dotted

    exports = re.search(r"((?:`\w+`,\s+)+`\w+`\s+and\s+`\w+`) are the package's top-level",
                        paragraph).group(1)
    assert sorted(mtgender.__all__) == sorted(re.findall(r"`(\w+)`", exports))

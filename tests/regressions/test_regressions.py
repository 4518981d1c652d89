"""Replay every ``tests/regressions/*.uc`` file on the oracle and the
engines (:func:`tests.properties.test_lowering_diff.assert_engines_agree`).

A file's leading ``//`` comment holds its ``-D NAME=VALUE`` defines, an
optional ``pes: N`` line (run on ``small_config(N)``) and one ``expect:``
line: ``ok``, an error class, or ``Class: message``.
"""

from pathlib import Path

import pytest

from repro.machine import small_config
from tests.properties.test_lowering_diff import assert_engines_agree

CASES = sorted(Path(__file__).parent.glob("*.uc"))


def _header(text: str):
    defines, expect, pes = {}, None, None
    for line in text.splitlines():
        if not line.startswith("//"):
            break
        line = line[2:].strip()
        if line.startswith("-D "):
            name, value = line[3:].split("=")
            defines[name.strip()] = int(value)
        elif line.startswith("pes:"):
            pes = int(line[len("pes:"):])
        elif line.startswith("expect:"):
            expect = line[len("expect:"):].strip()
    return defines, expect, pes


@pytest.mark.usefixtures("default_engines")
@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_regression_replays_on_every_engine(path):
    src = path.read_text()
    defines, expect, pes = _header(src)
    assert expect is not None, f"{path.name}: no 'expect:' header line"
    mc = small_config(pes) if pes else None
    kind, result = assert_engines_agree(src, [{}, {}], defines=defines, machine_config=mc)
    if expect == "ok":
        assert kind == "ok", result
    else:
        assert kind == "error"
        cls, text = result
        want_cls, _, want_text = expect.partition(": ")
        assert cls.__name__ == want_cls
        assert not want_text or text == want_text

"""Golden: compile paths outside the end-to-end benchmark's grid.

``benchmarks/e2e/digests.json`` pins the grid's designs, which all use
explicit pragmas, no FSM optimization and the structural Verilog only.
``golden/compile_paths.json`` pins the paths the grid does not take:

* ``examples/figure1.hic`` as written;
* a pragma-free copy of it compiled with ``infer_pragmas=True``;
* ``forwarding_source(4)`` and ``pipeline_source(4)`` compiled with
  ``optimize=True``.

For each it holds the sha256 of ``verilog()``, of every
``thread_verilog(t)``, of the ``repr`` of every wrapper's area and
timing report, of ``utilization().render()`` and of
``repr(checked.dependencies)``.

To regenerate after an *intentional* change to compile output::

    PYTHONPATH=src python -m tests.test_compile_paths
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.flow import compile_design
from repro.net import forwarding_source
from repro.scenarios.catalog import pipeline_source

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "compile_paths.json"


def _pragma_free(source: str) -> str:
    return re.sub(r"^[ \t]*#(producer|consumer)\{.*\}[ \t]*\n", "", source, flags=re.M)


def _cases() -> dict[str, tuple[str, dict]]:
    figure1 = (ROOT / "examples" / "figure1.hic").read_text()
    return {
        "figure1": (figure1, {}),
        "figure1-inferred": (_pragma_free(figure1), {"infer_pragmas": True}),
        "forwarding4-optimized": (forwarding_source(4), {"optimize": True}),
        "pipeline4-optimized": (pipeline_source(4), {"optimize": True}),
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(source: str, options: dict) -> dict:
    """The hashes pinned for one compile."""
    design = compile_design(source, **options)
    return {
        "verilog": _sha(design.verilog()),
        "thread_verilog": {
            thread: _sha(design.thread_verilog(thread)) for thread in design.fsms
        },
        "area": {
            bram: _sha(repr(design.area_report(bram)))
            for bram in design.wrapper_modules
        },
        "timing": {
            bram: _sha(repr(design.timing_report(bram)))
            for bram in design.wrapper_modules
        },
        "utilization": _sha(design.utilization().render()),
        "dependencies": _sha(repr(design.checked.dependencies)),
    }


def test_pragma_free_copy_has_no_pragmas():
    source, __ = _cases()["figure1-inferred"]
    assert "#" not in source and "x1 = f(xtmp, x2);" in source


@pytest.mark.parametrize("case", sorted(_cases()))
def test_compile_path_matches_golden(case):
    source, options = _cases()[case]
    assert record(source, options) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {case: record(*args) for case, args in sorted(_cases().items())},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

"""Every merged body survives the printer→parser round trip.

The incremental pipeline records each committed merged function as printed
text and later splices it back with ``parse_named_function``; a lossy
reparse silently changes what later merges see (two function-pointer type
bugs hid on this path).  So for cold SalSSA and FMSA runs over a generated
module and over MiBench-like and SPEC2017-like programs, every committed
merged function must parse back on its own — callees and globals declared
implicitly — into text identical to what was printed, with an equal
content digest.
"""

import pytest

from repro.harness.experiments import search_workload
from repro.harness.pipeline import run_pipeline
from repro.ir.parser import parse_named_function
from repro.ir.printer import print_function
from repro.workloads.mibench_like import MIBENCH
from repro.workloads.spec_like import get_suite

_MIBENCH = {spec.name: spec for spec in MIBENCH}
_SPEC2017 = {spec.name: spec for spec in get_suite("spec2017")}

PROGRAMS = {
    "generated-96": lambda: search_workload(96, seed=7),
    **{name: _MIBENCH[name].build
       for name in ("djpeg", "ghostscript", "typeset", "rijndael")},
    **{name: _SPEC2017[name].build
       for name in ("510.parest_r", "641.leela_s", "602.gcc_s")},
}


@pytest.mark.parametrize("technique", ["salssa", "fmsa"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_every_merged_body_round_trips(program, technique):
    module = PROGRAMS[program]()
    result = run_pipeline(module, program, technique=technique)
    merged = [module.get_function(record.merged)
              for record in result.report.records if record.committed]
    for function in merged:
        text = print_function(function)
        rebuilt = parse_named_function(text)
        assert print_function(rebuilt) == text, function.name
        assert rebuilt.content_digest() == function.content_digest(), \
            function.name

"""repro.incremental — delta-driven re-merging for live modules.

The batch pipeline re-ranks and re-merges everything on every run; this
package makes the second and later runs cost near-O(|delta|): a
:class:`ModuleDelta` names what changed (detected via ``content_digest``
diffs or supplied explicitly), a :class:`PipelineState` carries the pristine
normalized functions, the live candidate index and the memoized attempt
cache across runs, and :func:`repro.harness.run_pipeline_incremental`
replays the merge pass over that state — re-scoring only pairs with a dirty
endpoint and re-running codegen only for merges the cache cannot splice —
while staying **bit-identical** to a cold run over the same module.

See ``docs/incremental.md`` for the delta lifecycle.
"""

from .cache import AttemptCache, AttemptOutcome
from .delta import ModuleDelta, copy_module, detect_delta, remap_references, \
    replace_function_body
from .state import IncrementalConfig, PipelineState
from .stats import IncrementalStats

__all__ = [
    "AttemptCache",
    "AttemptOutcome",
    "IncrementalConfig",
    "IncrementalStats",
    "ModuleDelta",
    "PipelineState",
    "copy_module",
    "detect_delta",
    "remap_references",
    "replace_function_body",
]

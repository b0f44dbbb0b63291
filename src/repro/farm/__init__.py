"""repro.farm — batched multi-process simulation of compiled designs.

The compile side of the reproduction became a staged pipeline with
content-addressed artifacts; this package is the matching *execution*
side.  It takes compiled designs and runs large batches of simulation
jobs — thousands of stimulus traces per design — across worker
processes, producing the trace corpora that verification-at-scale
flows consume.

The model, in three nouns:

* **Job** (:mod:`repro.farm.jobs`) — one ``design x module x engine x
  stimulus x horizon`` cell with a deterministic derived seed;
  :class:`SimJob` is frozen and picklable, so a job is also a
  reproduction recipe.  The engine it names resolves through the
  registry :mod:`repro.engines` (``get_engine(name)``), which runs the
  job through that engine's per-job method — including the opt-in
  ``equivalence`` mode, the interpreter in lockstep with both compiled
  engines, flagging the first divergence.
* **Ledger** (:mod:`repro.farm.ledger`) — where traces go:
  content-addressed JSONL objects appended to per-process pack
  segments next to the pipeline's artifact cache (plus optional VCD
  files), with an append-only index.  A trace digest is a proof of run
  identity.
* **Report** (:mod:`repro.farm.farm`) — what a batch returns:
  per-job :class:`SimResult` rows, status counts, the divergence
  list and the batch's throughput in reactions/sec.

Entry points: :class:`SimulationFarm` in-process, ``eclc farm run``
on the command line (flags or a JSON batch spec,
:mod:`repro.farm.spec`).
"""

from .farm import FarmReport, SimulationFarm
from .jobs import SimJob, SimResult, StimulusSpec, expand_jobs
from .ledger import TraceLedger, check_tenant, default_ledger_root
from .spec import expand_document, inline_spec, load_designs, load_spec
from .worker import WorkerState

__all__ = [
    "FarmReport",
    "SimJob",
    "SimResult",
    "SimulationFarm",
    "StimulusSpec",
    "TraceLedger",
    "WorkerState",
    "check_tenant",
    "default_ledger_root",
    "expand_document",
    "expand_jobs",
    "inline_spec",
    "load_designs",
    "load_spec",
]
